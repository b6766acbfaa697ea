"""OPT — brute-force reference for small instances (Fig. 8).

The paper derives OPT "from a brute-force approach" on 100-user
Amazon samples.  Exhaustive search over all ``(u, x, t)`` subsets is
exponential; like any practical brute force, ours bounds the universe
(top candidates by the selection heuristic) and the solution size,
then enumerates every budget-feasible combination and evaluates each
with the full dynamic Monte-Carlo oracle.  With the caps at their
defaults the search is exact for the Fig. 8 budgets, where optimal
solutions hold 2-4 seeds.
"""

from __future__ import annotations

import itertools

from repro.baselines.common import BaselineResult, make_estimators, timer
from repro.core.dysim.nominees import rank_candidates
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import DEFAULT_GAIN_BATCH, first_strict_argmax
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend

__all__ = ["run_opt"]


def run_opt(
    instance: IMDPPInstance,
    n_samples: int = 20,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    universe_size: int = 10,
    max_seeds: int = 4,
    per_user_cap: int = 2,
) -> BaselineResult:
    """Exhaustive search over a bounded (u, x, t) universe.

    ``per_user_cap`` keeps the bounded universe diverse: the ranking
    heuristic scores hub users highly for *every* item, and without
    the cap the whole universe can collapse onto one user's items.
    ``oracle`` is accepted for interface uniformity (the CLI passes it
    to every algorithm) but OPT evaluates candidates with the dynamic
    Monte-Carlo oracle only.
    """
    _, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )

    with timer() as clock:
        ranked = rank_candidates(instance, None)
        # Interleave quality-ranked and value-ranked (quality per cost)
        # candidates: the optimum may hire few strong seeds or many
        # cheap ones, and the bounded universe must offer both.
        by_value = sorted(
            ranked,
            key=lambda p: -(
                (1 + instance.network.out_degree(p[0]))
                * instance.base_preference[p[0], p[1]]
                * max(float(instance.importance[p[1]]), 1e-9)
                / instance.cost(*p)
            ),
        )
        per_user: dict[int, int] = {}
        pairs: list[tuple[int, int]] = []

        def take(candidates, limit):
            for user, item in candidates:
                if len(pairs) >= limit:
                    return
                if (user, item) in pairs:
                    continue
                if per_user.get(user, 0) >= per_user_cap:
                    continue
                per_user[user] = per_user.get(user, 0) + 1
                pairs.append((user, item))

        take(ranked, universe_size // 2)
        take(by_value, universe_size)
        universe = [
            Seed(user, item, promotion)
            for user, item in pairs
            for promotion in range(1, instance.n_promotions + 1)
        ]
        best_group = SeedGroup()
        best_value = 0.0
        n_evaluated = 0
        # Feasible combinations stream through the batched sigma
        # evaluator in DEFAULT_GAIN_BATCH-sized blocks (backend-fanned
        # for the mc oracle); the enumeration order and the strict
        # running-max comparison are those of the scalar loop, so the
        # argmax cannot move.
        block: list[SeedGroup] = []

        def flush() -> None:
            nonlocal best_group, best_value, n_evaluated
            if not block:
                return
            values = dynamic.estimate_block(block)
            n_evaluated += len(block)
            best_index, value = first_strict_argmax(values, best_value)
            if best_index is not None:
                best_group, best_value = block[best_index], value
            block.clear()

        for size in range(1, max_seeds + 1):
            for combo in itertools.combinations(universe, size):
                nominees = {seed_.nominee for seed_ in combo}
                if len(nominees) < len(combo):
                    continue  # same pair at two timings never helps
                cost = sum(instance.cost(s.user, s.item) for s in combo)
                if cost > instance.budget:
                    continue
                block.append(SeedGroup(combo))
                if len(block) >= DEFAULT_GAIN_BATCH:
                    flush()
        flush()

    return BaselineResult(
        name="OPT",
        seed_group=best_group,
        sigma=best_value,
        runtime_seconds=clock.seconds,
        diagnostics={"n_evaluated": n_evaluated},
    )
