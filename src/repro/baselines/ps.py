"""PS — path-based single-seed estimation (after Teng et al. [35]).

"Revenue maximization on the multi-grade product" estimates each
candidate seed's influence *alone* via maximum-influence paths (no
joint marginal re-evaluation) and applies a discounting strategy after
each selection so nearby candidates are not double counted.  The paper
observes PS is fast, budget-insensitive, but weakest in spread because
"it only estimates the influence of a seed alone and cannot utilize
the impact of items from other promotions".

PS's only sigma-oracle work is the CR-Greedy timing augmentation,
which evaluates each pick's timing variants through the unified
selection layer's batched evaluator (see
:func:`repro.baselines.cr_greedy.assign_timings`); the selection loop
itself ranks static path scores and needs no oracle.
"""

from __future__ import annotations

from repro.baselines.common import (
    BaselineResult,
    affordable_pairs,
    make_estimators,
    timer,
)
from repro.baselines.cr_greedy import assign_timings
from repro.core.problem import IMDPPInstance
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend
from repro.social.mioa import mioa_region

__all__ = ["run_ps"]


def run_ps(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    theta_path: float = 1.0 / 320.0,
    discount: float = 0.5,
) -> BaselineResult:
    """Run PS and return its seed group."""
    frozen, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )

    with timer() as clock:
        # Score every user once from its MIOA region: reachable
        # path-probability mass, item-weighted by preference and
        # importance.  This is the "influence of a seed alone".
        region_cache: dict[int, dict[int, float]] = {}
        scores: dict[tuple[int, int], float] = {}
        for user in instance.network.users():
            if instance.network.out_degree(user) == 0:
                continue
            region = mioa_region(instance.network, user, theta_path)
            region_cache[user] = region
            for item in instance.items:
                mass = sum(
                    prob * instance.base_preference[reached, item]
                    for reached, prob in region.items()
                )
                scores[(user, item)] = float(
                    mass * instance.importance[item]
                )

        pool = set(affordable_pairs(instance))
        chosen: list[tuple[int, int]] = []
        spent = 0.0
        while True:
            affordable = [
                p
                for p in pool
                if p not in chosen
                and spent + instance.cost(*p) <= instance.budget
            ]
            if not affordable:
                break
            # Cost enters only through feasibility (the paper extends
            # the baselines with budget checks, not cost-effectiveness).
            best_pair = max(affordable, key=lambda p: scores.get(p, 0.0))
            if scores.get(best_pair, 0.0) <= 0.0:
                break
            chosen.append(best_pair)
            spent += instance.cost(*best_pair)
            # Discount: candidates inside the chosen seed's region lose
            # score for the same item (their audience is spent).
            region = region_cache.get(best_pair[0], {})
            for other_user in region:
                key = (other_user, best_pair[1])
                if key in scores:
                    scores[key] *= discount

        scheduled = assign_timings(instance, chosen, frozen)

    sigma = dynamic.sigma(scheduled)
    return BaselineResult(
        name="PS",
        seed_group=scheduled,
        sigma=sigma,
        runtime_seconds=clock.seconds,
        diagnostics={"n_pairs": len(chosen), "spent": spent},
    )
