"""HAG — greedy over user-item pair combinations (after Hung et al. [37]).

"When social influence meets item inference" greedily selects the most
influential *combination* of user-item pairs: each iteration evaluates
every affordable pair's marginal spread jointly with the pairs already
chosen (no cost normalization — the paper observes HAG is
cost-insensitive and therefore slow but occasionally strong at low
budgets).  Item relationships are inferred only through the frozen
diffusion; substitutability is not examined (Sec. VI-E: HAG promotes
OOP and C++ to the same students).
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
from repro.core.selection import MonteCarloGainOracle, first_strict_argmax
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend

__all__ = ["run_hag"]


def run_hag(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    candidate_pairs: int = 120,
) -> BaselineResult:
    """Run HAG and return its seed group."""
    frozen, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )

    with timer() as clock:
        pool = affordable_pairs(instance)
        # HAG has no pruning; cap the pool for tractability but rank by
        # nothing smarter than degree so its character is preserved.
        pool.sort(
            key=lambda p: -instance.network.out_degree(p[0])
        )
        pool = pool[:candidate_pairs]

        # Each round evaluates every affordable pair's joint spread in
        # one batched oracle call (insertion-order trial groups mirror
        # the historical ``group.with_seed`` construction exactly).
        oracle = MonteCarloGainOracle(
            frozen, until_promotion=1, sort_selection=False
        )
        chosen: list[tuple[int, int]] = []
        spent = 0.0
        current_value = 0.0
        while True:
            candidates = [
                pair
                for pair in pool
                if pair not in chosen
                and spent + instance.cost(*pair) <= instance.budget
            ]
            best_index, best_value = first_strict_argmax(
                oracle.values(candidates), current_value
            )
            if best_index is None:
                break
            best_pair = candidates[best_index]
            chosen.append(best_pair)
            spent += instance.cost(*best_pair)
            oracle.commit(best_pair, value=best_value)
            current_value = best_value

        scheduled = assign_timings(instance, chosen, frozen)

    sigma = dynamic.sigma(scheduled)
    return BaselineResult(
        name="HAG",
        seed_group=scheduled,
        sigma=sigma,
        runtime_seconds=clock.seconds,
        diagnostics={"n_pairs": len(chosen), "spent": spent},
    )
