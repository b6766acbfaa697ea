"""DRHGA — per-item user selection with fixed relationships ([19]).

Huang, Meng and Shen study complementary/substitutable-aware IM "from
a follower's perspective": adoption probabilities depend on previously
adopted related items, but the item relationships are *fixed* and the
promotion targets one specified item at a time.  Following the paper's
description (Sec. VI-B): DRHGA "select[s] appropriate users to promote
each item" — it loops over items (by importance) and greedily picks
users for that item by marginal spread per cost, with the relationship
effects frozen at their initial values.  It chooses users well but
never chooses *which* items deserve promotion, which is why it trails
Dysim.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineResult, make_estimators, timer
from repro.baselines.cr_greedy import assign_timings
from repro.core.problem import IMDPPInstance
from repro.core.selection import MonteCarloGainOracle, first_strict_argmax
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend

__all__ = ["run_drhga"]


def run_drhga(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    users_per_item: int = 3,
    candidate_users: int = 40,
) -> BaselineResult:
    """Run DRHGA and return its seed group."""
    frozen, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )

    with timer() as clock:
        items_by_importance = list(np.argsort(-instance.importance))
        user_shortlist = sorted(
            (u for u in instance.network.users()
             if instance.network.out_degree(u) > 0),
            key=lambda u: -instance.network.out_degree(u),
        )[:candidate_users]

        # One gain oracle spans the whole selection: per (round, item)
        # the affordable users' trial groups are evaluated in a single
        # batched call (insertion-order groups, as the scalar loop
        # built them via ``group.with_seed``).
        oracle = MonteCarloGainOracle(
            frozen, until_promotion=1, sort_selection=False
        )
        chosen: list[tuple[int, int]] = []
        spent = 0.0
        current_value = 0.0
        # Round-robin over items (importance order) so the per-item
        # selection covers the catalogue instead of exhausting the
        # budget on the most important item alone.
        for round_index in range(users_per_item):
            progressed = False
            for item in items_by_importance:
                item = int(item)
                # Feasibility-only cost handling, as with the other
                # extended baselines.
                candidates = [
                    (user, item)
                    for user in user_shortlist
                    if (user, item) not in chosen
                    and spent + instance.cost(user, item) <= instance.budget
                ]
                best_index, best_value = first_strict_argmax(
                    oracle.values(candidates), current_value
                )
                if best_index is None:
                    continue
                best_user = candidates[best_index][0]
                chosen.append((best_user, item))
                spent += instance.cost(best_user, item)
                oracle.commit((best_user, item), value=best_value)
                current_value = best_value
                progressed = True
            if not progressed:
                break

        scheduled = assign_timings(instance, chosen, frozen)

    sigma = dynamic.sigma(scheduled)
    return BaselineResult(
        name="DRHGA",
        seed_group=scheduled,
        sigma=sigma,
        runtime_seconds=clock.seconds,
        diagnostics={"n_pairs": len(chosen), "spent": spent},
    )
