"""BGRD — bundle greedy (after Banerjee, Chen, Lakshmanan [38]).

The utility-driven welfare maximizer of [38] selects *users* and
promotes item bundles to each.  As the paper notes (Sec. VI-B / VI-E),
BGRD "neglects the substitutable relationship and regards all items as
a bundle to be promoted" — in the empirical study it hands one student
python *and* C++ together.  We implement it accordingly: each user's
bundle is their top items by utility (preference x importance) with no
relationship check, and users are added greedily by marginal spread
per bundle cost under the shared budget.  Timings come from the
CR-Greedy augmentation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineResult, make_estimators, timer
from repro.baselines.cr_greedy import assign_timings
from repro.core.problem import IMDPPInstance, Seed
from repro.core.selection import MonteCarloGainOracle, first_strict_argmax
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend

__all__ = ["run_bgrd"]


def run_bgrd(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    candidate_users: int = 60,
    bundle_size: int = 3,
) -> BaselineResult:
    """Run BGRD and return its (budget-feasible) seed group."""
    frozen, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )
    utility = instance.base_preference * instance.importance[None, :]

    def bundle_of(user: int) -> list[int]:
        """Top items by the user's utility — relationships ignored."""
        order = np.argsort(-utility[user])
        return [int(i) for i in order[:bundle_size]]

    def bundle_cost(user: int) -> float:
        return float(
            sum(instance.cost(user, item) for item in bundle_of(user))
        )

    with timer() as clock:
        users = sorted(
            (u for u in instance.network.users()
             if instance.network.out_degree(u) > 0),
            key=lambda u: -(1 + instance.network.out_degree(u))
            / bundle_cost(u),
        )[:candidate_users]

        # Elements of the gain oracle are *users*; ``seeds_of`` maps a
        # user to their whole bundle, so one batched call evaluates
        # every affordable candidate bundle jointly with the committed
        # group (insertion order, as the scalar loop built it).
        oracle = MonteCarloGainOracle(
            frozen,
            seeds_of=lambda user: tuple(
                Seed(user, item, 1) for item in bundle_of(user)
            ),
            until_promotion=1,
            sort_selection=False,
        )
        chosen_users: list[int] = []
        spent = 0.0
        current_value = 0.0
        while True:
            # Cost enters only through feasibility: the paper extends
            # the baselines with budget checks, not cost-effectiveness.
            candidates = [
                user
                for user in users
                if user not in chosen_users
                and spent + bundle_cost(user) <= instance.budget
            ]
            best_index, best_value = first_strict_argmax(
                oracle.values(candidates), current_value
            )
            if best_index is None:
                break
            best_user = candidates[best_index]
            chosen_users.append(best_user)
            spent += bundle_cost(best_user)
            oracle.commit(best_user, value=best_value)
            current_value = best_value

        picks = [
            (user, item)
            for user in chosen_users
            for item in bundle_of(user)
        ]
        scheduled = assign_timings(instance, picks, frozen)

    sigma = dynamic.sigma(scheduled)
    return BaselineResult(
        name="BGRD",
        seed_group=scheduled,
        sigma=sigma,
        runtime_seconds=clock.seconds,
        diagnostics={"users": chosen_users, "spent": spent},
    )
