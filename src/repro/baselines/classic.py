"""Classic IM baselines: CELF greedy, degree, random.

Not compared in the paper's figures, but standard substrate sanity
checks: CELF greedy [22] with a frozen oracle, highest out-degree, and
uniform random selection — all adapted to the (user, item, cost)
setting and scheduled in the first promotion.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    BaselineResult,
    affordable_pairs,
    make_estimators,
    timer,
)
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import MonteCarloGainOracle, mcp_lazy_greedy
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend
from repro.utils.rng import spawn_rng

__all__ = ["run_celf_greedy", "run_degree", "run_random"]


def run_celf_greedy(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    candidate_pairs: int = 120,
) -> BaselineResult:
    """Budgeted CELF greedy over user-item pairs (frozen oracle)."""
    frozen, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )

    with timer() as clock:
        pool = affordable_pairs(instance)
        pool.sort(key=lambda p: -instance.network.out_degree(p[0]))
        pool = pool[:candidate_pairs]

        # Gains come from the unified selection layer: candidate
        # blocks share one oracle call (fanned over the execution
        # backend for the mc oracle) instead of one estimate per pop.
        result = mcp_lazy_greedy(
            pool,
            MonteCarloGainOracle(frozen, until_promotion=1),
            cost=lambda p: instance.cost(*p),
            budget=instance.budget,
        )
        group = SeedGroup(Seed(u, x, 1) for u, x in result.selected)

    return BaselineResult(
        name="CELF",
        seed_group=group,
        sigma=dynamic.sigma(group),
        runtime_seconds=clock.seconds,
        diagnostics={"n_oracle_calls": result.n_oracle_calls},
    )


def run_degree(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
) -> BaselineResult:
    """Highest-out-degree users promoting their best-utility item."""
    _, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )
    utility = instance.base_preference * instance.importance[None, :]

    with timer() as clock:
        users = sorted(
            instance.network.users(),
            key=lambda u: -instance.network.out_degree(u),
        )
        group = SeedGroup()
        spent = 0.0
        for user in users:
            item = int(np.argmax(utility[user]))
            cost = instance.cost(user, item)
            if spent + cost > instance.budget:
                continue
            group.add(Seed(user, item, 1))
            spent += cost

    return BaselineResult(
        name="Degree",
        seed_group=group,
        sigma=dynamic.sigma(group),
        runtime_seconds=clock.seconds,
    )


def run_random(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
) -> BaselineResult:
    """Uniform random affordable pairs in the first promotion."""
    _, dynamic = make_estimators(
        instance, n_samples, seed, model, backend, oracle
    )
    rng = spawn_rng(seed, "random-baseline")

    with timer() as clock:
        pool = affordable_pairs(instance)
        rng.shuffle(pool)
        group = SeedGroup()
        spent = 0.0
        for user, item in pool:
            cost = instance.cost(user, item)
            if spent + cost <= instance.budget:
                group.add(Seed(user, item, 1))
                spent += cost

    return BaselineResult(
        name="Random",
        seed_group=group,
        sigma=dynamic.sigma(group),
        runtime_seconds=clock.seconds,
    )
