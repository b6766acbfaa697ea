"""Nominee selection by marginal cost-performance ratio (Procedure 2).

A *nominee* is a user-item pair ``(u, x)``.  TMI extracts nominees one
at a time by the MCP rule

    MCP(u, x | N) = ( f(N ∪ {(u,x)}) - f(N) ) / c_{u,x}

where ``f`` is the importance-aware spread with the nominees seeded in
the **first promotion** and the dynamics frozen at their initial
values — the submodular regime of Lemma 1, which is what gives Dysim
its guarantee (Theorem 5).  Selection stops when no affordable nominee
remains.

Both oracles drive the same engine,
:func:`repro.core.selection.mcp_lazy_greedy`: the Monte-Carlo path
wraps the estimator in a
:class:`~repro.core.selection.MonteCarloGainOracle` (candidate blocks
fan out over the execution backend), the sketch fast path runs the
packed-word :class:`~repro.core.selection.CoverageGainOracle` via
:meth:`~repro.sketch.estimator.SketchSigmaEstimator.select_budgeted`.
On the sketch path a candidate block's uncached reachability stacks
are computed in one batch by the bit-parallel multi-world BFS of
:mod:`repro.sketch.reachkernel`, so nominee selection never pays a
Python BFS per realized world at production world counts.

A candidate-pool cap keeps the ground set tractable on larger
instances: candidates are pre-ranked by the cheap *quality* heuristic
``(1 + out_degree(u)) * Ppref(u, x, 0) * w_x`` and only the top pool
is offered to the greedy (the paper's implementation similarly
exploits CELF++-style pruning, Sec. VI-A).  The heuristic must not be
divided by the cost: with ``c_{u,x} ∝ out_degree / Ppref`` the degree
would cancel and the shortlist would ignore influence entirely — the
greedy itself applies the cost normalization via MCP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import (
    MonteCarloGainOracle,
    first_strict_argmax,
    mcp_lazy_greedy,
    sigma_block,
)
from repro.diffusion.montecarlo import SigmaEstimator

__all__ = ["NomineeSelection", "select_nominees", "rank_candidates"]


@dataclass
class NomineeSelection:
    """Selected nominees plus bookkeeping for the later phases."""

    nominees: list[tuple[int, int]]
    total_cost: float
    frozen_value: float
    n_oracle_calls: int
    best_singleton: tuple[int, int] | None
    best_singleton_value: float


def rank_candidates(
    instance: IMDPPInstance, pool_size: int | None
) -> list[tuple[int, int]]:
    """Rank (user, item) pairs by the cheap pre-selection heuristic.

    Half the pool comes from the quality ranking, half from the
    quality-per-cost ranking: the greedy needs strong candidates early
    and *cheap* candidates late, when the residual budget no longer
    affords the strong ones.
    """
    # Vectorized over the full (user, item) grid — the historical
    # per-pair Python loop was the nominee bottleneck at 10^6 users.
    # Bit-identical: the quality product keeps the same factor order,
    # row-major ``np.nonzero`` reproduces the loop's append order, the
    # full sort is descending-lexicographic over the exact tuple the
    # loop sorted, and the pooled rankings use stable argsorts (ties
    # keep append order, like Python's stable ``sorted``).
    csr = instance.network.csr
    degrees = np.diff(csr.out_indptr)
    costs = np.asarray(instance.costs, dtype=float)
    quality_grid = (
        (1.0 + degrees.astype(float))[:, None]
        * np.asarray(instance.base_preference, dtype=float)
        * np.maximum(np.asarray(instance.importance, dtype=float), 1e-9)[
            None, :
        ]
    )
    keep = (degrees > 0)[:, None] & (costs <= instance.budget)
    users, items = np.nonzero(keep)
    quality = quality_grid[users, items]
    value = quality / costs[users, items]
    if pool_size is None or users.size <= pool_size:
        order = np.lexsort((-items, -users, -value, -quality))
        return list(
            zip(users[order].tolist(), items[order].tolist())
        )

    pool: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    by_quality = np.argsort(-quality, kind="stable")
    by_value = np.argsort(-value, kind="stable")
    for ranking, limit in ((by_quality, pool_size // 2), (by_value, pool_size)):
        for index in ranking:
            if len(pool) >= limit:
                break
            pair = (int(users[index]), int(items[index]))
            if pair not in seen:
                seen.add(pair)
                pool.append(pair)
    return pool


def select_nominees(
    instance: IMDPPInstance,
    estimator: SigmaEstimator,
    pool_size: int | None = 200,
    singleton_pool: int | None = None,
) -> NomineeSelection:
    """Run the MCP greedy and return the nominee set ``N``.

    Parameters
    ----------
    instance:
        The (unfrozen) problem; the estimator must wrap its frozen
        clone — callers construct it once so evaluation caches are
        shared across Dysim and the theoretical fallbacks.
    estimator:
        Monte-Carlo estimator over ``instance.frozen()``.
    pool_size:
        Candidate pool cap (None = the full user-item universe).
    singleton_pool:
        How many top-ranked candidates compete for the Theorem-5
        best-singleton fallback (None = the full universe).  This used
        to be a silent hard-coded 50 — capping it can change which
        singleton backs the approximation bound, so it is an explicit
        knob now (``DysimConfig.singleton_pool``).
    """
    universe = rank_candidates(instance, pool_size)

    def cost(pair: tuple[int, int]) -> float:
        return instance.cost(pair[0], pair[1])

    # Procedure 2 keeps extracting while any affordable nominee
    # remains ("while U != 0"); with a Monte-Carlo oracle a noisy
    # non-positive marginal must not end the selection early.
    if getattr(estimator, "supports_coverage_selection", False):
        # Coverage fast path (sketch bank or RR-set index): same MCP
        # rule and lazy heap, but marginal gains are batched
        # packed-bitset lookups — per-realization coverage against the
        # bank, or per-sample membership popcounts against the RR
        # index — instead of per-call re-unions; the speedups
        # benchmarks/test_sketch_scaling.py and
        # benchmarks/test_rrset_scaling.py assert.
        result = estimator.select_budgeted(universe, cost, instance.budget)
    else:
        result = mcp_lazy_greedy(
            universe,
            MonteCarloGainOracle(estimator, until_promotion=1),
            cost,
            instance.budget,
            stop_on_negative_gain=False,
        )

    cap = len(universe) if singleton_pool is None else singleton_pool
    singles = universe[: min(len(universe), cap)]
    values = sigma_block(
        estimator,
        [SeedGroup([Seed(user, item, 1)]) for user, item in singles],
        until_promotion=1,
    )
    best_index, best_value = first_strict_argmax(values, 0.0)
    best_singleton = singles[best_index] if best_index is not None else None

    return NomineeSelection(
        nominees=list(result.selected),
        total_cost=result.total_cost,
        frozen_value=result.value,
        n_oracle_calls=result.n_oracle_calls,
        best_singleton=best_singleton,
        best_singleton_value=best_value,
    )
