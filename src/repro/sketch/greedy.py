"""Coverage greedy over a realization bank, on the unified engine.

In a realization bank the frozen spread is an exact coverage function:
the marginal gain of a nominee is the importance mass its reachability
stack adds beyond the already-covered pairs, averaged over worlds.
Gains are noise-free and provably non-increasing (submodularity of
coverage), so the CELF lazy heap is exact here — no fallback
re-comparisons, no Monte-Carlo variance.

:func:`budgeted_coverage_greedy` is
:func:`repro.core.selection.mcp_lazy_greedy` driven by a
:class:`~repro.core.selection.CoverageGainOracle` — the packed-word
batched kernel, whose uncached reachability stacks come from the
bank's multi-world BFS.  The property suite pins its gains bit for
bit against the boolean scalar reference of ``tests/reference``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.selection import (
    DEFAULT_GAIN_BATCH,
    CoverageGainOracle,
    GreedyResult,
    mcp_lazy_greedy,
)
from repro.sketch.bank import RealizationBank

__all__ = ["budgeted_coverage_greedy"]


def budgeted_coverage_greedy(
    bank: RealizationBank,
    universe: Sequence[tuple[int, int]],
    cost: Callable[[tuple[int, int]], float],
    budget: float,
    batch_size: int = DEFAULT_GAIN_BATCH,
) -> GreedyResult:
    """MCP lazy greedy over (user, item) candidates, coverage gains.

    Selection semantics match ``budgeted_lazy_greedy(...,
    stop_on_negative_gain=False)`` driven by the sketch sigma oracle:
    candidates are ranked by marginal gain per cost on a lazy heap,
    stale bounds are re-evaluated only at the top, unaffordable
    elements are skipped, and selection only ends when no affordable
    candidate remains.  Gains are evaluated in packed batches by
    :class:`~repro.core.selection.CoverageGainOracle`;
    ``n_oracle_calls`` counts gain evaluations the way the generic
    greedy counts value-oracle calls (one initial empty evaluation
    included) so CELF pruning is comparable across oracles.
    """
    oracle = CoverageGainOracle(bank)
    return mcp_lazy_greedy(
        universe,
        oracle,
        cost,
        budget,
        stop_on_negative_gain=False,
        batch_size=batch_size,
    )
