"""Boolean scalar reference for marginal coverage gains."""

from __future__ import annotations

import numpy as np

from repro.sketch.bank import RealizationBank
from tests.reference.reach import stacked_reach

__all__ = ["CoverageEvaluator"]


class CoverageEvaluator:
    """One candidate at a time against a boolean covered mask.

    Maintains the (n_worlds, n_pairs) covered bitmask of the current
    selection; ``gain`` answers one candidate via a boolean
    mask-and-count, ``add`` commits a candidate by OR-ing its stack
    in.  Reachability stacks are memoized locally in boolean form.
    Gains reduce through the same per-item-count contraction
    (:meth:`~repro.core.selection.PairLayout.weighted_sum`) as the
    packed batched oracle, which is what makes the two bit-identical.
    """

    def __init__(self, bank: RealizationBank):
        self.bank = bank
        self.covered = np.zeros(
            (bank.n_worlds, bank.skeleton.n_pairs), dtype=bool
        )
        self.value = 0.0
        self.n_gain_evaluations = 0
        self._stacked: dict[int, np.ndarray] = {}

    def _stacked_bool(self, pair: int) -> np.ndarray:
        cached = self._stacked.get(pair)
        if cached is None:
            cached = stacked_reach(self.bank, pair)
            self._stacked[pair] = cached
        return cached

    def _weighted_mean(self, fresh: np.ndarray) -> float:
        layout = self.bank.layout
        weighted = layout.weighted_sum(layout.item_counts_bool(fresh))
        return float(weighted.mean())

    def gain(self, pair: int) -> float:
        """Mean importance mass ``pair`` adds beyond the covered set."""
        self.n_gain_evaluations += 1
        fresh = self._stacked_bool(pair) & ~self.covered
        return self._weighted_mean(fresh)

    def add(self, pair: int) -> float:
        """Commit ``pair``; returns its (exact) marginal gain."""
        reach = self._stacked_bool(pair)
        fresh = reach & ~self.covered
        gained = self._weighted_mean(fresh)
        self.covered |= reach
        self.value += gained
        return gained
