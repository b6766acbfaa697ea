"""Per-world reachability reference: one Python BFS per realized world."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.selection import PairLayout
from repro.sketch.bank import RealizationBank

__all__ = ["PerWorldBank", "ReachabilitySketch", "stacked_reach"]


class ReachabilitySketch:
    """One realized world: live-edge CSR adjacency over (user, item)
    pairs plus memoized per-source forward-reachability masks.

    Reachability is memoized in the packed word layout of
    :class:`~repro.core.selection.PairLayout` (one bit per pair).
    """

    def __init__(
        self,
        n_pairs: int,
        src: np.ndarray,
        dst: np.ndarray,
        layout: PairLayout,
    ):
        self.n_pairs = int(n_pairs)
        self.layout = layout
        order = np.argsort(src, kind="stable")
        self._indices = np.asarray(dst)[order]
        counts = np.bincount(np.asarray(src), minlength=self.n_pairs)
        self._indptr = np.zeros(self.n_pairs + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._reach: dict[int, np.ndarray] = {}  # pair -> packed words

    @property
    def n_live_edges(self) -> int:
        return int(self._indices.size)

    def reach_packed(self, pair: int) -> np.ndarray:
        """Packed words of the pairs reachable from ``pair`` (memoized,
        shared — treat as read-only)."""
        cached = self._reach.get(pair)
        if cached is not None:
            return cached
        visited = np.zeros(self.n_pairs, dtype=bool)
        visited[pair] = True
        stack = [pair]
        indptr, indices = self._indptr, self._indices
        while stack:
            node = stack.pop()
            for neighbor in indices[indptr[node] : indptr[node + 1]]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append(int(neighbor))
        packed = self.layout.pack(visited)
        self._reach[pair] = packed
        return packed

    def reach_mask(self, pair: int) -> np.ndarray:
        """Boolean mask of pairs reachable from ``pair`` (fresh array)."""
        return self.layout.unpack(self.reach_packed(pair))


class PerWorldBank(RealizationBank):
    """A :class:`RealizationBank` whose stack misses run one Python BFS
    per :class:`ReachabilitySketch`.

    Worlds derive from the same stored coin outcomes as the production
    multi-world BFS, so stacks, sigma values and LRU accounting must
    match it bit for bit.
    """

    _worlds: list[ReachabilitySketch] | None = None

    @property
    def worlds(self) -> list[ReachabilitySketch]:
        """Per-world reachability sketches (built on first access)."""
        if self._worlds is None:
            n_entries = self.skeleton.n_entries
            worlds = []
            for packed in self._world_coins:
                if n_entries:
                    live = np.unpackbits(packed, count=n_entries).astype(bool)
                else:
                    live = np.zeros(0, dtype=bool)
                worlds.append(
                    ReachabilitySketch(
                        self.skeleton.n_pairs,
                        self.skeleton.src[live],
                        self.skeleton.dst[live],
                        self.layout,
                    )
                )
            self._worlds = worlds
        return self._worlds

    def _compute_stacks(self, missing: Sequence[int]) -> dict[int, np.ndarray]:
        worlds = self.worlds
        return {
            pair: np.stack([world.reach_packed(pair) for world in worlds])
            for pair in missing
        }


def stacked_reach(bank: RealizationBank, pair: int) -> np.ndarray:
    """(n_worlds, n_pairs) boolean reachability stack of one pair,
    unpacked fresh from the bank's packed stack."""
    return bank.layout.unpack(bank.stacked_reach_packed(pair))
