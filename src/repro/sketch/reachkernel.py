"""World-packed reachability: one bit-parallel multi-world BFS kernel.

Under frozen dynamics every sigma / gain query is a reachability union
over the bank's M realized worlds.  Answering it with M independent
Python BFS traversals, one per realized world, makes the per-world
loop the dominant cost of bank-backed selection at production world
counts.  This module
transposes the problem: each skeleton entry's live/dead outcome is
re-packed *across worlds* into ``uint64`` words (:class:`WorldLayout`,
``ceil(M / 64)`` words per candidate edge), and one frontier BFS whose
state is an ``(n_pairs, n_world_words)`` bit matrix computes the
reachability of a source pair in **all M worlds simultaneously**: per
level, gather the frontier rows through the skeleton's CSR arcs, AND
with the edge-liveness words, OR into the visited matrix.

Reachability on a fixed live-edge graph is deterministic, so the stack
this kernel produces for a source pair is *bit-identical* to stacking
the M per-world BFS masks (the property suite pins this on
hypothesis-generated skeletons against the per-world reference of
``tests/reference``, including M not divisible by 64 and worlds with
zero live edges).  The canonical per-world coin flips are
untouched — world ``i`` still consumes exactly one
``rng.random(n_entries)`` call of its pinned substream; only *after*
the draws are the outcomes transposed into world-major words.

Tail-word invariant
-------------------
``WorldLayout`` pads M up to a multiple of 64; the padding bits are
zero in the source row (:attr:`WorldLayout.full_mask`), zero in every
edge-liveness word (packing zero-pads), and AND-propagation can never
set them — so popcount-style consumers never see phantom worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.selection import PairLayout

__all__ = [
    "WorldLayout",
    "ReachStacksTask",
    "multi_world_visited",
    "reach_stacks",
    "reach_stacks_chunk",
]


class WorldLayout:
    """Packed-word layout of the *worlds* axis — the
    :class:`~repro.core.selection.PairLayout` sibling for M realized
    worlds.

    World ``w`` lives at bit ``w`` of an M-bit vector padded up to
    ``n_words * 64``; :meth:`pack` / :meth:`unpack` convert the last
    axis of a boolean array between the two forms with the same
    ``packbits``/``uint64``-view convention as ``PairLayout``, so the
    two layouts compose (pack worlds per edge, unpack per pair).
    Padding bits are always zero — the tail-word invariant every
    consumer relies on.
    """

    def __init__(self, n_worlds: int):
        if n_worlds < 1:
            raise ValueError(f"n_worlds must be >= 1, got {n_worlds}")
        self.n_worlds = int(n_worlds)
        self.n_words = -(-self.n_worlds // 64)
        self.padded_worlds = self.n_words * 64
        self._full_mask: np.ndarray | None = None

    @property
    def full_mask(self) -> np.ndarray:
        """``(n_words,)`` words with exactly the M real-world bits set
        (padding zero) — the BFS source row.  Read-only."""
        if self._full_mask is None:
            self._full_mask = self.pack(np.ones(self.n_worlds, dtype=bool))
        return self._full_mask

    def pack(self, mask: np.ndarray) -> np.ndarray:
        """Pack a boolean world mask ``(..., n_worlds)`` into words."""
        mask = np.asarray(mask, dtype=bool)
        lead = mask.shape[:-1]
        padded = np.zeros((*lead, self.padded_worlds), dtype=bool)
        padded[..., : self.n_worlds] = mask
        packed = np.packbits(padded, axis=-1)  # uint8, big-endian bits
        words = np.ascontiguousarray(packed).view(np.uint64)
        return words.reshape(*lead, self.n_words)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """Invert :meth:`pack` back to a boolean world mask."""
        words = np.asarray(words, dtype=np.uint64)
        lead = words.shape[:-1]
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=-1).astype(bool)
        return bits.reshape(*lead, self.padded_worlds)[..., : self.n_worlds]


#: ``_BIT64[b]`` is the ``uint64`` word whose *unpacked* bit position
#: ``b`` is set — built with the same ``packbits`` + word-view
#: convention as the layouts, so scatter writes and ``unpackbits``
#: reads agree on any platform.
_BIT64 = (
    np.packbits(np.eye(64, dtype=np.uint8), axis=1)
    .view(np.uint64)
    .ravel()
)

#: Source blocks are capped so a pair's fresh-source membership fits
#: one ``uint64`` word (the sparse event expansion below).
MAX_SOURCE_BLOCK = 64


def multi_world_visited(
    indptr: np.ndarray,
    indices: np.ndarray,
    arc_live: np.ndarray,
    sources: Sequence[int],
    world_layout: WorldLayout,
) -> np.ndarray:
    """``(n_pairs, n_sources, n_world_words)`` visited matrix of a
    source block (at most :data:`MAX_SOURCE_BLOCK` sources).

    Bit ``w`` of ``visited[p, s]`` is set iff pair ``p`` is reachable
    from ``sources[s]`` in world ``w`` over the skeleton CSR
    ``indptr`` / ``indices`` restricted to the arcs live in ``w``
    (``arc_live[k]`` holds arc ``k``'s world-liveness words).

    One frontier serves the whole block, and the inner loop is
    *event-sparse*: realized worlds are typically sparse, so most
    ``(arc, source)`` combinations push nothing.  Per level the
    frontier pairs' out-arcs are probed with a source-agnostic word
    test (the pair's fresh worlds OR-ed across sources ANDed with the
    arc's live worlds), surviving arcs are expanded into candidate
    ``(arc, source)`` events via a per-pair source-membership word,
    and only those events' rows are ANDed, merged by ``(destination,
    source)`` key (``bitwise_or.reduceat`` over the key-sorted block)
    and OR-ed into the visited matrix.  Work is proportional to the
    propagation events that actually happen — the same events the M
    per-world BFS traversals would walk — while the per-level numpy
    dispatch overhead amortizes over the whole source block (the
    level count is the *max* eccentricity over the block, not the
    sum).
    """
    sources = np.asarray(sources, dtype=np.int64)
    n_sources = sources.size
    if n_sources > MAX_SOURCE_BLOCK:
        raise ValueError(
            f"source block of {n_sources} exceeds {MAX_SOURCE_BLOCK}; "
            "chunk the block (reach_stacks does this automatically)"
        )
    n_pairs = indptr.size - 1
    n_words = world_layout.n_words
    visited = np.zeros((n_pairs, n_sources, n_words), dtype=np.uint64)
    fresh = np.zeros_like(visited)
    #: OR of a pair's fresh rows across sources (arc probe) ...
    fresh_worlds = np.zeros((n_pairs, n_words), dtype=np.uint64)
    #: ... and the membership word of the sources fresh at the pair.
    fresh_sources = np.zeros(n_pairs, dtype=np.uint64)
    column = np.arange(n_sources)
    visited[sources, column] = world_layout.full_mask
    fresh[sources, column] = world_layout.full_mask
    np.bitwise_or.at(fresh_worlds, sources, world_layout.full_mask)
    np.bitwise_or.at(fresh_sources, sources, _BIT64[column])
    frontier = np.unique(sources)
    # The (pair, source) rows of ``fresh`` currently set — cleared
    # sparsely each level instead of wiping (frontier, n_sources)
    # slabs.
    fresh_rows = (sources, column)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.cumsum(counts) - counts
        arc_index = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts)
        )
        arc_pairs = np.repeat(frontier, counts)
        # Source-agnostic probe: an arc can only push a bit if some
        # source freshly reached its tail in a world where the arc is
        # live.
        useful = (fresh_worlds[arc_pairs] & arc_live[arc_index]).any(
            axis=1
        )
        if not useful.any():
            break
        arc_index = arc_index[useful]
        arc_pairs = arc_pairs[useful]
        # Expand surviving arcs into candidate (arc, source) events
        # from the membership words — the (k, n_sources, n_words)
        # dense push block is never materialized.
        membership = np.unpackbits(
            fresh_sources[arc_pairs].view(np.uint8).reshape(-1, 8),
            axis=1,
        )[:, :n_sources]
        event_arc, event_source = np.nonzero(membership)
        push = (
            fresh[arc_pairs[event_arc], event_source]
            & arc_live[arc_index[event_arc]]
        )
        alive = push.any(axis=1)
        # Old frontier rows are consumed; clear them *before* the new
        # frontier writes (a pair may sit in both).  Only the sparse
        # rows actually set are touched.
        fresh[fresh_rows] = 0
        fresh_worlds[frontier] = 0
        fresh_sources[frontier] = 0
        if not alive.any():
            break
        push = push[alive]
        keys = (
            indices[arc_index[event_arc[alive]]] * n_sources
            + event_source[alive]
        )
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(
            np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        )
        merged = np.bitwise_or.reduceat(push[order], boundaries, axis=0)
        unique_keys = sorted_keys[boundaries]
        dst_pairs = unique_keys // n_sources
        dst_sources = unique_keys % n_sources
        new_bits = merged & ~visited[dst_pairs, dst_sources]
        has_new = new_bits.any(axis=1)
        if not has_new.any():
            break
        dst_pairs = dst_pairs[has_new]
        dst_sources = dst_sources[has_new]
        new_bits = new_bits[has_new]
        visited[dst_pairs, dst_sources] |= new_bits
        fresh[dst_pairs, dst_sources] = new_bits  # rows cleared above
        np.bitwise_or.at(fresh_worlds, dst_pairs, new_bits)
        np.bitwise_or.at(fresh_sources, dst_pairs, _BIT64[dst_sources])
        frontier = np.unique(dst_pairs)
        fresh_rows = (dst_pairs, dst_sources)
    return visited


def _stacks_from_visited(
    visited: np.ndarray,
    pair_layout: PairLayout,
    world_layout: WorldLayout,
) -> list[np.ndarray]:
    """Transpose a visited matrix into per-source PairLayout stacks.

    Sparse scatter: only the set ``(pair, source, world)`` bits are
    walked — their PairLayout word coordinates are computed in bulk
    and OR-merged per output word — so the conversion costs O(set
    bits), not O(n_pairs * n_sources * n_worlds) boolean passes.
    Bit-identical to ``pair_layout.pack`` of the unpacked boolean
    transpose because ``_BIT64`` is built from the same ``packbits``
    convention.
    """
    n_pairs, n_sources, _ = visited.shape
    n_worlds = world_layout.n_worlds
    pair_words = pair_layout.n_words
    row_pairs, row_sources = np.nonzero(visited.any(axis=2))
    rows = visited[row_pairs, row_sources]  # (R, n_word) contiguous
    bits = np.unpackbits(
        rows.view(np.uint8).reshape(rows.shape[0], -1), axis=1
    )[:, :n_worlds]
    row_index, worlds = np.nonzero(bits)
    pairs = row_pairs[row_index]
    block_sources = row_sources[row_index]
    users = pairs // pair_layout.n_items
    items = pairs % pair_layout.n_items
    # Item blocks start on word boundaries (padded_users % 64 == 0),
    # so a pair's in-word bit position is exactly ``user % 64``.
    words = items * pair_layout.words_per_item + users // 64
    values = _BIT64[users % 64]
    flat = np.zeros(n_sources * n_worlds * pair_words, dtype=np.uint64)
    keys = (block_sources * n_worlds + worlds) * pair_words + words
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    flat[sorted_keys[boundaries]] = np.bitwise_or.reduceat(
        values[order], boundaries
    )
    stacked = flat.reshape(n_sources, n_worlds, pair_words)
    return [stacked[i].copy() for i in range(n_sources)]


def reach_stacks(
    indptr: np.ndarray,
    indices: np.ndarray,
    arc_live: np.ndarray,
    sources: Sequence[int],
    pair_layout: PairLayout,
    world_layout: WorldLayout,
) -> list[np.ndarray]:
    """One ``(n_worlds, n_words)`` PairLayout stack per source.

    Runs the block (chunked to :data:`MAX_SOURCE_BLOCK` sources)
    through the numpy multi-world BFS and scatters the world-major
    visited matrix into the pair-major packed stacks
    :class:`~repro.core.selection.CoverageGainOracle` consumes —
    bit-identical to stacking M per-world BFS masks.  Each returned
    stack is an owning copy, so the bank's LRU can drop them
    individually.
    """
    stacks: list[np.ndarray] = []
    for start in range(0, len(sources), MAX_SOURCE_BLOCK):
        block = list(sources[start : start + MAX_SOURCE_BLOCK])
        visited = multi_world_visited(
            indptr, indices, arc_live, block, world_layout
        )
        stacks.extend(
            _stacks_from_visited(visited, pair_layout, world_layout)
        )
    return stacks


@dataclass
class ReachStacksTask:
    """Everything a worker needs to compute a block of source stacks.

    Ships the skeleton CSR plus the world-packed arc liveness (not the
    instance), so
    :meth:`~repro.engine.backends.ExecutionBackend.map_chunks` can fan
    a miss block's source chunks out to thread or process pools; each
    chunk runs as one multi-source BFS and results come back in chunk
    order, so the bank's LRU insertion sequence is
    backend-independent.  The array fields may be
    :class:`~repro.engine.shm.SharedArrayHandle` exports — workers
    attach them zero-copy on first use.
    """

    indptr: np.ndarray
    indices: np.ndarray
    arc_live: np.ndarray
    pair_layout: PairLayout
    world_layout: WorldLayout
    sources: tuple[int, ...]


def reach_stacks_chunk(
    task: ReachStacksTask, chunk: Sequence[int]
) -> list[np.ndarray]:
    """Stacks of ``task.sources[i] for i in chunk`` (module-level:
    picklable), in chunk order.  Shared-memory handles attach through
    :func:`~repro.engine.shm.resolve_arrays` (imported lazily to keep
    the sketch package import-light); plain arrays pass unchanged."""
    from repro.engine.shm import resolve_arrays

    indptr, indices, arc_live = resolve_arrays(
        task.indptr, task.indices, task.arc_live
    )
    return reach_stacks(
        indptr,
        indices,
        arc_live,
        [task.sources[i] for i in chunk],
        task.pair_layout,
        task.world_layout,
    )
