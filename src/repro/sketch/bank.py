"""Realization bank: persisted frozen worlds + reachability sketches.

Under frozen dynamics (``DynamicsParams.is_frozen``) every coin of the
diffusion has a constant probability, so a whole random world can be
realized up-front (Lemma 1): influence coins ``Pact(u', u) *
Ppref(u, x)`` per (arc, item) and association coins ``Pext`` per
(arc, item, item).  In a realized world the spread of *any* seed group
is a pure reachability union over the live-edge graph on (user, item)
pairs — a coverage function, independent of seed timings.

The bank materializes exactly that, once per (instance, seed-stream,
world count):

* a :class:`ProbabilitySkeleton` — the canonical list of potential
  live edges with their probabilities, shared by all worlds;
* per world, one batch of coin flips over the skeleton; the packed
  outcomes are then transposed into **world-major** liveness words
  (:class:`~repro.sketch.reachkernel.WorldLayout`, ``ceil(M/64)``
  ``uint64`` words per skeleton entry) feeding the bit-parallel
  multi-world BFS of :mod:`repro.sketch.reachkernel`, the one kernel
  every fill runs: in process as one multi-source BFS (a one-worker
  backend, or a small block), or as one source chunk per worker of a
  pool.  The stacks equal those of one BFS per realized world
  (reachability on a fixed live-edge graph is deterministic), pinned
  by the property suite against the per-world reference of
  ``tests/reference``.

Every ``sigma`` / ``sigma_tau`` / marginal-gain query is then answered
by bitmask lookups instead of re-simulation.  World ``i`` flips its
coins with the substream ``spawn_rng(rng_seed, *rng_context, i)`` — the
same common-random-numbers discipline as the Monte-Carlo engine, so two
banks with the same stream are the *same worlds* and greedy marginal
comparisons across estimators stay exactly correlated.

Canonical coin order (pinned by the property suite — changing it
changes every sketch estimate):  arcs iterate ``(source, target)`` with
sources ascending and targets ascending within a source; per arc first
the influence entries ``(source, x) -> (target, x)`` with
``p = Pact * Ppref > 0`` by item ascending, then the association
entries ``(source, x) -> (target, y)`` with ``Pext`` above the
simulator's pruning floor (:data:`~repro.diffusion.campaign.
EXTRA_ADOPTION_FLOOR`, so the sketched and simulated diffusions share
one event space) in row-major ``(x, y)`` order, ``y != x``.  One
``rng.random(n_entries)`` call per world draws every coin against that
order.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.core.selection import PairLayout
from repro.diffusion.campaign import EXTRA_ADOPTION_FLOOR
from repro.engine.backends import ExecutionBackend, SerialBackend, worker_chunks
from repro.engine.replication import DEFAULT_CHUNK_SIZE
from repro.engine.shm import share_task_arrays
from repro.errors import SketchError
from repro.sketch.reachkernel import (
    ReachStacksTask,
    WorldLayout,
    reach_stacks,
    reach_stacks_chunk,
)
from repro.utils.rng import spawn_rng

__all__ = [
    "DEFAULT_REACH_BUDGET_BYTES",
    "ProbabilitySkeleton",
    "ReachCacheStats",
    "SketchBuildTask",
    "RealizationBank",
    "build_skeleton",
    "build_worlds_chunk",
]

#: Default byte budget for the bank's stacked-reach LRU.  Packed words
#: make the budget meaningful: one cached candidate costs
#: ``n_worlds * n_words * 8`` bytes (an 8x cut vs. the boolean masks
#: the bank used to hold), so the default comfortably fits every
#: benchmark instance while bounding long-lived services.
DEFAULT_REACH_BUDGET_BYTES = 256 * 1024 * 1024

#: Arcs per block of the Pext-free skeleton build (8 MB of outer
#: product at 16 items).
_SKELETON_BLOCK_ARCS = 1 << 16


@dataclass(frozen=True)
class ReachCacheStats:
    """Counters of the bank's stacked-reach LRU (see
    :meth:`RealizationBank.stacked_reach_packed`)."""

    hits: int
    misses: int
    evictions: int
    bytes_in_use: int
    budget_bytes: int | None


@dataclass
class ProbabilitySkeleton:
    """All potential live edges of the frozen diffusion, canonically
    ordered, with their coin probabilities.

    Entry ``k`` is the pair-graph edge ``src[k] -> dst[k]`` (pair index
    ``user * n_items + item``) that becomes live in a world when that
    world's ``k``-th uniform draw lands below ``prob[k]``.
    """

    n_pairs: int
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray

    @property
    def n_entries(self) -> int:
        return int(self.prob.size)


def build_skeleton(instance: IMDPPInstance) -> ProbabilitySkeleton:
    """Enumerate the canonical coin list of a frozen instance."""
    if not instance.dynamics.is_frozen:
        raise SketchError(
            "realization sketches require frozen dynamics "
            "(pass instance.frozen()); got "
            f"{instance.dynamics!r}"
        )
    state = instance.new_state()
    n_users, n_items = instance.n_users, instance.n_items
    # Frozen dynamics imply beta == 0, so every preference row is the
    # clipped base matrix row — take the matrix wholesale instead of
    # assembling 10^6 cached per-user vectors.
    preference = state._clipped_base_matrix()
    comp_index = instance.relevance.complementary_index
    matrices = instance.relevance.matrices
    scale = instance.dynamics.association_scale

    comp_cache: dict[int, np.ndarray] = {}

    def complementary_of(user: int) -> np.ndarray:
        """``r^C(user, x, y)`` matrix under the (frozen) weights."""
        cached = comp_cache.get(user)
        if cached is None:
            if comp_index.size:
                cached = np.clip(
                    np.tensordot(
                        state.weights[user][comp_index],
                        matrices[comp_index],
                        axes=1,
                    ),
                    0.0,
                    1.0,
                )
            else:
                cached = np.zeros((n_items, n_items))
            comp_cache[user] = cached
        return cached

    # Canonical arc order: sources ascending, targets ascending within
    # a source — served straight off the CSR core's sorted row view
    # (``indptr`` slicing plus the row-sorted permutation), with the
    # whole row's strengths batched in one call.
    csr = instance.network.csr
    if scale == 0.0:
        # Pext-free fast path: the canonical entry order collapses to
        # all arcs in global sorted (source, target) order with the
        # item axis innermost, so the whole skeleton is one sorted
        # gather + one influence_batch call + a blocked outer product
        # — no Python loop over 10^6 source rows.  The loop's
        # ``strength <= 0`` skip is subsumed by ``p_act > 0``
        # (strengths and preferences are non-negative).  Bit-identity
        # with the loop below is pinned by the property suite.
        order = csr._sorted_lookup[0]
        arc_sources = np.repeat(
            np.arange(n_users, dtype=np.int64), np.diff(csr.out_indptr)
        )[order]
        arc_targets = csr.out_indices[order]
        strengths = state.influence_batch(
            arc_sources, arc_targets, csr.out_strength[order]
        )

        def p_act_of(arcs: slice) -> np.ndarray:
            return strengths[arcs, None] * preference[arc_targets[arcs]]

        # Blocks of arcs keep each outer product and its ``np.nonzero``
        # a few MB.  A first pass counts the live entries, so the
        # second writes them straight into arrays allocated once:
        # joined per-block parts would hold the skeleton twice at the
        # peak.
        blocks = [
            slice(lo, lo + _SKELETON_BLOCK_ARCS)
            for lo in range(0, arc_sources.size, _SKELETON_BLOCK_ARCS)
        ]
        sizes = [int(np.count_nonzero(p_act_of(arcs) > 0.0)) for arcs in blocks]
        src = np.empty(sum(sizes), dtype=np.int64)
        dst = np.empty_like(src)
        prob = np.empty(src.size)
        end = 0
        for arcs, size in zip(blocks, sizes):
            p_act = p_act_of(arcs)
            arc_idx, live_items = np.nonzero(p_act > 0.0)
            start, end = end, end + size
            src[start:end] = arc_sources[arcs][arc_idx] * n_items + live_items
            dst[start:end] = arc_targets[arcs][arc_idx] * n_items + live_items
            prob[start:end] = p_act[arc_idx, live_items]
        return ProbabilitySkeleton(
            n_pairs=n_users * n_items, src=src, dst=dst, prob=prob
        )

    items = np.arange(n_items)
    off_diagonal = ~np.eye(n_items, dtype=bool)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    prob_parts: list[np.ndarray] = []
    for source in range(n_users):
        row_targets, row_base = csr.out_row_sorted(source)
        if not row_targets.size:
            continue
        row_strengths = state.influence_batch(
            np.full(row_targets.size, source, dtype=np.int64),
            row_targets,
            row_base,
        )
        for target, strength in zip(
            row_targets.tolist(), row_strengths.tolist()
        ):
            if strength <= 0.0:
                continue
            p_act = strength * preference[target]
            live_items = items[p_act > 0.0]
            if live_items.size:
                src_parts.append(source * n_items + live_items)
                dst_parts.append(target * n_items + live_items)
                prob_parts.append(p_act[live_items])
            # Pext(target, source, x, y); same clipping pipeline as
            # PerceptionState.extra_adoption_probs.
            p_ext = scale * np.clip(
                strength * preference[target][:, None] * complementary_of(target),
                0.0,
                1.0,
            )
            xs, ys = np.nonzero((p_ext > EXTRA_ADOPTION_FLOOR) & off_diagonal)
            if xs.size:
                src_parts.append(source * n_items + xs)
                dst_parts.append(target * n_items + ys)
                prob_parts.append(p_ext[xs, ys])

    def joined(parts: list[np.ndarray], dtype) -> np.ndarray:
        # ``dtype=`` casts while joining: no second copy.
        return np.concatenate(parts, dtype=dtype) if parts else np.zeros(0, dtype)

    return ProbabilitySkeleton(
        n_pairs=n_users * n_items,
        src=joined(src_parts, np.int64),
        dst=joined(dst_parts, np.int64),
        prob=joined(prob_parts, float),
    )


@dataclass
class SketchBuildTask:
    """Everything a worker needs to flip one world's coins.

    Ships only the probability vector (not the instance): workers
    return packed coin outcomes and the parent assembles the live-edge
    adjacency.  Picklable, so :meth:`ExecutionBackend.map_chunks` can
    fan world construction out to thread or process pools.
    """

    prob: np.ndarray
    rng_seed: int
    rng_context: tuple


def build_worlds_chunk(
    task: SketchBuildTask, indices: Sequence[int]
) -> list[np.ndarray]:
    """Flip the coins of worlds ``indices`` (module-level: picklable).

    Returns one ``np.packbits`` mask per world, in index order; world
    ``i`` consumes exactly one ``rng.random(n_entries)`` call of the
    substream ``spawn_rng(rng_seed, *rng_context, i)``.
    """
    packed = []
    for i in indices:
        rng = spawn_rng(task.rng_seed, *task.rng_context, i)
        live = rng.random(task.prob.size) < task.prob
        packed.append(np.packbits(live))
    return packed


class PairUniverse:
    """Flat indexing of the ``n_users * n_items`` (user, item) pairs.

    Shared by the realization bank and the RR-set index, which both
    answer seed-group queries through the group's nominee pairs.
    Subclasses set ``n_users`` and ``n_items``.
    """

    n_users: int
    n_items: int

    def pair_index(self, user: int, item: int) -> int:
        """Flat index of the (user, item) pair."""
        if not (0 <= user < self.n_users and 0 <= item < self.n_items):
            raise SketchError(f"unknown pair ({user}, {item})")
        return user * self.n_items + item

    def nominee_pairs(
        self, seed_group: SeedGroup, until_promotion: int | None = None
    ) -> tuple[int, ...]:
        """Canonical (sorted, distinct) pair indices of a seed group.

        Frozen spreads are timing-independent, so seeds collapse to
        their nominees; seeds scheduled after ``until_promotion`` are
        excluded, mirroring the simulator.
        """
        return tuple(
            sorted(
                {
                    self.pair_index(seed.user, seed.item)
                    for seed in seed_group
                    if until_promotion is None
                    or seed.promotion <= until_promotion
                }
            )
        )


class RealizationBank(PairUniverse):
    """A fixed family of realized worlds answering sigma queries.

    Parameters
    ----------
    instance:
        Frozen-dynamics IMDPP instance (raises otherwise).
    n_worlds:
        How many realizations to sample — the sketch analogue of the
        Monte-Carlo sample count ``M``.
    rng_seed / rng_context:
        Substream family; world ``i`` flips its coins with
        ``spawn_rng(rng_seed, *rng_context, i)``.  Two banks sharing
        these (and the instance) are bit-identical.
    backend:
        Where world construction and stack misses run (borrowed;
        ``None`` = a private serial backend) — coin flipping fans out
        as one world range per worker, and :meth:`stacks_for` fans
        miss blocks of a multi-worker pool out over source chunks,
        both reassembling in order, so banks are backend-independent.
    reach_budget_bytes:
        Byte budget of the stacked-reach LRU (None = unbounded).
        Eviction only trades recomputation for memory — query results
        are unaffected.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        n_worlds: int = 20,
        rng_seed: int = 0,
        rng_context: tuple = ("sketch",),
        backend: ExecutionBackend | None = None,
        reach_budget_bytes: int | None = DEFAULT_REACH_BUDGET_BYTES,
    ):
        if n_worlds < 1:
            raise ValueError(f"n_worlds must be >= 1, got {n_worlds}")
        self.instance = instance
        self.n_users = instance.n_users
        self.n_items = instance.n_items
        self.n_worlds = int(n_worlds)
        self.rng_seed = int(rng_seed)
        self.rng_context = tuple(rng_context)
        self.skeleton = build_skeleton(instance)
        #: Packed-word layout of the pair universe (the stacks and the
        #: coverage gain kernel).
        self.layout = PairLayout(
            instance.n_users,
            instance.n_items,
            np.asarray(instance.importance, dtype=float),
        )
        #: Packed-word layout of the worlds axis (the multi-world BFS
        #: state and the per-entry liveness words).
        self.world_layout = WorldLayout(self.n_worlds)
        self._backend = backend if backend is not None else SerialBackend()
        task = SketchBuildTask(
            prob=self.skeleton.prob,
            rng_seed=self.rng_seed,
            rng_context=self.rng_context,
        )
        packed_chunks = self._backend.map_chunks(
            build_worlds_chunk,
            task,
            worker_chunks(self.n_worlds, self._backend),
        )
        #: Per-world packed coin outcomes in canonical world order —
        #: the single source every derived view is built from, so the
        #: pinned draw order cannot drift.
        self._world_coins: list[np.ndarray] = list(
            itertools.chain.from_iterable(packed_chunks)
        )
        # The world-major arc liveness is lazy: it transposes all coins
        # once, on the first stack miss.
        self._packed_graph: (
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        # Shared-memory export of the packed graph (process pools
        # only): arrays cross the process boundary once, by page
        # table, instead of once per miss-block pickle.
        self._reach_handles: dict | None = None
        self._reach_shared = False
        #: Importance of the item behind each pair index — the weight
        #: vector every coverage query dots against.
        self.pair_importance = np.tile(
            np.asarray(instance.importance, dtype=float), instance.n_users
        )
        self.reach_budget_bytes = reach_budget_bytes
        self._stacked_packed: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._stacked_bytes = 0
        #: Scratch union buffer reused by :meth:`spread_stats` across
        #: worlds and calls (one ``n_words`` row, never aliased out).
        self._union_scratch = np.empty(self.layout.n_words, dtype=np.uint64)
        self.reach_hits = 0
        self.reach_misses = 0
        self.reach_evictions = 0

    def _reach_graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared skeleton CSR + world-major arc liveness (lazy).

        One adjacency for all M worlds: arcs are the skeleton entries
        sorted stably by source pair, and ``arc_live[k]`` holds arc
        ``k``'s liveness words across worlds (bit ``w`` set iff world
        ``w`` drew the entry live).  The transpose happens once, after
        the canonical per-world draws — the draw order is untouched.
        """
        if self._packed_graph is None:
            skeleton = self.skeleton
            n_word_bytes = self.world_layout.n_words * 8
            if skeleton.n_entries:
                coins = np.stack(self._world_coins)  # (M, n_bytes)
                bits = np.unpackbits(
                    coins, axis=1, count=skeleton.n_entries
                )
                # Pack down the worlds axis: byte j of entry e holds
                # worlds 8j..8j+7 MSB-first — exactly the
                # WorldLayout.pack convention, via one byte transpose
                # instead of a padded (n_entries, M) boolean pass.
                by_entry = np.packbits(bits, axis=0)  # (ceil(M/8), E)
                padded = np.zeros(
                    (n_word_bytes, skeleton.n_entries), dtype=np.uint8
                )
                padded[: by_entry.shape[0]] = by_entry
                arc_live = np.ascontiguousarray(padded.T).view(np.uint64)
            else:
                arc_live = np.zeros(
                    (0, self.world_layout.n_words), dtype=np.uint64
                )
            # Arcs dead in *every* world can never propagate a bit —
            # drop them once so each BFS level only gathers arcs that
            # exist somewhere (pruning cannot change reachability).
            somewhere_live = arc_live.any(axis=1)
            src = skeleton.src[somewhere_live]
            order = np.argsort(src, kind="stable")
            indices = skeleton.dst[somewhere_live][order]
            arc_live = arc_live[somewhere_live][order]
            counts = np.bincount(src, minlength=skeleton.n_pairs)
            indptr = np.zeros(skeleton.n_pairs + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._packed_graph = (indptr, indices, arc_live)
        return self._packed_graph

    # ------------------------------------------------------------------
    def restricted_importance(
        self, restrict_users: Iterable[int]
    ) -> np.ndarray:
        """Pair weights counting only adopters inside ``restrict_users``."""
        user_mask = np.zeros(self.n_users, dtype=bool)
        for user in restrict_users:
            user_mask[user] = True
        return self.pair_importance * np.repeat(user_mask, self.n_items)

    # ------------------------------------------------------------------
    def spread_stats(
        self,
        pairs: Sequence[int],
        restrict_users: Iterable[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-world spreads (and restricted spreads) of a nominee set.

        Reachability goes through :meth:`stacks_for`, so the sigma
        path shares the byte-budget LRU with selection (query
        workloads cannot grow the bank's memoization without bound)
        and miss blocks run through the multi-world BFS in one batch.
        The per-world union reuses one scratch buffer across the loop
        instead of allocating a copy per world.
        """
        spreads = np.zeros(self.n_worlds)
        restricted = (
            np.zeros(self.n_worlds) if restrict_users is not None else None
        )
        if pairs:
            weights = self.pair_importance
            restricted_weights = (
                self.restricted_importance(restrict_users)
                if restrict_users is not None
                else None
            )
            stacks = self.stacks_for(pairs)
            union = self._union_scratch
            for i in range(self.n_worlds):
                np.copyto(union, stacks[0][i])
                for stack in stacks[1:]:
                    np.bitwise_or(union, stack[i], out=union)
                mask = self.layout.unpack(union)
                spreads[i] = float(weights[mask].sum())
                if restricted is not None:
                    restricted[i] = float(restricted_weights[mask].sum())
        return spreads, restricted

    def sigma(self, pairs: Sequence[int]) -> float:
        """Mean importance-weighted spread of a nominee set."""
        return float(self.spread_stats(pairs)[0].mean())

    def stacked_reach_packed(self, pair: int) -> np.ndarray:
        """(n_worlds, n_words) packed reachability stack of one pair.

        Memoized in a byte-budget LRU — the coverage greedy evaluates
        the same candidates against an evolving covered set many
        times, but the memo must not grow without bound during
        selection.  Eviction drops the stack; a later query recomputes
        the identical one.  Read-only.
        """
        return self.stacks_for((pair,))[0]

    def stacks_for(self, pairs: Sequence[int]) -> list[np.ndarray]:
        """Packed reachability stacks of a candidate block (batched).

        Misses are computed up-front in one batch — in process, or
        fanned out in source chunks over a multi-worker pool — and
        then the per-pair LRU access sequence is replayed exactly as
        sequential :meth:`stacked_reach_packed` calls would run it, so
        hit / miss / eviction counters, byte accounting and recency
        order are bit-identical to the unbatched path whatever the
        backend.
        Returned arrays are the cached objects — read-only.
        """
        cache = self._stacked_packed
        missing = [
            pair for pair in dict.fromkeys(pairs) if pair not in cache
        ]
        computed = self._compute_stacks(missing)
        out = []
        for pair in pairs:
            cached = cache.get(pair)
            if cached is not None:
                self.reach_hits += 1
                cache.move_to_end(pair)
                out.append(cached)
                continue
            stacked = computed.get(pair)
            if stacked is None:
                # Cached during phase 1 but evicted by a later insert
                # of this very block (tiny budgets): recompute, exactly
                # as the sequential path would re-miss here.
                stacked = self._compute_stacks([pair])[pair]
            self._insert_stack(pair, stacked)
            out.append(stacked)
        return out

    def _shared_reach_graph(self) -> tuple:
        """The packed graph as task fields — shared-memory handles on a
        live process pool (exported once, released with the backend),
        the plain arrays everywhere else."""
        indptr, indices, arc_live = self._reach_graph()
        if not self._reach_shared:
            self._reach_shared = True
            self._reach_handles = share_task_arrays(
                {
                    "reach_indptr": indptr,
                    "reach_indices": indices,
                    "reach_arc_live": arc_live,
                },
                self._backend,
            )
        if self._reach_handles is not None and not self._backend.closed:
            handles = self._reach_handles
            return (
                handles["reach_indptr"],
                handles["reach_indices"],
                handles["reach_arc_live"],
            )
        return indptr, indices, arc_live

    def _compute_stacks(
        self, missing: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Reachability stacks of uncached pairs (multi-world BFS)."""
        if not missing:
            return {}
        backend = self._backend
        if (
            backend.workers == 1
            or len(missing) <= DEFAULT_CHUNK_SIZE
            or backend.closed
        ):
            # No second worker to feed (or a backend whose pool is
            # gone — e.g. a bank outliving a ``with backend:`` block):
            # the whole block runs in process as ONE multi-source BFS,
            # which is the fastest shape — per-level dispatch overhead
            # amortizes across all sources, and nothing is exported or
            # pickled.  Stacks are per-source deterministic, so
            # blocking is bit-identical to any chunking.
            indptr, indices, arc_live = self._reach_graph()
            stacks = reach_stacks(
                indptr,
                indices,
                arc_live,
                list(missing),
                self.layout,
                self.world_layout,
            )
            return dict(zip(missing, stacks))
        indptr, indices, arc_live = self._shared_reach_graph()
        task = ReachStacksTask(
            indptr=indptr,
            indices=indices,
            arc_live=arc_live,
            pair_layout=self.layout,
            world_layout=self.world_layout,
            sources=tuple(missing),
        )
        # One chunk per worker: each chunk runs as multi-source BFS
        # blocks, so bigger chunks amortize the per-level dispatch —
        # and, on process pools, the per-chunk task pickle.  Chunking
        # never affects results: stacks are per-source deterministic
        # and map_chunks preserves order.
        stacks = itertools.chain.from_iterable(
            backend.map_chunks(
                reach_stacks_chunk, task, worker_chunks(len(missing), backend)
            )
        )
        return dict(zip(missing, stacks))

    def _insert_stack(self, pair: int, stacked: np.ndarray) -> None:
        """Account one freshly computed stack into the LRU (a miss)."""
        self.reach_misses += 1
        self._stacked_packed[pair] = stacked
        self._stacked_bytes += stacked.nbytes
        if self.reach_budget_bytes is not None:
            # Never evict the entry just inserted (len > 1): a budget
            # smaller than one stack would otherwise thrash — insert,
            # self-evict, re-BFS — on every single query.
            while (
                self._stacked_bytes > self.reach_budget_bytes
                and len(self._stacked_packed) > 1
            ):
                _, evicted = self._stacked_packed.popitem(last=False)
                self._stacked_bytes -= evicted.nbytes
                self.reach_evictions += 1

    def reach_stats(self) -> "ReachCacheStats":
        """Point-in-time counters of the stacked-reach LRU."""
        return ReachCacheStats(
            hits=self.reach_hits,
            misses=self.reach_misses,
            evictions=self.reach_evictions,
            bytes_in_use=self._stacked_bytes,
            budget_bytes=self.reach_budget_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RealizationBank(worlds={self.n_worlds}, "
            f"pairs={self.skeleton.n_pairs}, "
            f"coins={self.skeleton.n_entries})"
        )
