"""Unified selection layer: one batched gain oracle behind every greedy.

Every selection procedure in the repo — Dysim's nominee MCP (Lemma 3),
the composite SMK of Theorem 3, the seven baselines, the coverage fast
path — reduces to the same primitive: *rank candidates by marginal gain
(per cost) and commit the best*.  Before this module each consumer
carried its own loop, each evaluating one candidate per oracle call.
Here the primitive is factored into

* a :class:`GainOracle` protocol — ``gains(candidates)`` answers a
  whole block of marginal gains in one call, ``commit(candidate)``
  advances the selection;
* :class:`CoverageGainOracle` and :class:`RRCoverageGainOracle` —
  exact coverage gains over a realization bank or an RR-set index,
  on packed ``uint64`` bitset words (``np.bitwise_count`` with an
  ``unpackbits`` fallback for numpy<2), evaluating a block of
  candidates per call via blockwise mask-and-popcount instead of one
  boolean temporary per candidate;
* :class:`MonteCarloGainOracle` — sigma-difference gains from a
  :class:`~repro.diffusion.montecarlo.SigmaEstimator`, playing each
  uncached candidate block as one dispatch over the execution backend;
* :func:`mcp_lazy_greedy` — the single CELF implementation, batched
  re-evaluation of the top-B stale heap entries per round.

Bit-identity contract
---------------------
``mcp_lazy_greedy`` commits candidates in *exactly* the order the
scalar CELF loop would.  When a stale entry reaches the top, it and
the run of stale entries directly below it are drained and re-keyed
through one oracle call, and the scalar pop sequence is replayed
locally: the drained entries were consecutive heap minima, so the
next scalar pop is either the next drained entry under its *stale*
key or the smallest re-keyed entry, whichever compares lower.  A
re-keyed entry that wins is fresh and commits; the not-yet-re-keyed
suffix goes back into the heap with its stale keys and its
speculative gains are discarded.  A candidate is therefore committed
only when the scalar loop would pop it fresh at the top — whatever
the oracle's noise or non-submodularity.  Tie-breaking is by universe
order (the ``order`` component of the heap key), which is
load-bearing: the pinned-seed goldens compare selections exactly, and
equal-ratio candidates must keep resolving to the earlier universe
entry.

Packed-word layout
------------------
:class:`PairLayout` stores the ``n_users * n_items`` pair universe
item-major with each item's users padded to a multiple of 64, so every
``uint64`` word holds pairs of a single item.  A weighted coverage sum
is then ``per-item popcounts @ importance`` — and the boolean scalar
reference of ``tests/reference`` computes the same ``(counts per item)
@ importance`` contraction, which is what makes batched packed gains
*bit-identical* to the scalar reference, not merely approximately
equal.

Batching
--------
``DEFAULT_GAIN_BATCH``
    How many stale CELF heap entries :func:`mcp_lazy_greedy`
    re-evaluates per oracle call.  Batching is a prefetch, so any
    value produces the identical selection; ``mcp_lazy_greedy``'s
    ``batch_size`` argument lets tests drive other sizes.
``prefetch_limit``
    Oracle *attribute* capping how many entries a batch may prefetch:
    ``None`` means "no cap" (cheap oracles — coverage over a bank),
    ``1`` degenerates to the scalar CELF loop.
    :class:`MonteCarloGainOracle` derives it from its backend's worker
    count, so a process pool prefetches one candidate per worker and a
    serial backend never wastes a speculative sigma estimate.  Custom
    oracles opt in by exposing the attribute; absent means uncapped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Protocol, Sequence

import numpy as np

from repro.core.problem import Seed, SeedGroup
from repro.errors import AlgorithmError

__all__ = [
    "DEFAULT_GAIN_BATCH",
    "GreedyResult",
    "GainOracle",
    "FunctionGainOracle",
    "CoverageGainOracle",
    "MonteCarloGainOracle",
    "RRCoverageGainOracle",
    "PairLayout",
    "first_strict_argmax",
    "mcp_lazy_greedy",
    "popcount_words",
]

#: How many candidates a gain oracle is asked to answer per call —
#: both when priming the CELF heap and when re-evaluating stale
#: entries.  Batching is a prefetch, so the value trades oracle
#: vectorization against wasted evaluations near the end of a round;
#: it can never change the selection.
DEFAULT_GAIN_BATCH = 32


@dataclass
class GreedyResult:
    """Output of a greedy pass.

    Attributes
    ----------
    selected:
        Chosen elements in pick order.
    value:
        ``f(selected)``.
    total_cost:
        Sum of element costs.
    n_oracle_calls:
        Candidate-gain evaluations plus the conventional ``f(empty)``
        call (the paper counts complexity in function calls).  Batched
        prefetching may evaluate slightly more candidates than the
        strictly lazy scalar loop; the count reports work actually
        done.
    """

    selected: list[Hashable]
    value: float
    total_cost: float
    n_oracle_calls: int


class GainOracle(Protocol):
    """Batched marginal-gain evaluator over a growing selection.

    ``gains`` answers a whole candidate block against the *committed*
    selection; ``commit`` advances the selection by one element.  The
    ``value`` attribute tracks ``f(selected)`` exactly as the scalar
    greedy would accumulate it (so downstream comparisons replicate the
    scalar arithmetic bit for bit), and ``n_evaluations`` counts
    candidate-gain evaluations for CELF accounting.
    """

    value: float
    n_evaluations: int

    #: Cap on how many *stale heap entries* the engine may prefetch
    #: per oracle call (None = the engine's batch size).  Prefetched
    #: gains can be discarded on the next commit, so an oracle whose
    #: evaluations are expensive and unvectorized (Monte-Carlo on a
    #: serial backend) advertises 1 — heap priming is unaffected, it
    #: has no waste.
    prefetch_limit: int | None

    def gains(self, candidates: Sequence) -> np.ndarray:
        """Marginal gains of ``candidates`` w.r.t. the selection."""
        ...

    def commit(
        self, candidate, gain: float | None = None, *, value: float | None = None
    ) -> None:
        """Add ``candidate``; update ``value`` by ``gain`` or to ``value``."""
        ...


# ---------------------------------------------------------------------------
# packed bitset kernel
# ---------------------------------------------------------------------------

#: numpy >= 2 has a vectorized popcount ufunc; older versions fall
#: back to ``unpackbits`` over the byte view (identical integer
#: counts, hence bit-identical downstream floats).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_unpackbits(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via ``np.unpackbits`` (numpy<2 fallback)."""
    contiguous = np.ascontiguousarray(words)
    as_bytes = contiguous.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1)
    return bits.reshape(*words.shape, 64).sum(axis=-1, dtype=np.int64)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Population count of each ``uint64`` word, as ``int64``.

    Bit counts are order-agnostic, so the two implementations agree
    exactly — the numpy-compat CI leg exercises the fallback.
    """
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    return _popcount_unpackbits(words)


class PairLayout:
    """Item-major packed-word layout of the (user, item) pair universe.

    Pair ``(u, x)`` (flat index ``u * n_items + x``) lives at bit
    ``x * padded_users + u`` where ``padded_users`` rounds ``n_users``
    up to a multiple of 64.  Every 64-bit word therefore holds users of
    a *single* item, so any importance-weighted coverage sum reduces to
    per-item popcounts dotted with the importance vector — the
    contraction both the packed kernel and the boolean scalar
    reference share (bit-identical floats).
    """

    def __init__(self, n_users: int, n_items: int, importance: np.ndarray):
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.importance = np.asarray(importance, dtype=float)
        if self.importance.shape != (self.n_items,):
            raise ValueError(
                f"importance must have shape ({self.n_items},), "
                f"got {self.importance.shape}"
            )
        self.words_per_item = max(1, -(-self.n_users // 64))
        self.padded_users = self.words_per_item * 64
        self.n_words = self.n_items * self.words_per_item
        self.n_pairs = self.n_users * self.n_items

    # -- packing -------------------------------------------------------
    def pack(self, mask: np.ndarray) -> np.ndarray:
        """Pack a boolean pair mask ``(..., n_pairs)`` into words."""
        mask = np.asarray(mask, dtype=bool)
        lead = mask.shape[:-1]
        by_item = mask.reshape(*lead, self.n_users, self.n_items)
        by_item = np.swapaxes(by_item, -1, -2)  # (..., n_items, n_users)
        padded = np.zeros(
            (*lead, self.n_items, self.padded_users), dtype=bool
        )
        padded[..., : self.n_users] = by_item
        packed = np.packbits(padded, axis=-1)  # uint8, big-endian bits
        words = np.ascontiguousarray(packed).view(np.uint64)
        return words.reshape(*lead, self.n_words)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """Invert :meth:`pack` back to a boolean pair mask."""
        words = np.asarray(words, dtype=np.uint64)
        lead = words.shape[:-1]
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=-1).astype(bool)
        by_item = bits.reshape(*lead, self.n_items, self.padded_users)
        by_item = by_item[..., : self.n_users]
        by_user = np.swapaxes(by_item, -1, -2)
        return np.ascontiguousarray(by_user).reshape(*lead, self.n_pairs)

    # -- weighted coverage ---------------------------------------------
    def item_counts(self, words: np.ndarray) -> np.ndarray:
        """Per-item set-bit counts ``(..., n_items)`` of packed words."""
        counts = popcount_words(words)
        return counts.reshape(
            *words.shape[:-1], self.n_items, self.words_per_item
        ).sum(axis=-1)

    def item_counts_bool(self, mask: np.ndarray) -> np.ndarray:
        """Per-item counts of a boolean pair mask (scalar reference)."""
        mask = np.asarray(mask, dtype=bool)
        return mask.reshape(
            *mask.shape[:-1], self.n_users, self.n_items
        ).sum(axis=-2, dtype=np.int64)

    def weighted_sum(self, counts: np.ndarray) -> np.ndarray:
        """``counts @ importance`` — the shared float contraction.

        Both the packed kernel and the boolean reference funnel their
        integer per-item counts through this one matmul, which is what
        makes their gains bit-identical.
        """
        return counts.astype(float) @ self.importance


# ---------------------------------------------------------------------------
# gain oracles
# ---------------------------------------------------------------------------
class FunctionGainOracle:
    """Adapter: a classic value oracle ``f(frozenset) -> float``.

    Evaluates ``f(empty)`` once on first use (the conventional call
    every greedy counts — deferred past input validation so an invalid
    budget or cost never triggers oracle work) and answers candidate
    blocks by re-unioning the selection — exactly what the scalar
    :func:`~repro.core.submodular.budgeted_lazy_greedy` loop did, so
    values and call counts are unchanged.
    """

    #: One candidate per call: value oracles are plain Python — no
    #: vectorization, no backend — so speculative stale-entry
    #: prefetching is pure waste; with this limit the engine's call
    #: counts match the historical scalar loop *exactly*.
    prefetch_limit = 1

    def __init__(self, oracle: Callable[[frozenset], float]):
        self._f = oracle
        self._selected: frozenset = frozenset()
        self._value: float | None = None
        self.n_evaluations = 0

    @property
    def value(self) -> float:
        if self._value is None:
            self._value = float(self._f(frozenset()))
        return self._value

    @value.setter
    def value(self, new_value: float) -> None:
        self._value = float(new_value)

    def gains(self, candidates: Sequence) -> np.ndarray:
        base = self.value
        out = np.empty(len(candidates))
        for i, element in enumerate(candidates):
            out[i] = self._f(self._selected | {element}) - base
        self.n_evaluations += len(candidates)
        return out

    def commit(
        self, candidate, gain: float | None = None, *, value: float | None = None
    ) -> None:
        self._selected = self._selected | {candidate}
        if value is not None:
            self.value = value
        else:
            self.value = self.value + float(gain)


class _PackedCoverageGainOracle:
    """Bookkeeping shared by the packed coverage gain oracles.

    Subclasses answer ``gains`` and name, through :meth:`_row`, the
    packed row a commit ORs into the covered words; the selection
    value, the evaluation count and the ``(user, item)`` -> pair
    mapping live here.  ``family`` (a realization bank or an RR-set
    index) is duck-typed through ``pair_index``, keeping this module
    free of sketch imports.
    """

    #: Unlimited prefetch: a block of packed gains costs barely more
    #: than one, so wasted speculative evaluations are nearly free.
    prefetch_limit = None

    def __init__(self, family, covered: np.ndarray):
        self.family = family
        self._covered = covered
        self.value = 0.0
        self.n_evaluations = 0

    def _pair(self, element) -> int:
        if isinstance(element, tuple):
            return self.family.pair_index(*element)
        return int(element)

    def _row(self, pair: int) -> np.ndarray:
        """Packed words that committing ``pair`` adds to the cover."""
        raise NotImplementedError

    def commit(
        self, candidate, gain: float | None = None, *, value: float | None = None
    ) -> None:
        self._covered |= self._row(self._pair(candidate))
        if value is not None:
            self.value = value
        else:
            self.value += float(gain)


class CoverageGainOracle(_PackedCoverageGainOracle):
    """Exact coverage gains over a packed realization bank.

    One call answers a whole candidate block: the block's packed
    reachability stacks come back from the bank's batched
    ``stacks_for`` — cached stacks are handed over without any
    conversion, and miss candidates run through the bank's
    reachability kernel (the bit-parallel multi-world BFS by default)
    in one fan-out — then the block is ANDed against the complement
    of the packed covered mask, per-item popcounts contracted with
    the importance vector, and averaged over worlds: no
    ``(n_worlds, n_pairs)`` boolean temporary per candidate, no
    per-world Python BFS per miss.  Gains are bit-identical to the
    boolean scalar reference of ``tests/reference`` because both
    reduce through :meth:`PairLayout.weighted_sum`.
    """

    def __init__(self, bank):
        self.layout: PairLayout = bank.layout
        super().__init__(
            bank,
            np.zeros((bank.n_worlds, self.layout.n_words), dtype=np.uint64),
        )

    def gains(self, candidates: Sequence) -> np.ndarray:
        pairs = [self._pair(element) for element in candidates]
        # One bank call resolves the whole block: cached stacks are
        # handed over without conversion, misses run through the
        # bank's reach kernel in a single batched BFS.
        stacked = np.stack(self.family.stacks_for(pairs))
        fresh = stacked & ~self._covered[None, :, :]
        weighted = self.layout.weighted_sum(self.layout.item_counts(fresh))
        self.n_evaluations += len(pairs)
        return weighted.mean(axis=-1)

    def _row(self, pair: int) -> np.ndarray:
        return self.family.stacked_reach_packed(pair)


class RRCoverageGainOracle(_PackedCoverageGainOracle):
    """Exact coverage gains over a packed RR-set membership index.

    The RIS dual of :class:`CoverageGainOracle`: instead of unioning
    forward-reachability stacks across worlds, the marginal gain of a
    candidate is the number of *RR samples* its membership row adds
    beyond the covered set, scaled by ``W / R`` (see
    :mod:`repro.sketch.rrset`).  One popcount over
    ``row & ~covered`` per candidate — cost independent of the graph
    size once the index exists — and gains are *exactly* monotone and
    submodular on the fixed sample family, so the CELF lazy heap
    commits without any stale-bound surprises.

    ``index`` is duck-typed (``membership`` / ``n_words`` /
    ``n_samples`` / ``total_importance`` / ``pair_index``).
    """

    def __init__(self, index):
        super().__init__(index, np.zeros(index.n_words, dtype=np.uint64))
        self._scale = index.total_importance / index.n_samples

    def gains(self, candidates: Sequence) -> np.ndarray:
        pairs = np.array(
            [self._pair(element) for element in candidates], dtype=np.int64
        )
        fresh = self.family.membership(pairs) & ~self._covered[None, :]
        counts = popcount_words(fresh).sum(axis=-1)
        self.n_evaluations += len(pairs)
        return counts.astype(float) * self._scale

    def _row(self, pair: int) -> np.ndarray:
        return self.family.membership([pair])[0]


def _default_seeds_of(element) -> tuple[Seed, ...]:
    user, item = element
    return (Seed(user, item, 1),)


class MonteCarloGainOracle:
    """Sigma-difference gains from a (possibly coverage) sigma estimator.

    Candidate blocks are answered by the estimator's
    :meth:`~repro.diffusion.montecarlo.SigmaEstimator.estimate_block`:
    cached estimates are served from its
    :class:`~repro.engine.cache.SigmaCache`; for a plain Monte-Carlo
    estimator the misses play as one block on the estimator's
    execution backend, one balanced range of their replications per
    worker.  Every estimate is bit-identical to
    ``estimator.estimate(...)`` and lands in the same cache under the
    same key.

    Parameters
    ----------
    estimator:
        The frozen-phase sigma estimator (MC or sketch).
    seeds_of:
        Maps a universe element to its seeds; defaults to a (user,
        item) pair seeded in promotion 1.
    until_promotion:
        Horizon forwarded to every estimate (selection phases use 1).
    sort_selection:
        True — trial groups enumerate ``sorted(set(selected) | {c})``
        (nominee / classic-CELF convention); False — trial groups
        extend the committed group in pick order (HAG / BGRD / DRHGA
        convention).  Matching the consumer's historical group
        construction keeps estimates bit-identical.
    """

    def __init__(
        self,
        estimator,
        *,
        seeds_of: Callable[[Hashable], Iterable[Seed]] | None = None,
        until_promotion: int | None = 1,
        sort_selection: bool = True,
    ):
        self.estimator = estimator
        self.until_promotion = until_promotion
        self.sort_selection = bool(sort_selection)
        self._seeds_of = seeds_of or _default_seeds_of
        self._selected: list = []
        self._base: SeedGroup | None = None  # insertion-order cache
        self.value = 0.0
        self.n_evaluations = 0

    @property
    def prefetch_limit(self) -> int:
        """One candidate per worker.

        Speculative stale-entry prefetching is only worth full sigma
        evaluations while idle workers absorb them: a pool prefetches
        one candidate per worker, and the serial backend (one worker)
        re-evaluates one candidate at a time (the historical scalar
        call counts).
        """
        return self.estimator.backend.workers

    # -- group construction (must mirror each consumer exactly) --------
    def _base_group(self) -> SeedGroup:
        # Rebuilt once per commit, not once per candidate: a values()
        # block over c candidates unions each onto this shared base
        # (SeedGroup.union copies, so the cache is never mutated).
        if self._base is None:
            group = SeedGroup()
            for element in self._selected:
                group.extend(self._seeds_of(element))
            self._base = group
        return self._base

    def group_with(self, candidate) -> SeedGroup:
        """The trial seed group ``selected + candidate``."""
        if self.sort_selection:
            elements = sorted(set(self._selected) | {candidate})
            group = SeedGroup()
            for element in elements:
                group.extend(self._seeds_of(element))
            return group
        return self._base_group().union(self._seeds_of(candidate))

    # -- GainOracle ----------------------------------------------------
    def values(self, candidates: Sequence) -> np.ndarray:
        """Raw trial-group sigmas (consumers comparing absolute values)."""
        groups = [self.group_with(candidate) for candidate in candidates]
        self.n_evaluations += len(candidates)
        return self.estimator.estimate_block(
            groups, until_promotion=self.until_promotion
        )

    def gains(self, candidates: Sequence) -> np.ndarray:
        return self.values(candidates) - self.value

    def commit(
        self, candidate, gain: float | None = None, *, value: float | None = None
    ) -> None:
        self._selected.append(candidate)
        self._base = None
        if value is not None:
            self.value = value
        else:
            self.value += float(gain)


def first_strict_argmax(
    values: Iterable[float], best_value: float
) -> tuple[int | None, float]:
    """Scan for the first value strictly above the running best.

    This replicates the scalar baselines' ``value > best_value``
    comparison loops exactly (including how exact ties resolve to the
    earliest candidate), so batching the evaluations cannot change a
    pick.
    """
    best_index: int | None = None
    for i, value in enumerate(values):
        if value > best_value:
            best_index, best_value = i, float(value)
    return best_index, best_value


# ---------------------------------------------------------------------------
# the one CELF implementation
# ---------------------------------------------------------------------------
def mcp_lazy_greedy(
    universe: Sequence[Hashable],
    oracle: GainOracle,
    cost: Callable[[Hashable], float],
    budget: float,
    *,
    allow_budget_violation_by_last: bool = False,
    stop_on_negative_gain: bool = True,
    batch_size: int = DEFAULT_GAIN_BATCH,
) -> GreedyResult:
    """Greedy by marginal gain per cost under a knapsack budget.

    The paper's MCP rule (Procedure 2) with CELF-style lazy
    re-evaluation, shared by every selection phase in the repo.  Gains
    are fetched from the oracle in blocks of ``batch_size``: the heap
    is primed blockwise, and when a stale entry reaches the top the
    next stale entries below it are prefetched in the same oracle
    call.  Prefetching never changes the committed sequence — see the
    module docstring's bit-identity contract.

    Parameters
    ----------
    allow_budget_violation_by_last:
        Lemma 3 analyses the greedy that stops *just after* violating
        the budget; pass True to reproduce that variant (the returned
        set may exceed the budget by its final element).
    stop_on_negative_gain:
        Stop when the best available marginal gain is not strictly
        positive (case 2 of Lemma 3 covers the negative case; zero
        gains are also skipped because they only burn budget).
        Procedure 2's "while any affordable nominee remains" variant
        passes False.
    """
    if budget <= 0:
        raise AlgorithmError(f"budget must be positive, got {budget}")
    if batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {batch_size}")
    batch = int(batch_size)
    # Stale-entry prefetching may evaluate candidates the scalar loop
    # never would; oracles whose evaluations are expensive and
    # unvectorized cap it.  Heap priming below is exempt — every
    # candidate needs its initial gain, so full blocks are free there.
    limit = getattr(oracle, "prefetch_limit", None)
    stale_batch = batch if limit is None else max(1, min(batch, limit))

    elements = list(universe)
    costs: list[float] = []
    for element in elements:
        element_cost = cost(element)
        if element_cost <= 0:
            raise AlgorithmError(f"cost of {element!r} must be positive")
        costs.append(element_cost)

    evaluations_before = oracle.n_evaluations
    current_value = float(oracle.value)

    # Heap entries: (-ratio, tie_breaker, element, evaluated_at_size).
    # Primed as a flat list + one heapify: keys are distinct (the
    # tie_breaker), so the pop sequence is identical to element-wise
    # pushes whatever the internal array layout.
    heap: list[tuple[float, int, Hashable, int]] = []
    for start in range(0, len(elements), batch):
        block = elements[start : start + batch]
        gains = oracle.gains(block)
        for offset, gain in enumerate(gains):
            order = start + offset
            heap.append(
                (-float(gain) / costs[order], order, block[offset], 0)
            )
    heapq.heapify(heap)

    selected: list[Hashable] = []
    spent = 0.0

    while heap:
        neg_ratio, order, element, evaluated_at = heapq.heappop(heap)
        element_cost = costs[order]
        over_budget = spent + element_cost > budget
        if over_budget and not allow_budget_violation_by_last:
            continue  # element no longer affordable; try others
        size = len(selected)
        if evaluated_at != size:
            # Heap-batch drain: this stale entry plus the run of stale
            # entries at the heap top share one oracle call — same pop
            # order and affordability drops as the one-pop loop.  A
            # fresh entry terminates the drain and goes straight back.
            drained: list[tuple[float, int, Hashable, int]] = [
                (neg_ratio, order, element, evaluated_at)
            ]
            while heap and len(drained) < stale_batch:
                entry = heapq.heappop(heap)
                if (
                    spent + costs[entry[1]] > budget
                    and not allow_budget_violation_by_last
                ):
                    continue  # drop now; spend only ever grows
                if entry[3] == size:
                    heapq.heappush(heap, entry)
                    break
                drained.append(entry)
            fresh_gains = oracle.gains([e[2] for e in drained])
            # Replay the scalar pop sequence locally instead of
            # bouncing entries through the global heap one at a time.
            # The drained entries were consecutive heap minima, so
            # until all of them re-key, the scalar loop's next pop is
            # either the next stale drained key or the smallest
            # re-keyed key — whichever key-compares lower.  A re-keyed
            # entry that interposes is fresh, so it commits; the
            # not-yet-re-keyed suffix then keeps its stale keys and
            # its just-computed gains are discarded, exactly as the
            # one-pop loop's prefetch cache was cleared on commit.
            # Gains at a fixed selection are deterministic, so the
            # committed sequence cannot drift (the bit-identity
            # contract pinned by tests/core/test_selection.py).
            rekeyed: list[tuple[float, int, Hashable, int]] = [
                (
                    -float(fresh_gains[0]) / costs[drained[0][1]],
                    drained[0][1],
                    drained[0][2],
                    size,
                )
            ]
            commit_entry: tuple[float, int, Hashable, int] | None = None
            next_stale = 1
            while next_stale < len(drained):
                if rekeyed[0][:2] < drained[next_stale][:2]:
                    commit_entry = heapq.heappop(rekeyed)
                    break
                _, order2, element2, _ = drained[next_stale]
                heapq.heappush(
                    rekeyed,
                    (
                        -float(fresh_gains[next_stale]) / costs[order2],
                        order2,
                        element2,
                        size,
                    ),
                )
                next_stale += 1
            heap.extend(rekeyed)
            heap.extend(drained[next_stale:])
            heapq.heapify(heap)
            if commit_entry is None:
                continue
            neg_ratio, order, element, evaluated_at = commit_entry
            element_cost = costs[order]
            over_budget = spent + element_cost > budget
        gain = -neg_ratio * element_cost
        if stop_on_negative_gain and gain <= 1e-12:
            break
        selected.append(element)
        oracle.commit(element, gain)
        current_value += gain
        spent += element_cost
        if over_budget:
            break  # the Lemma 3 variant stops right after violating

    return GreedyResult(
        selected=selected,
        value=current_value,
        total_cost=spent,
        n_oracle_calls=1 + (oracle.n_evaluations - evaluations_before),
    )
