"""RR-set (reverse-reachable) sigma oracle for frozen dynamics.

The realization bank answers sigma by *forward* reachability: every
candidate pays one reachability stack per world, so selection cost
grows with candidates x worlds and tops out far below paper-scale
graphs.  The RIS/IMM family inverts that cost.  Sample a *root* pair
``p`` with probability proportional to its importance ``w_p``, realize
the coins of one frozen world, and collect the set of pairs that can
reach ``p`` through live edges — a **reverse-reachable (RR) set**.
Then for any seed set ``S``

    sigma(S) = W * P(S intersects a random RR set),        W = sum_p w_p

(the importance-weighted generalization of the classic RIS identity:
conditioning on the root, ``P(S reaches p) = P(S hits RR(p))``, and
the importance-proportional root choice turns the weighted sum over
roots into one expectation).  With ``R`` sampled RR sets the estimate
``W * (#covered) / R`` is unbiased for *any* candidate set — sampling
happens once per (instance, seed-stream, R), selection is coverage
counting.  Hoeffding gives ``|est - sigma| <= eps * W`` with
probability ``1 - delta`` once ``R >= log(2/delta) / (2 eps^2)``
(:func:`suggest_sample_count`).

Sampling discipline (pinned by ``tests/property/test_rrset_oracle.py``
— changing it changes every estimate):

* the coin universe is the *same* canonical
  :class:`~repro.sketch.bank.ProbabilitySkeleton` the realization bank
  flips, reversed into a by-target CSR (stable argsort of ``dst``, so
  in-arcs of a pair keep skeleton entry order);
* sample ``i`` draws from the substream
  ``spawn_rng(rng_seed, *rng_context, i)`` (CRN discipline of the
  engine): first one scalar uniform for the root, then one
  ``rng.random(k)`` per backward-BFS level over the frontier's ``k``
  in-arcs in frontier-discovery order.  A pair enters the frontier at
  most once, so each coin is flipped at most once per sample —
  consistent-world sampling, and the draw count is independent of the
  backend or chunking (:meth:`ExecutionBackend.map_chunks` fans chunks
  out and reassembles in order, so indexes are bit-reproducible
  across serial / thread / process backends).

Storage: RR membership is transposed into packed ``uint64`` words per
pair — bit ``i & 63`` of word ``i >> 6`` of row ``p`` says sample ``i``
contains pair ``p`` — so a marginal coverage gain is a popcount over
``member[p] & ~covered``, the same packed-word idiom as
:class:`~repro.core.selection.PairLayout` (here the packed axis is the
*sample* axis, not the pair axis, because coverage queries reduce over
samples).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.core.selection import popcount_words
from repro.core.submodular import GreedyResult
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.engine.backends import ExecutionBackend, resolve_backend
from repro.engine.cache import SigmaCache
from repro.engine.shm import (
    release_task_arrays,
    resolve_array,
    share_task_arrays,
)
from repro.engine.replication import DEFAULT_CHUNK_SIZE, chunk_indices
from repro.errors import SketchError
from repro.sketch.bank import (
    DEFAULT_EXTRA_ADOPTION_FLOOR,
    ProbabilitySkeleton,
    build_skeleton,
)
from repro.utils.rng import RngFactory, spawn_rng

__all__ = [
    "RRSampleTask",
    "RRSetIndex",
    "RRSetSigmaEstimator",
    "sample_rrsets_chunk",
    "suggest_sample_count",
]


def suggest_sample_count(epsilon: float, delta: float) -> int:
    """Samples for ``|est - sigma| <= epsilon * W`` w.p. ``1 - delta``.

    Hoeffding on the per-sample values ``W * 1[covered] in [0, W]``:
    ``R >= log(2 / delta) / (2 epsilon^2)``.  This bounds the *fixed
    set* estimate; greedy selection over ``n`` candidates should pass
    ``delta / n`` (union bound).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)))


@dataclass
class RRSampleTask:
    """Everything a worker needs to sample RR sets (picklable).

    The reversed skeleton ships as plain arrays — by-target CSR over
    pair indices — so process workers never unpickle the instance.
    ``importance_cum`` is the inclusive cumsum of the per-pair
    importance (the root-sampling distribution).  Under a process
    backend the array fields hold
    :class:`~repro.engine.shm.SharedArrayHandle` pointers instead
    (:func:`~repro.engine.shm.share_task_arrays`): the reversed
    skeleton scales with arcs x items, so at 10^6 users it must cross
    the process boundary by page table, not by pipe.
    """

    n_pairs: int
    rev_indptr: np.ndarray
    rev_src: np.ndarray
    rev_prob: np.ndarray
    importance_cum: np.ndarray
    rng_seed: int
    rng_context: tuple


def sample_rrsets_chunk(
    task: RRSampleTask, indices: Sequence[int]
) -> list[tuple[int, np.ndarray]]:
    """Sample RR sets ``indices`` (module-level: picklable).

    Returns ``(root, sorted pair indices)`` per sample, in index
    order.  Sample ``i`` consumes exactly one scalar uniform (root)
    plus one ``rng.random(k)`` per backward-BFS level from the
    substream ``spawn_rng(rng_seed, *rng_context, i)`` — a function of
    ``i`` alone, so any chunking of the index range reproduces the
    same sets bit for bit.
    """
    rev_indptr = resolve_array(task.rev_indptr)
    rev_src = resolve_array(task.rev_src)
    rev_prob = resolve_array(task.rev_prob)
    importance_cum = resolve_array(task.importance_cum)
    total = float(importance_cum[-1])
    # One visited buffer for the whole chunk, sparsely reset per
    # sample — RR sets are tiny next to n_pairs on sparse graphs.
    visited = np.zeros(task.n_pairs, dtype=bool)
    out: list[tuple[int, np.ndarray]] = []
    for i in indices:
        rng = spawn_rng(task.rng_seed, *task.rng_context, i)
        root = int(
            np.searchsorted(
                importance_cum, rng.random() * total, side="right"
            )
        )
        visited[root] = True
        levels = [np.array([root], dtype=np.int64)]
        frontier = levels[0]
        while frontier.size:
            starts = rev_indptr[frontier]
            counts = rev_indptr[frontier + 1] - starts
            k = int(counts.sum())
            if k == 0:
                break
            # In-arc indices of the frontier, concatenated in
            # frontier order (within a pair: skeleton entry order).
            ends = np.cumsum(counts)
            offsets = np.repeat(ends - counts, counts)
            arcs = np.repeat(starts, counts) + np.arange(k) - offsets
            live = rng.random(k) < rev_prob[arcs]
            candidates = rev_src[arcs[live]]
            fresh = candidates[~visited[candidates]]
            if not fresh.size:
                break
            # First-occurrence dedup keeps frontier-discovery order.
            _, first = np.unique(fresh, return_index=True)
            frontier = fresh[np.sort(first)]
            visited[frontier] = True
            levels.append(frontier)
        members = np.concatenate(levels)
        visited[members] = False
        members.sort()
        out.append((root, members))
    return out


class RRSetIndex:
    """A fixed family of RR sets answering coverage sigma queries.

    Parameters
    ----------
    skeleton:
        Canonical coin list (:func:`~repro.sketch.bank.build_skeleton`
        output — the *same* skeleton the realization bank flips).
    n_users / n_items / item_importance:
        Pair-universe geometry and the per-item weights behind the
        root distribution.
    n_samples:
        How many RR sets to sample — the coverage analogue of the
        Monte-Carlo sample count ``M`` (see
        :func:`suggest_sample_count` for an (epsilon, delta) sizing).
    rng_seed / rng_context:
        Substream family; sample ``i`` draws from
        ``spawn_rng(rng_seed, *rng_context, i)``.  Two indexes sharing
        these (and the skeleton) hold the same sets.
    backend / workers / chunk_size:
        Where sampling fans out (canonical chunks, order-preserving —
        indexes are backend-independent).
    """

    def __init__(
        self,
        skeleton: ProbabilitySkeleton,
        n_users: int,
        n_items: int,
        item_importance: np.ndarray,
        n_samples: int = 256,
        rng_seed: int = 0,
        rng_context: tuple = ("rrset",),
        backend: ExecutionBackend | str | None = None,
        workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.skeleton = skeleton
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.n_pairs = self.n_users * self.n_items
        if skeleton.n_pairs != self.n_pairs:
            raise SketchError(
                f"skeleton covers {skeleton.n_pairs} pairs, layout "
                f"expects {self.n_pairs}"
            )
        self.n_samples = int(n_samples)
        self.rng_seed = int(rng_seed)
        self.rng_context = tuple(rng_context)
        self.item_importance = np.asarray(item_importance, dtype=float)
        if self.item_importance.shape != (self.n_items,):
            raise ValueError(
                f"item_importance must have shape ({self.n_items},), "
                f"got {self.item_importance.shape}"
            )
        #: Importance of the item behind each pair index — the root
        #: distribution's (unnormalized) weights.
        self.pair_importance = np.tile(self.item_importance, self.n_users)
        importance_cum = np.cumsum(self.pair_importance)
        self.total_importance = float(importance_cum[-1])
        if self.total_importance <= 0.0:
            raise SketchError("total pair importance must be positive")

        # Reverse the skeleton into a by-target CSR.  The stable
        # argsort keeps in-arcs of a pair in skeleton entry order —
        # part of the pinned draw contract.
        order = np.argsort(skeleton.dst, kind="stable")
        rev_src = skeleton.src[order]
        rev_prob = skeleton.prob[order]
        counts = np.bincount(skeleton.dst, minlength=self.n_pairs)
        rev_indptr = np.zeros(self.n_pairs + 1, dtype=np.int64)
        np.cumsum(counts, out=rev_indptr[1:])

        self._backend = resolve_backend(backend, workers)
        # Process pools pickle the task per chunk; swap the skeleton-
        # sized arrays for shared-memory handles so each worker maps
        # them once instead of receiving copies down a pipe.  Nothing
        # ships them after sampling, so the export goes right then.
        task_arrays = {
            "rev_indptr": rev_indptr,
            "rev_src": rev_src,
            "rev_prob": rev_prob,
            "importance_cum": importance_cum,
        }
        shared = share_task_arrays(task_arrays, self._backend)
        if shared is not None:
            task_arrays = shared
        task = RRSampleTask(
            n_pairs=self.n_pairs,
            rng_seed=self.rng_seed,
            rng_context=self.rng_context,
            **task_arrays,
        )
        # The task arrays scale with the skeleton (hundreds of MB at
        # 10^6 users), and process pools pickle the task once per
        # chunk — so never cut more chunks than workers.  The chunk
        # partition is invisible in the results: sample i draws from a
        # substream keyed by i alone, and chunks reassemble in order.
        pool_workers = getattr(self._backend, "workers", 1) or 1
        block = max(int(chunk_size), -(-self.n_samples // pool_workers))
        try:
            samples = list(
                itertools.chain.from_iterable(
                    self._backend.map_chunks(
                        sample_rrsets_chunk,
                        task,
                        chunk_indices(self.n_samples, block),
                    )
                )
            )
        finally:
            if shared is not None:
                release_task_arrays(shared)
        #: Root pair of each sample (needed for restricted sigma).
        self.roots = np.array(
            [root for root, _ in samples], dtype=np.int64
        )
        #: RR set sizes (diagnostics).
        self.sizes = np.array(
            [members.size for _, members in samples], dtype=np.int64
        )
        #: Packed words per pair over the sample axis.
        self.n_words = -(-self.n_samples // 64)
        member = np.zeros((self.n_pairs, self.n_words), dtype=np.uint64)
        rows = np.concatenate([members for _, members in samples])
        sample_ids = np.repeat(
            np.arange(self.n_samples, dtype=np.int64), self.sizes
        )
        bits = np.left_shift(
            np.uint64(1), (sample_ids & 63).astype(np.uint64)
        )
        np.bitwise_or.at(member, (rows, sample_ids >> 6), bits)
        member.setflags(write=False)
        #: (n_pairs, n_words) packed membership — bit ``i & 63`` of
        #: word ``i >> 6`` of row ``p`` says sample ``i`` contains
        #: pair ``p``.  Read-only.
        self.member = member

    @classmethod
    def from_instance(
        cls,
        instance: IMDPPInstance,
        n_samples: int = 256,
        rng_seed: int = 0,
        rng_context: tuple = ("rrset",),
        extra_adoption_floor: float = DEFAULT_EXTRA_ADOPTION_FLOOR,
        backend: ExecutionBackend | str | None = None,
        workers: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "RRSetIndex":
        """Build from a frozen instance (skeleton enumerated here)."""
        skeleton = build_skeleton(instance, extra_adoption_floor)
        return cls(
            skeleton,
            instance.n_users,
            instance.n_items,
            np.asarray(instance.importance, dtype=float),
            n_samples=n_samples,
            rng_seed=rng_seed,
            rng_context=rng_context,
            backend=backend,
            workers=workers,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------
    @property
    def fault_stats(self):
        """Fault handling the sampler's backend performed (or None).

        RR-set sampling fans out through the supervised backend; a
        re-dispatched chunk replays the same root/draw substreams, so
        the index is bit-identical to a fault-free build regardless.
        """
        return getattr(self._backend, "fault_stats", None)

    @property
    def member_bytes(self) -> int:
        """Bytes held by the packed membership matrix."""
        return int(self.member.nbytes)

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
        excluded, mirroring the simulator (and the bank).
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

    # ------------------------------------------------------------------
    def covered_words(self, pairs: Sequence[int]) -> np.ndarray:
        """Packed union of the pairs' membership rows (fresh array)."""
        if not len(pairs):
            return np.zeros(self.n_words, dtype=np.uint64)
        return np.bitwise_or.reduce(
            self.member[np.asarray(pairs, dtype=np.int64)], axis=0
        )

    def covered_mask(self, pairs: Sequence[int]) -> np.ndarray:
        """Boolean per-sample coverage indicator ``(n_samples,)``."""
        words = self.covered_words(pairs)
        ids = np.arange(self.n_samples, dtype=np.int64)
        bits = (
            words[ids >> 6] >> (ids & 63).astype(np.uint64)
        ) & np.uint64(1)
        return bits.astype(bool)

    def coverage_stats(
        self,
        pairs: Sequence[int],
        restrict_users: Iterable[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-sample sigma values (and restricted values) of a set.

        Sample ``i`` contributes ``W * 1[S hits RR_i]``; the mean over
        samples is the unbiased sigma estimate.  Restricted values
        additionally require the root's *user* to lie in
        ``restrict_users`` (the root carries the importance weight, so
        restricting adopters restricts roots).
        """
        covered = self.covered_mask(pairs)
        values = self.total_importance * covered.astype(float)
        restricted = None
        if restrict_users is not None:
            user_mask = np.zeros(self.n_users, dtype=bool)
            for user in restrict_users:
                user_mask[user] = True
            root_users = self.roots // self.n_items
            restricted = values * user_mask[root_users].astype(float)
        return values, restricted

    def sigma(self, pairs: Sequence[int]) -> float:
        """Mean importance-weighted spread estimate of a nominee set."""
        return float(self.coverage_stats(pairs)[0].mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RRSetIndex(samples={self.n_samples}, "
            f"pairs={self.n_pairs}, "
            f"mean_size={float(self.sizes.mean()):.2f})"
        )


class RRSetSigmaEstimator(SigmaEstimator):
    """Caching RR-set evaluator of seed groups (MC-compatible).

    Constructor signature and call surface match
    :class:`SigmaEstimator`; ``n_samples`` is the number of RR sets.
    The index is built lazily on the first supported query —
    construction fans out over the configured execution backend.
    Unsupported queries (dynamic perceptions, LT model, likelihood /
    weight / adoption collection) transparently fall back to an
    internal Monte-Carlo estimator sharing the same cache, backend and
    RNG root.

    Unlike the sketch bank's common-worlds exactness, two RR estimates
    of different sets share the *sampled roots and coins*, so marginal
    comparisons are still common-random-numbers correlated — and on
    top of that the coverage gains handed to selection are exactly
    monotone and submodular on the fixed sample family, so the CELF
    heap is exact (no fallback re-comparisons).
    """

    oracle_kind = "rrset"

    def __init__(
        self,
        instance: IMDPPInstance,
        model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
        n_samples: int = 256,
        rng_factory: RngFactory | None = None,
        backend: ExecutionBackend | str | None = None,
        workers: int | None = None,
        cache: SigmaCache | None = None,
        extra_adoption_floor: float = DEFAULT_EXTRA_ADOPTION_FLOOR,
        step_kernel: str | None = None,
    ):
        super().__init__(
            instance,
            model=model,
            n_samples=n_samples,
            rng_factory=rng_factory,
            backend=backend,
            workers=workers,
            cache=cache,
            step_kernel=step_kernel,
        )
        self.extra_adoption_floor = float(extra_adoption_floor)
        self._index: RRSetIndex | None = None
        # Unsupported queries delegate here; sharing the cache is safe
        # because cache keys embed each estimator's oracle_kind, and
        # the MC substream context ("mc", i) never collides with the
        # index's ("rrset", i) samples.
        self._fallback = SigmaEstimator(
            instance,
            model=model,
            n_samples=self.n_samples,
            rng_factory=self.rng_factory,
            backend=self.backend,
            cache=self.cache,
            step_kernel=self.step_kernel,
        )
        self._rr_evaluations = 0
        #: Queries answered from RR sets / delegated to Monte-Carlo.
        self.rr_queries = 0
        self.fallback_queries = 0

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build the RR-set index now (no-op if unsupported)."""
        if self.supports_rrset:
            _ = self.index

    @property
    def supports_rrset(self) -> bool:
        """Can this estimator answer plain sigma queries from RR sets?"""
        return (
            self.model is DiffusionModel.INDEPENDENT_CASCADE
            and self.instance.dynamics.is_frozen
        )

    @property
    def supports_coverage_selection(self) -> bool:
        """Nominee selection may route through :meth:`select_budgeted`."""
        return self.supports_rrset

    @property
    def index(self) -> RRSetIndex:
        """The RR-set index (built on first access)."""
        if self._index is None:
            self._index = RRSetIndex.from_instance(
                self.instance,
                n_samples=self.n_samples,
                rng_seed=self.rng_factory.seed,
                rng_context=("rrset",),
                extra_adoption_floor=self.extra_adoption_floor,
                backend=self.backend,
            )
        return self._index

    # ------------------------------------------------------------------
    def estimate(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
        collect_adoptions: bool = False,
    ) -> MonteCarloEstimate:
        """Sigma (and sigma_tau) by coverage counting when possible.

        Likelihood / weight / adoption collection and non-coverable
        configurations (dynamic perceptions, LT model) delegate to the
        internal Monte-Carlo estimator.
        """
        needs_simulation = (
            compute_likelihood or collect_weights or collect_adoptions
        )
        if needs_simulation or not self.supports_rrset:
            estimate = self._fallback.estimate(
                seed_group,
                until_promotion=until_promotion,
                restrict_users=restrict_users,
                compute_likelihood=compute_likelihood,
                collect_weights=collect_weights,
                collect_adoptions=collect_adoptions,
            )
            self.fallback_queries += 1
            self._sync_evaluations()
            return estimate

        index = self.index
        pairs = index.nominee_pairs(seed_group, until_promotion)
        restrict_key = (
            tuple(sorted(restrict_users)) if restrict_users is not None else ()
        )
        # Coverage spreads are timing-independent, so the key collapses
        # the group to its nominee pairs (same hit class as the sketch
        # oracle).
        key = (
            self.oracle_kind,
            pairs,
            restrict_key,
            restrict_users is not None,
            self.n_samples,
            self.model.value,
            self.rng_factory.seed,
            self.extra_adoption_floor,
            id(self.instance),
        )
        cached = self.cache.get(key)
        if cached is not None:
            self.rr_queries += 1
            return cached

        values, restricted = index.coverage_stats(pairs, restrict_users)
        estimate = MonteCarloEstimate(
            sigma=float(values.mean()),
            sigma_std=float(values.std()),
            n_samples=self.n_samples,
            sigma_restricted=(
                float(restricted.mean()) if restricted is not None else None
            ),
        )
        self.cache.put(key, estimate)
        self.rr_queries += 1
        self._rr_evaluations += self.n_samples
        self._sync_evaluations()
        return estimate

    # ------------------------------------------------------------------
    def select_budgeted(
        self,
        universe,
        cost,
        budget: float,
        gain_batch: int | None = None,
    ) -> GreedyResult:
        """CELF coverage greedy over (user, item) candidates.

        Marginal gains are batched popcounts of ``member & ~covered``
        (:class:`~repro.core.selection.RRCoverageGainOracle`) —
        candidate cost is independent of the graph once the index
        exists, which is the whole point of RR sampling.  Requires
        :attr:`supports_rrset`.
        """
        from repro.core.selection import RRCoverageGainOracle, mcp_lazy_greedy

        if not self.supports_rrset:
            raise ValueError(
                "select_budgeted needs a coverable configuration "
                "(frozen dynamics, IC model)"
            )
        oracle = RRCoverageGainOracle(self.index)
        result = mcp_lazy_greedy(
            universe,
            oracle,
            cost,
            budget,
            stop_on_negative_gain=False,
            batch_size=gain_batch,
        )
        self.rr_queries += result.n_oracle_calls
        self._rr_evaluations += result.n_oracle_calls * self.n_samples
        self._sync_evaluations()
        return result

    # ------------------------------------------------------------------
    def _sync_evaluations(self) -> None:
        # n_evaluations mirrors the MC meaning — replications consumed
        # — counting each coverage query as one pass over the samples.
        self.n_evaluations = (
            self._rr_evaluations + self._fallback.n_evaluations
        )

    def clear_cache(self) -> None:
        """Drop memoized estimates and the RR-set index."""
        super().clear_cache()
        self._index = None
