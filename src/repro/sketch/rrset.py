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
pair — bit ``i & 63`` of word ``i >> 6`` of a pair's row says sample
``i`` contains the pair — so a marginal coverage gain is a popcount
over ``row & ~covered``, the same packed-word idiom as
:class:`~repro.core.selection.PairLayout` (here the packed axis is the
*sample* axis, not the pair axis, because coverage queries reduce over
samples).  Rows exist only for the pairs some RR set contains (the
sorted ``present`` array); every other pair shares an all-zero row, so
memory follows the RR sets, not the pair universe
(:meth:`RRSetIndex.membership` maps pairs to rows).

Queries reach the index through :class:`RRSetSigmaEstimator`, the
RR-set family of the shared
:class:`~repro.sketch.estimator.CoverageSigmaEstimator` (the sketch
bank is the other): caching, Monte-Carlo fallback and the CELF
coverage greedy live there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance
from repro.core.selection import RRCoverageGainOracle
from repro.engine.backends import ExecutionBackend, SerialBackend, worker_chunks
from repro.engine.shm import (
    release_task_arrays,
    resolve_array,
    share_task_arrays,
)
from repro.errors import SketchError
from repro.sketch.bank import PairUniverse, ProbabilitySkeleton, build_skeleton
from repro.sketch.estimator import CoverageSigmaEstimator
from repro.utils.rng import spawn_rng

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


class RRSetIndex(PairUniverse):
    """A fixed family of RR sets answering coverage sigma queries.

    Parameters
    ----------
    skeleton:
        Canonical coin list (:func:`~repro.sketch.bank.build_skeleton`
        output — the *same* skeleton the realization bank flips).  The
        index reverses it and keeps no reference to it.
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
    backend:
        Where sampling fans out (one order-preserving chunk per
        worker, :func:`~repro.engine.backends.worker_chunks` — indexes
        are backend-independent).  The backend is borrowed; ``None``
        samples on a private serial backend.
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
        backend: ExecutionBackend | None = None,
    ):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
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
        # The root distribution's (unnormalized) weights: the
        # importance of the item behind each pair index.
        importance_cum = np.cumsum(np.tile(self.item_importance, self.n_users))
        self.total_importance = float(importance_cum[-1])
        if self.total_importance <= 0.0:
            raise SketchError("total pair importance must be positive")

        # Reverse the skeleton into a by-target CSR.  The stable
        # argsort keeps in-arcs of a pair in skeleton entry order —
        # part of the pinned draw contract.
        order = np.argsort(skeleton.dst, kind="stable")
        rev_src = skeleton.src[order]
        rev_prob = skeleton.prob[order]
        del order
        counts = np.bincount(skeleton.dst, minlength=self.n_pairs)
        rev_indptr = np.zeros(self.n_pairs + 1, dtype=np.int64)
        np.cumsum(counts, out=rev_indptr[1:])

        backend = backend if backend is not None else SerialBackend()
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
        shared = share_task_arrays(task_arrays, backend)
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
        try:
            samples = list(
                itertools.chain.from_iterable(
                    backend.map_chunks(
                        sample_rrsets_chunk,
                        task,
                        worker_chunks(self.n_samples, backend),
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
        pairs = np.concatenate([members for _, members in samples])
        sample_ids = np.repeat(
            np.arange(self.n_samples, dtype=np.int64), self.sizes
        )
        present, slots = np.unique(pairs, return_inverse=True)
        member_rows = np.zeros(
            (present.size + 1, self.n_words), dtype=np.uint64
        )
        # A pair occurs at most once per sample, so every (row, sample)
        # bit is set once; the flat view keeps ``ufunc.at`` on its 1-D
        # fast path.
        np.bitwise_or.at(
            member_rows.reshape(-1),
            (slots + 1) * self.n_words + (sample_ids >> 6),
            np.left_shift(np.uint64(1), (sample_ids & 63).astype(np.uint64)),
        )
        present.setflags(write=False)
        member_rows.setflags(write=False)
        #: Sorted pair indices that some RR set contains.  Read-only.
        self.present = present
        #: ``(len(present) + 1, n_words)`` packed membership: row
        #: ``k + 1`` belongs to ``present[k]`` — bit ``i & 63`` of word
        #: ``i >> 6`` says sample ``i`` contains that pair — and row 0,
        #: all zeros, to every absent pair.  Read through
        #: :meth:`membership`.  Read-only.
        self.member_rows = member_rows

    @classmethod
    def from_instance(
        cls,
        instance: IMDPPInstance,
        n_samples: int = 256,
        rng_seed: int = 0,
        rng_context: tuple = ("rrset",),
        backend: ExecutionBackend | None = None,
    ) -> "RRSetIndex":
        """Build from a frozen instance (skeleton enumerated here).

        The skeleton is passed straight through, so nothing holds it
        once the index is built.
        """
        return cls(
            build_skeleton(instance),
            instance.n_users,
            instance.n_items,
            np.asarray(instance.importance, dtype=float),
            n_samples=n_samples,
            rng_seed=rng_seed,
            rng_context=rng_context,
            backend=backend,
        )

    # ------------------------------------------------------------------
    @property
    def member_bytes(self) -> int:
        """Bytes held by the membership rows and their pair index."""
        return int(self.present.nbytes + self.member_rows.nbytes)

    def membership(self, pairs: Sequence[int]) -> np.ndarray:
        """Packed membership rows of ``pairs``, ``(len(pairs), n_words)``.

        The one way into :attr:`member_rows`: a binary search of
        :attr:`present` per pair, and the zero row for a pair no RR set
        contains.  Returns a fresh array.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        slots = np.searchsorted(self.present, pairs)
        found = self.present[np.minimum(slots, self.present.size - 1)] == pairs
        return self.member_rows[np.where(found, slots + 1, 0)]

    # ------------------------------------------------------------------
    def covered_words(self, pairs: Sequence[int]) -> np.ndarray:
        """Packed union of the pairs' membership rows (fresh array)."""
        if not len(pairs):
            return np.zeros(self.n_words, dtype=np.uint64)
        return np.bitwise_or.reduce(self.membership(pairs), axis=0)

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
            f"pairs={self.n_pairs}, present={self.present.size}, "
            f"mean_size={float(self.sizes.mean()):.2f})"
        )


class RRSetSigmaEstimator(CoverageSigmaEstimator):
    """Coverage over an :class:`RRSetIndex` of reverse-reachable sets.

    ``n_samples`` is the number of RR sets; a sigma query counts the
    sets a group hits, a marginal gain is a packed
    :class:`~repro.core.selection.RRCoverageGainOracle` popcount.

    Unlike the sketch bank's common worlds, two RR estimates of
    different sets share the *sampled roots and coins*, so marginal
    comparisons are still common-random-numbers correlated — and on
    top of that the coverage gains handed to selection are exactly
    monotone and submodular on the fixed sample family, so the CELF
    heap is exact (no fallback re-comparisons).
    """

    oracle_kind = "rrset"

    @property
    def index(self) -> RRSetIndex:
        """The RR-set index (built on first access)."""
        return self.family

    def _build_family(self) -> RRSetIndex:
        return RRSetIndex.from_instance(
            self.instance,
            n_samples=self.n_samples,
            rng_seed=self.rng_factory.seed,
            rng_context=("rrset",),
            backend=self.backend,
        )

    def _sample_values(self, pairs, restrict_users):
        return self.index.coverage_stats(pairs, restrict_users)

    def _gain_oracle(self) -> RRCoverageGainOracle:
        return RRCoverageGainOracle(self.index)
