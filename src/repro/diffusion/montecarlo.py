"""Monte-Carlo estimation of the influence spread ``sigma`` (Def. 1).

Following the paper (footnote 12), ``sigma`` is estimated by averaging
simulated realizations.  The estimator uses *common random numbers*:
sample ``i`` of every seed group replays the same random substream, so
greedy marginal-gain comparisons see correlated worlds and far less
noise — the standard trick that makes lazy/CELF greedy stable.

Replications run through a pluggable :mod:`repro.engine` execution
backend (serial, thread pool or process pool); every backend replays
the same substreams over the same canonical chunks, so estimates are
bit-identical regardless of where they ran.  Results are memoized in a
:class:`~repro.engine.cache.SigmaCache` keyed by the canonicalized seed
group plus the estimator configuration.

The same pass optionally collects everything the Dysim phases need:

* ``sigma`` restricted to a target market (``sigma_tau`` for MA),
* the likelihood ``pi_tau`` of Eq. (13) (for ML),
* mean final meta-graph weightings (market-average relevance in DRE),
* per-(user, item) adoption frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.cache import SigmaCache
from repro.engine.replication import (
    DEFAULT_CHUNK_SIZE,
    ReplicationTask,
    chunk_indices,
    run_chunk,
)
from repro.engine.shm import share_for_backend
from repro.utils.rng import RngFactory

__all__ = [
    "MonteCarloEstimate",
    "SigmaBatchTask",
    "SigmaEstimator",
    "adoption_likelihood",
    "evaluate_sigma_chunk",
    "replicated_sigma_stats",
]


@dataclass
class SigmaBatchTask:
    """One block of seed-group sigma evaluations (picklable).

    Workers replay the estimator's exact replication recipe — sample
    ``i`` of every group draws ``spawn_rng(rng_seed, *rng_context, i)``
    — so results are bit-identical to :meth:`SigmaEstimator.estimate`
    no matter where they run.
    """

    base: ReplicationTask
    groups: list[SeedGroup]
    n_samples: int


def evaluate_sigma_chunk(
    task: SigmaBatchTask, indices: Sequence[int]
) -> list[tuple[float, float]]:
    """(mean, std) sigma stats per group index (module-level: picklable)."""
    out: list[tuple[float, float]] = []
    for i in indices:
        rep = replace(task.base, seed_group=task.groups[i])
        result = run_chunk(rep, list(range(task.n_samples)))
        out.append(
            (float(result.sigmas.mean()), float(result.sigmas.std()))
        )
    return out


def replicated_sigma_stats(
    backend: ExecutionBackend,
    base_task: ReplicationTask,
    groups: Sequence[SeedGroup],
    n_samples: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[tuple[float, float]]:
    """Fan sigma evaluations of many groups over an execution backend.

    Chunks partition the *candidate* axis (each candidate runs its full
    ``n_samples`` replications in one worker, and its stats reduce the
    same per-sample array, in index order, as a one-group run); results
    come back in group order and are bit-identical across backends.

    On a process pool the instance is exported before the first
    dispatch (:func:`repro.engine.shm.share_for_backend`), so every
    chunk ships a handle and workers keep the instance resident, and
    any block of at least ``backend.workers`` groups (two at least)
    goes over the candidate axis, split evenly across the workers in
    chunks of at most ``chunk_size`` groups: a two-candidate block on
    two workers is one dispatch with one group per chunk.  Smaller
    blocks there — and, on serial and thread backends, blocks too small
    to fill more than one ``chunk_size`` chunk — fan out over the
    *sample* axis instead (one ``backend.run`` per group), so a
    one-group evaluation keeps its replication-level parallelism.
    """
    if not groups:
        return []
    n_groups = len(groups)
    workers = backend.workers
    pickled = share_for_backend(base_task.instance, backend) is not None
    if pickled and n_groups >= max(2, workers):
        chunk_size = min(chunk_size, -(-n_groups // workers))
    elif n_groups <= chunk_size:
        stats: list[tuple[float, float]] = []
        for group in groups:
            result = backend.run(
                replace(base_task, seed_group=group), int(n_samples)
            )
            stats.append(
                (float(result.sigmas.mean()), float(result.sigmas.std()))
            )
        return stats
    task = SigmaBatchTask(
        base=base_task, groups=list(groups), n_samples=int(n_samples)
    )
    chunks = chunk_indices(n_groups, chunk_size)
    parts = backend.map_chunks(evaluate_sigma_chunk, task, chunks)
    return [stat for part in parts for stat in part]


@dataclass
class MonteCarloEstimate:
    """Aggregated Monte-Carlo statistics for one seed group."""

    sigma: float
    sigma_std: float
    n_samples: int
    sigma_restricted: float | None = None
    likelihood: float | None = None
    mean_weights: np.ndarray | None = None
    adoption_frequency: np.ndarray | None = None


class SigmaEstimator:
    """Caching Monte-Carlo evaluator of seed groups.

    Parameters
    ----------
    instance:
        The IMDPP instance (possibly a frozen clone).
    model:
        Trigger model.
    n_samples:
        Monte-Carlo sample count ``M`` (the paper uses 100; greedy
        inner loops use fewer for speed).
    rng_factory:
        Root of the random substreams; defaults to seed 0.
    backend:
        Where replications run.  Borrowed: the caller that built it
        closes it.  ``None`` runs on a private :class:`SerialBackend`.
    cache:
        Estimate memoization; pass a shared :class:`SigmaCache` to pool
        memoization across estimators, or ``None`` for a private one.

    Frozen plain-sigma recipes run each worker chunk as one packed
    lockstep pass; dynamic perceptions and the state collectors
    (likelihood, weights, adoptions) replay the per-replication step.
    The two are bit-identical (:func:`repro.engine.replication.run_chunk`).
    """

    #: Distinguishes estimator families in cache keys: a cache shared
    #: between a Monte-Carlo and a sketch-based estimator of otherwise
    #: identical configuration must never alias their entries (the
    #: estimates differ — one simulates, the other replays sketched
    #: worlds).  Subclasses implementing a different oracle override it.
    oracle_kind = "mc"

    def __init__(
        self,
        instance: IMDPPInstance,
        model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
        n_samples: int = 20,
        rng_factory: RngFactory | None = None,
        backend: ExecutionBackend | None = None,
        cache: SigmaCache | None = None,
    ):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.instance = instance
        self.model = model
        self.n_samples = int(n_samples)
        self.rng_factory = rng_factory or RngFactory(0)
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache if cache is not None else SigmaCache()
        # Cache keys embed id(instance); pinning makes that id stable
        # for the cache's lifetime (no address reuse after a GC).
        self.cache.pin(instance)
        self.n_evaluations = 0

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Force any lazy precomputation this estimator defers.

        Monte-Carlo holds none — a no-op here.  The sketch / RR-set
        subclasses override it to build their realization bank or
        sample index up front, which lets callers (``Dysim``'s
        ``phase_seconds`` breakdown) attribute that one-off cost to a
        named phase instead of folding it into the first query.
        """

    @property
    def cache_hits(self) -> int:
        """Estimates served from the cache so far."""
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        """Estimates that had to run Monte-Carlo replications."""
        return self.cache.misses

    def _cache_key(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None,
        restrict_key: tuple,
        flags: tuple,
    ) -> tuple:
        # The estimator configuration is part of the key so one cache
        # can safely back several estimators (e.g. frozen + dynamic,
        # or Monte-Carlo + sketch — ``oracle_kind`` keeps their
        # entries apart even when everything else matches).
        return (
            self.oracle_kind,
            tuple(sorted((s.user, s.item, s.promotion) for s in seed_group)),
            until_promotion,
            restrict_key,
            flags,
            self.n_samples,
            self.model.value,
            self.rng_factory.seed,
            id(self.instance),
        )

    def estimate(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
        collect_adoptions: bool = False,
    ) -> MonteCarloEstimate:
        """Estimate sigma (and optional extras) for one seed group."""
        restrict_key = (
            tuple(sorted(restrict_users)) if restrict_users is not None else ()
        )
        flags = (compute_likelihood, collect_weights, collect_adoptions)
        key = self._cache_key(seed_group, until_promotion, restrict_key, flags)
        cached = self.cache.get(key)
        if cached is not None:
            return cached

        task = ReplicationTask(
            instance=self.instance,
            model=self.model,
            rng_seed=self.rng_factory.seed,
            rng_context=("mc",),
            seed_group=seed_group,
            until_promotion=until_promotion,
            restrict_users=(
                frozenset(restrict_users)
                if restrict_users is not None
                else None
            ),
            compute_likelihood=compute_likelihood,
            collect_weights=collect_weights,
            collect_adoptions=collect_adoptions,
        )
        share_for_backend(self.instance, self.backend)
        result = self.backend.run(task, self.n_samples)
        self.n_evaluations += result.n_samples

        estimate = MonteCarloEstimate(
            sigma=float(result.sigmas.mean()),
            sigma_std=float(result.sigmas.std()),
            n_samples=self.n_samples,
            sigma_restricted=(
                float(result.restricted.mean())
                if restrict_users is not None
                else None
            ),
            likelihood=(
                float(result.likelihoods.mean())
                if compute_likelihood
                else None
            ),
            mean_weights=(
                result.weights_sum / self.n_samples
                if result.weights_sum is not None
                else None
            ),
            adoption_frequency=(
                result.adoption_sum / self.n_samples
                if result.adoption_sum is not None
                else None
            ),
        )
        self.cache.put(key, estimate)
        return estimate

    def sigma(self, seed_group: SeedGroup) -> float:
        """Convenience: the scalar spread estimate."""
        return self.estimate(seed_group).sigma

    def estimate_block(
        self,
        groups: Sequence[SeedGroup],
        until_promotion: int | None = None,
    ) -> np.ndarray:
        """Batched plain-sigma estimates over many seed groups.

        Cache behaviour, counters and floats match per-group
        :meth:`estimate` calls exactly — same keys, same ``("mc",)``
        substreams — but the cache misses fan out together over the
        execution backend through :func:`replicated_sigma_stats`,
        chunked across the *candidate* axis, so a process pool
        parallelizes across candidates instead of only across one
        candidate's replications: there a miss block as small as one
        candidate per worker (the CELF prefetch) is one dispatch, and
        every chunk ships the instance as a handle.  The batched
        selection layer (:func:`repro.core.selection.sigma_block`)
        routes every greedy's gain evaluations through here.

        Subclasses whose :meth:`estimate` does not run this module's
        Monte-Carlo recipe (the sketch oracle) are answered by
        per-group ``estimate`` calls — still one API for consumers.
        """
        sigmas = np.empty(len(groups))
        if not (
            type(self) is SigmaEstimator and self.oracle_kind == "mc"
        ):
            for i, group in enumerate(groups):
                sigmas[i] = self.estimate(
                    group, until_promotion=until_promotion
                ).sigma
            return sigmas

        flags = (False, False, False)
        # Misses dedupe by cache key, mirroring sequential estimate()
        # calls where a repeated group is a hit on its second lookup.
        miss_order: list[tuple] = []
        miss_groups: dict[tuple, SeedGroup] = {}
        key_of: list[tuple | None] = [None] * len(groups)
        for i, group in enumerate(groups):
            key = self._cache_key(group, until_promotion, (), flags)
            cached = self.cache.get(key)
            if cached is not None:
                sigmas[i] = cached.sigma
            elif key in miss_groups:
                key_of[i] = key
            else:
                key_of[i] = key
                miss_order.append(key)
                miss_groups[key] = group
        if miss_order:
            base = ReplicationTask(
                instance=self.instance,
                model=self.model,
                rng_seed=self.rng_factory.seed,
                rng_context=("mc",),
                seed_group=miss_groups[miss_order[0]],
                until_promotion=until_promotion,
            )
            stats = replicated_sigma_stats(
                self.backend,
                base,
                [miss_groups[key] for key in miss_order],
                self.n_samples,
            )
            resolved: dict[tuple, float] = {}
            for key, (mean, std) in zip(miss_order, stats):
                estimate = MonteCarloEstimate(
                    sigma=mean, sigma_std=std, n_samples=self.n_samples
                )
                self.cache.put(key, estimate)
                self.n_evaluations += self.n_samples
                resolved[key] = mean
            for i, key in enumerate(key_of):
                if key is not None:
                    sigmas[i] = resolved[key]
        return sigmas

    def clear_cache(self) -> None:
        """Drop memoized estimates (after the instance state changed).

        Note: this clears the *whole* backing :class:`SigmaCache` — if
        the cache is shared across estimators (as in ``Dysim`` and
        ``make_estimators``), their entries are evicted too.
        """
        self.cache.clear()
