"""Monte-Carlo estimation of the influence spread ``sigma`` (Def. 1).

Following the paper (footnote 12), ``sigma`` is estimated by averaging
simulated realizations.  The estimator uses *common random numbers*:
sample ``i`` of every seed group replays the same random substream, so
greedy marginal-gain comparisons see correlated worlds and far less
noise — the standard trick that makes lazy/CELF greedy stable.

Replications run through a pluggable :mod:`repro.engine` execution
backend (serial, thread pool or process pool); every backend replays
the same substreams, one balanced range of replications per worker
for one group or a whole block, and reduces matrix sums over the same
canonical chunks, so estimates are bit-identical regardless of where
they ran.  Results are memoized in a
:class:`~repro.engine.cache.SigmaCache` keyed by the realization they
played (canonicalized seed group, horizon and estimator configuration)
and the fields they hold, so requests of one realization share one
simulation.

The same pass optionally collects everything the Dysim phases need:

* ``sigma`` restricted to a target market (``sigma_tau`` for MA),
* the likelihood ``pi_tau`` of Eq. (13) (for ML),
* mean final meta-graph weightings (market-average relevance in DRE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.cache import SigmaCache
from repro.engine.replication import ReplicationTask
from repro.engine.shm import share_for_backend
from repro.utils.rng import RngFactory

__all__ = [
    "MonteCarloEstimate",
    "SigmaEstimator",
    "adoption_likelihood",
    "replicated_sigma_stats",
]


def replicated_sigma_stats(
    backend: ExecutionBackend, task: ReplicationTask
) -> list[tuple[float, float]]:
    """(mean, std) of the sigma of every seed group of ``task``.

    One :meth:`~repro.engine.backends.ExecutionBackend.run` plays the
    whole block — ``n_samples`` replications per group, one balanced
    range of the ``groups x samples`` replications per worker, each
    range in one packed pass — and each group reduces its own samples,
    in sample order, exactly as a one-group run does.  Results come
    back in group order and are bit-identical across backends and to
    per-group :meth:`SigmaEstimator.estimate` calls.

    On a process pool the instance is exported before the dispatch
    (:func:`repro.engine.shm.share_for_backend`), so every range ships
    a handle and workers keep the instance resident.
    """
    if not task.seed_groups:
        return []
    share_for_backend(task.instance, backend)
    sigmas = backend.run(task).sigmas.reshape(-1, task.n_samples)
    return [(float(row.mean()), float(row.std())) for row in sigmas]


@dataclass
class MonteCarloEstimate:
    """Aggregated Monte-Carlo statistics for one seed group."""

    sigma: float
    sigma_std: float
    n_samples: int
    sigma_restricted: float | None = None
    likelihood: float | None = None
    mean_weights: np.ndarray | None = None


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

    Every estimate runs as one balanced sample range per backend
    worker, and each range plays in one packed lockstep pass — frozen
    or learning dynamics, with or without the state collectors
    (likelihood, weights) — bit-identical to one lone
    :meth:`~repro.diffusion.campaign.CampaignSimulator.run` per sample
    (:func:`repro.engine.replication.run_chunk`): a realization is the
    same whether it plays alone or inside a range.

    Estimates are memoized per realization: a request is served by any
    cached estimate of the same group, horizon and configuration that
    holds every field it asks for (:class:`SigmaCache`).  A likelihood
    run also collects the mean final weights and leaves them in the
    cache as spares — kept on the newest likelihood estimate of each
    horizon — so Dysim's DRE weights request replays nothing after the
    TDSI estimate of the group it just extended.
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

        Monte-Carlo holds none — a no-op here.  The coverage
        estimators override it to build their realization bank or
        RR-set index up front, which lets callers (``Dysim``'s
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
        self, seed_group: SeedGroup, until_promotion: int | None
    ) -> tuple:
        """The realization a request plays: ``(family, group)``.

        The family — the estimator configuration and the horizon — is
        the cache's spare slot.  The configuration is part of the key so
        one cache can safely back several estimators (e.g. frozen +
        dynamic, or Monte-Carlo + sketch — ``oracle_kind`` keeps their
        entries apart even when everything else matches).  The horizon
        is the one the simulator plays: ``None`` (and 0) mean ``T``.
        """
        family = (
            self.oracle_kind,
            until_promotion or self.instance.n_promotions,
            self.n_samples,
            self.model.value,
            self.rng_factory.seed,
            id(self.instance),
        )
        return family, tuple(
            sorted((s.user, s.item, s.promotion) for s in seed_group)
        )

    def estimate(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
    ) -> MonteCarloEstimate:
        """Estimate sigma (and optional extras) for one seed group.

        The estimate holds exactly the extras asked for.  A cached
        estimate of the same realization that holds them serves the
        request without replications; a likelihood run also leaves its
        mean final weights in the cache as a spare field, so a weights
        request after the newest likelihood estimate of its group and
        horizon is a hit.
        """
        users = tuple(sorted(restrict_users)) if restrict_users is not None else None
        asked = frozenset(
            field
            for field, wanted in (
                (("sigma_restricted", users), restrict_users is not None),
                (("likelihood", users), compute_likelihood),
                (("mean_weights", None), collect_weights),
            )
            if wanted
        )
        key = self._cache_key(seed_group, until_promotion)
        cached = self.cache.get(key, asked)
        if cached is not None:
            return cached

        task = ReplicationTask(
            instance=self.instance,
            model=self.model,
            rng_seed=self.rng_factory.seed,
            rng_context=("mc",),
            seed_groups=[seed_group],
            n_samples=self.n_samples,
            until_promotion=until_promotion,
            restrict_users=(
                frozenset(restrict_users)
                if restrict_users is not None
                else None
            ),
            compute_likelihood=compute_likelihood,
            collect_weights=collect_weights or compute_likelihood,
        )
        share_for_backend(self.instance, self.backend)
        result = self.backend.run(task)
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
                if task.collect_weights
                else None
            ),
        )
        held = asked | {("mean_weights", None)} if compute_likelihood else asked
        return self.cache.put(key, estimate, held, asked, spare_slot=key[0])

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
        substreams — but the cache misses play together as one block
        (:func:`replicated_sigma_stats`): one dispatch of one balanced
        range of the ``groups x samples`` replications per worker, so
        the CELF prefetch of one candidate per worker is one dispatch
        however many groups and workers there are.  The batched
        selection layer
        (:class:`~repro.core.selection.MonteCarloGainOracle`) routes
        every greedy's gain evaluations through here.  Coverage
        estimators override it
        (:class:`~repro.sketch.estimator.CoverageSigmaEstimator`).
        """
        sigmas = np.empty(len(groups))
        # Misses dedupe by cache key, mirroring sequential estimate()
        # calls where a repeated group is a hit on its second lookup.
        miss_order: list[tuple] = []
        miss_groups: dict[tuple, SeedGroup] = {}
        key_of: list[tuple | None] = [None] * len(groups)
        for i, group in enumerate(groups):
            key = self._cache_key(group, until_promotion)
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
            task = ReplicationTask(
                instance=self.instance,
                model=self.model,
                rng_seed=self.rng_factory.seed,
                rng_context=("mc",),
                seed_groups=[miss_groups[key] for key in miss_order],
                n_samples=self.n_samples,
                until_promotion=until_promotion,
            )
            stats = replicated_sigma_stats(self.backend, task)
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
