"""Monte-Carlo estimation of the influence spread ``sigma`` (Def. 1).

Following the paper (footnote 12), ``sigma`` is estimated by averaging
simulated realizations.  The estimator uses *common random numbers*:
sample ``i`` of every seed group replays the same random substream, so
greedy marginal-gain comparisons see correlated worlds and far less
noise — the standard trick that makes lazy/CELF greedy stable.

Every request — one seed group or a block, plain sigma or with the
collectors below — takes one path: its cache misses play together as
one dispatch over a pluggable :mod:`repro.engine` execution backend
(serial, thread pool or process pool; one balanced range of the
``groups x samples`` replications per worker), and
:func:`replicated_sigma_stats` reduces each group from its
per-replication outputs in sample order, so estimates are
bit-identical regardless of where they ran or which groups shared the
dispatch.  Results are memoized in a
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
from repro.engine.replication import DEFAULT_CHUNK_SIZE, ReplicationTask
from repro.engine.shm import share_for_backend
from repro.utils.rng import RngFactory

__all__ = [
    "MonteCarloEstimate",
    "SigmaEstimator",
    "adoption_likelihood",
    "replicated_sigma_stats",
]


@dataclass
class MonteCarloEstimate:
    """Aggregated Monte-Carlo statistics for one seed group."""

    sigma: float
    sigma_std: float
    n_samples: int
    sigma_restricted: float | None = None
    likelihood: float | None = None
    mean_weights: np.ndarray | None = None


def _canonical_sum(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """One group's final weights summed over the canonical tree.

    Each chunk of ``DEFAULT_CHUNK_SIZE`` consecutive samples folds from
    zero in sample order, and the chunk folds add up in chunk order
    (``tests.reference.canonical_fold`` pins it), so the sum depends on
    the sample count alone, never on the ranges the samples ran in.
    """
    total = None
    for start in range(0, len(matrices), DEFAULT_CHUNK_SIZE):
        fold = np.zeros(matrices[start].shape)
        for matrix in matrices[start : start + DEFAULT_CHUNK_SIZE]:
            fold += matrix
        if total is None:
            total = fold
        else:
            total += fold
    return total


def replicated_sigma_stats(
    backend: ExecutionBackend, task: ReplicationTask
) -> list[MonteCarloEstimate]:
    """The estimate of every seed group of ``task``, in group order.

    One :meth:`~repro.engine.backends.ExecutionBackend.run` plays the
    whole block — ``n_samples`` replications per group, one balanced
    range of the ``groups x samples`` replications per worker, each
    range in one packed pass — and each group reduces its own samples
    in sample order: every field the task collected (sigma and its
    spread; restricted sigma, likelihood and mean final weights when
    asked), the weights over the canonical tree.  Estimates are
    therefore bit-identical across backends and to one-group tasks.

    On a process pool the instance is exported before the dispatch
    (:func:`repro.engine.shm.share_for_backend`), so every range ships
    a handle and workers keep the instance resident.
    """
    if not task.seed_groups:
        return []
    share_for_backend(task.instance, backend)
    result = backend.run(task)
    n = task.n_samples
    estimates = []
    for start in range(0, result.n_samples, n):
        rows = slice(start, start + n)
        sigmas = result.sigmas[rows]
        estimates.append(
            MonteCarloEstimate(
                sigma=float(sigmas.mean()),
                sigma_std=float(sigmas.std()),
                n_samples=n,
                sigma_restricted=(
                    float(result.restricted[rows].mean())
                    if task.restrict_users is not None
                    else None
                ),
                likelihood=(
                    float(result.likelihoods[rows].mean())
                    if task.compute_likelihood
                    else None
                ),
                mean_weights=(
                    _canonical_sum(result.weights[rows]) / n
                    if task.collect_weights
                    else None
                ),
            )
        )
    return estimates


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

    Every request — :meth:`estimate` (one group, any collectors) and
    :meth:`estimate_block` (many groups, plain sigma) alike — takes one
    path: its cache misses play as one block
    (:func:`replicated_sigma_stats`), one balanced range of the
    ``groups x samples`` replications per backend worker, each range
    one packed lockstep pass bit-identical to one lone
    :meth:`~repro.diffusion.campaign.CampaignSimulator.run` per sample
    (:func:`repro.engine.replication.run_chunk`): a realization is the
    same whether it plays alone, inside a range or inside a block.

    Estimates are memoized per realization: a request is served by any
    cached estimate of the same group, horizon and configuration that
    holds every field it asks for (:class:`SigmaCache`).  A likelihood
    run also collects the mean final weights and leaves them in the
    cache as spares — kept on the newest likelihood estimate of each
    horizon — so Dysim's DRE weights request replays nothing after the
    TDSI estimate of the group it just extended.
    """

    #: Names the oracle behind an estimator's answers.  Coverage
    #: estimators key their answers by it, so a cache shared with a
    #: Monte-Carlo estimator of otherwise identical configuration never
    #: aliases counted and simulated estimates.  Monte-Carlo entries
    #: are keyed ``"mc"`` whichever estimator plays them
    #: (:meth:`_cache_key`).
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
        dynamic).  It is keyed ``"mc"`` whichever estimator plays it: a
        coverage estimator's simulated answers share the entries of a
        plain Monte-Carlo twin, while its counted ones key by its own
        ``oracle_kind``.  The horizon is the one the simulator plays:
        ``None`` (and 0) mean ``T``.
        """
        family = (
            "mc",
            until_promotion or self.instance.n_promotions,
            self.n_samples,
            self.model.value,
            self.rng_factory.seed,
            id(self.instance),
        )
        return family, tuple(
            sorted((s.user, s.item, s.promotion) for s in seed_group)
        )

    def _estimates(
        self,
        groups: Sequence[SeedGroup],
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
    ) -> list[MonteCarloEstimate]:
        """Every request's one path: estimates of ``groups``, in order.

        Each group is looked up with the fields asked for; the misses
        dedupe by cache key and play together, with their collectors,
        as one block, and each estimate is stored with its spare
        weights.  Hits, misses and floats match one request per group
        in order: a repeat of a missed group is a hit on the entry its
        first request stored.
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
        held = asked | {("mean_weights", None)} if compute_likelihood else asked
        keys = [self._cache_key(group, until_promotion) for group in groups]
        estimates: list[MonteCarloEstimate | None] = [None] * len(groups)
        first_miss: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if key not in first_miss:
                estimates[i] = self.cache.get(key, asked)
                if estimates[i] is None:
                    first_miss[key] = i
        if not first_miss:
            return estimates

        task = ReplicationTask(
            instance=self.instance,
            model=self.model,
            rng_seed=self.rng_factory.seed,
            rng_context=("mc",),
            seed_groups=[groups[i] for i in first_miss.values()],
            n_samples=self.n_samples,
            until_promotion=until_promotion,
            restrict_users=(
                frozenset(restrict_users) if restrict_users is not None else None
            ),
            compute_likelihood=compute_likelihood,
            collect_weights=collect_weights or compute_likelihood,
        )
        played = replicated_sigma_stats(self.backend, task)
        self.n_evaluations += len(played) * self.n_samples
        for (key, i), estimate in zip(first_miss.items(), played):
            estimates[i] = self.cache.put(
                key, estimate, held, asked, spare_slot=key[0]
            )
        for i, key in enumerate(keys):
            if estimates[i] is None:
                estimates[i] = self.cache.get(key, asked)
        return estimates

    def estimate(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
    ) -> MonteCarloEstimate:
        """Estimate sigma (and optional extras) for one seed group.

        A block of one.  The estimate holds exactly the extras asked
        for.  A cached estimate of the same realization that holds them
        serves the request without replications; a likelihood run also
        leaves its mean final weights in the cache as a spare field, so
        a weights request after the newest likelihood estimate of its
        group and horizon is a hit.
        """
        (estimate,) = self._estimates(
            [seed_group],
            until_promotion,
            restrict_users,
            compute_likelihood,
            collect_weights,
        )
        return estimate

    def sigma(self, seed_group: SeedGroup) -> float:
        """Convenience: the scalar spread estimate."""
        return self.estimate(seed_group).sigma

    def estimate_block(
        self,
        groups: Sequence[SeedGroup],
        until_promotion: int | None = None,
    ) -> np.ndarray:
        """Plain-sigma estimates of many seed groups.

        The same path as :meth:`estimate`, so cache behaviour, counters
        and floats match per-group calls exactly, but the cache misses
        play together as one block: one dispatch of one balanced range
        of the ``groups x samples`` replications per worker, so the
        CELF prefetch of one candidate per worker is one dispatch
        however many groups and workers there are.  The batched
        selection layer
        (:class:`~repro.core.selection.MonteCarloGainOracle`) routes
        every greedy's gain evaluations through here.  Coverage
        estimators override it
        (:class:`~repro.sketch.estimator.CoverageSigmaEstimator`).
        """
        estimates = self._estimates(groups, until_promotion)
        return np.array([estimate.sigma for estimate in estimates], dtype=float)

    def clear_cache(self) -> None:
        """Drop memoized estimates (after the instance state changed).

        Note: this clears the *whole* backing :class:`SigmaCache` — if
        the cache is shared across estimators (as in ``Dysim`` and
        ``make_estimators``), their entries are evicted too.
        """
        self.cache.clear()
