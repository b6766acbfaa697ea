"""Coverage sigma oracles, drop-in compatible with
:class:`~repro.diffusion.montecarlo.SigmaEstimator`.

Under frozen dynamics and the IC model, sigma is a coverage function
over pre-realized samples (Lemma 1), and the repo answers it from two
sample families: forward worlds (:class:`~repro.sketch.bank.
RealizationBank`, ``oracle="sketch"``) and reverse-reachable sets
(:class:`~repro.sketch.rrset.RRSetIndex`, ``oracle="rrset"``).
:class:`CoverageSigmaEstimator` is the one estimator over either
family: it builds the family lazily, answers sigma, sigma restricted
to a market (``sigma_tau``) and every greedy marginal gain from it,
and plays the queries coverage cannot represent (dynamic perceptions,
the LT trigger model, likelihood / weight collection) through the
Monte-Carlo path it inherits, keyed in the cache exactly as a plain
:class:`~repro.diffusion.montecarlo.SigmaEstimator` of the same
configuration keys them.  :class:`SketchSigmaEstimator` and
:class:`~repro.sketch.rrset.RRSetSigmaEstimator` only say how to build
their family, read its per-sample values and make its gain oracle.

**Exactness guarantee.**  Two coverage estimators of the same kind
with the same root seed share the same samples, so their estimates for
any pair of seed groups are *exactly* comparable (zero-variance
marginal comparisons — the common-random-numbers discipline of the
Monte-Carlo engine, made noise-free).  Against the sequential-draw
Monte-Carlo estimator the agreement is in distribution (Lemma 1:
realizing the frozen diffusion's coins up-front does not change the
law of the spread), so independent coverage and MC estimates converge
to the same sigma as samples grow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.problem import SeedGroup
from repro.core.selection import (
    CoverageGainOracle,
    GreedyResult,
    mcp_lazy_greedy,
)
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.sketch.bank import RealizationBank, ReachCacheStats

__all__ = ["CoverageSigmaEstimator", "SketchSigmaEstimator"]


class CoverageSigmaEstimator(SigmaEstimator):
    """Caching coverage evaluator of seed groups (MC-compatible).

    Constructor signature and call surface match
    :class:`SigmaEstimator`; ``n_samples`` is the size of the sample
    family.  The family is built on the first coverable query —
    construction fans out over the configured execution backend, so
    thread / process pools parallelize the sampling exactly like
    Monte-Carlo replications.

    Subclasses set ``oracle_kind`` and implement :meth:`_build_family`,
    :meth:`_sample_values` and :meth:`_gain_oracle`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._family = None
        #: Queries answered from the family / played by Monte-Carlo.
        self.coverage_queries = 0
        self.fallback_queries = 0

    # -- what a family subclass provides --------------------------------
    def _build_family(self):
        """Sample the family (called once, on first use)."""
        raise NotImplementedError

    def _sample_values(
        self, pairs: tuple[int, ...], restrict_users: set[int] | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-sample sigma values (and restricted values) of ``pairs``."""
        raise NotImplementedError

    def _gain_oracle(self):
        """A fresh coverage gain oracle over the family."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def supports_coverage_selection(self) -> bool:
        """Can sigma queries and :meth:`select_budgeted` use coverage?

        True under frozen dynamics and the IC model; consumers test
        this attribute instead of isinstance-checking the estimator.
        """
        return (
            self.model is DiffusionModel.INDEPENDENT_CASCADE
            and self.instance.dynamics.is_frozen
        )

    @property
    def family(self):
        """The sample family (built on first access)."""
        if self._family is None:
            self._family = self._build_family()
        return self._family

    def prepare(self) -> None:
        """Build the sample family now (no-op if not coverable)."""
        if self.supports_coverage_selection:
            _ = self.family

    # ------------------------------------------------------------------
    def estimate(
        self,
        seed_group: SeedGroup,
        until_promotion: int | None = None,
        restrict_users: set[int] | None = None,
        compute_likelihood: bool = False,
        collect_weights: bool = False,
    ) -> MonteCarloEstimate:
        """Sigma (and sigma_tau) by coverage counting when possible.

        Likelihood / weight collection and non-coverable configurations
        (dynamic perceptions, LT model) play through the inherited
        Monte-Carlo path.
        """
        needs_simulation = compute_likelihood or collect_weights
        if needs_simulation or not self.supports_coverage_selection:
            self.fallback_queries += 1
            return super().estimate(
                seed_group,
                until_promotion=until_promotion,
                restrict_users=restrict_users,
                compute_likelihood=compute_likelihood,
                collect_weights=collect_weights,
            )

        pairs = self.family.nominee_pairs(seed_group, until_promotion)
        restrict_key = (
            tuple(sorted(restrict_users)) if restrict_users is not None else ()
        )
        # Coverage spreads are timing-independent, so the key collapses
        # the group to its nominee pairs: every timing variant of the
        # same nominees shares one entry (a free extra hit class the
        # MC oracle cannot offer).
        key = (
            self.oracle_kind,
            pairs,
            restrict_key,
            restrict_users is not None,
            self.n_samples,
            self.model.value,
            self.rng_factory.seed,
            id(self.instance),
        )
        cached = self.cache.get(key)
        if cached is not None:
            self.coverage_queries += 1
            return cached

        values, restricted = self._sample_values(pairs, restrict_users)
        estimate = MonteCarloEstimate(
            sigma=float(values.mean()),
            sigma_std=float(values.std()),
            n_samples=self.n_samples,
            sigma_restricted=(
                float(restricted.mean()) if restricted is not None else None
            ),
        )
        self.cache.put(key, estimate)
        self.coverage_queries += 1
        # A coverage query counts as one pass over the samples.
        self.n_evaluations += self.n_samples
        return estimate

    def estimate_block(
        self,
        groups: Sequence[SeedGroup],
        until_promotion: int | None = None,
    ) -> np.ndarray:
        """Per-group :meth:`estimate` calls — coverage lookups (or
        Monte-Carlo plays, one group at a time) need no fan-out."""
        sigmas = np.empty(len(groups))
        for i, group in enumerate(groups):
            sigmas[i] = self.estimate(group, until_promotion=until_promotion).sigma
        return sigmas

    # ------------------------------------------------------------------
    def select_budgeted(
        self,
        universe,
        cost,
        budget: float,
    ) -> GreedyResult:
        """CELF coverage greedy over (user, item) candidates.

        The fast path behind nominee selection: marginal gains are
        batched packed-bitset popcounts against the family's covered
        words (the subclass's gain oracle) instead of re-unioning the
        selection per oracle call.  Requires
        :attr:`supports_coverage_selection`.
        """
        if not self.supports_coverage_selection:
            raise ValueError(
                "select_budgeted needs a coverable configuration "
                "(frozen dynamics, IC model)"
            )
        result = mcp_lazy_greedy(
            universe,
            self._gain_oracle(),
            cost,
            budget,
            stop_on_negative_gain=False,
        )
        self.coverage_queries += result.n_oracle_calls
        self.n_evaluations += result.n_oracle_calls * self.n_samples
        return result

    def clear_cache(self) -> None:
        """Drop memoized estimates and the sample family."""
        super().clear_cache()
        self._family = None


class SketchSigmaEstimator(CoverageSigmaEstimator):
    """Coverage over a :class:`RealizationBank` of forward worlds.

    ``n_samples`` is the number of realized worlds; a sigma query is a
    per-world reachability union, a marginal gain a packed
    :class:`~repro.core.selection.CoverageGainOracle` lookup.
    """

    oracle_kind = "sketch"

    @property
    def bank(self) -> RealizationBank:
        """The realization bank (built on first access)."""
        return self.family

    @property
    def bank_reach_stats(self) -> "ReachCacheStats | None":
        """Stacked-reach LRU counters, or None before the bank exists.

        Deliberately does *not* trigger bank construction — callers
        surface these next to the :class:`~repro.engine.cache.
        SigmaCache` stats after a run (``DysimResult``).
        """
        if self._family is None:
            return None
        return self._family.reach_stats()

    def _build_family(self) -> RealizationBank:
        return RealizationBank(
            self.instance,
            n_worlds=self.n_samples,
            rng_seed=self.rng_factory.seed,
            rng_context=("sketch",),
            backend=self.backend,
        )

    def _sample_values(self, pairs, restrict_users):
        return self.bank.spread_stats(pairs, restrict_users)

    def _gain_oracle(self) -> CoverageGainOracle:
        return CoverageGainOracle(self.bank)
