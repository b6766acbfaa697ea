"""Sketch-based sigma oracle, drop-in compatible with
:class:`~repro.diffusion.montecarlo.SigmaEstimator`.

``SketchSigmaEstimator`` answers frozen-dynamics IC queries — sigma,
sigma restricted to a market (``sigma_tau``), and thereby every greedy
marginal gain — from a lazily-built :class:`RealizationBank` instead of
re-simulating; queries the sketches cannot represent (dynamic
perceptions, the LT trigger model, likelihood / weight / adoption
collection) transparently fall back to an internal Monte-Carlo
estimator sharing the same cache, backend and RNG root.

**Exactness guarantee.**  Two sketch estimators with the same root seed
share the same realized worlds, so their estimates for any pair of seed
groups are *exactly* comparable (zero-variance marginal comparisons —
the common-random-numbers discipline of the Monte-Carlo engine, made
noise-free).  Against the sequential-draw Monte-Carlo estimator the
agreement is in distribution (Lemma 1: realizing the frozen diffusion's
coins up-front does not change the law of the spread), so independent
sketch and MC estimates converge to the same sigma as samples grow.
"""

from __future__ import annotations

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.core.submodular import GreedyResult
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.engine.backends import ExecutionBackend
from repro.engine.cache import SigmaCache
from repro.sketch.bank import (
    DEFAULT_EXTRA_ADOPTION_FLOOR,
    DEFAULT_REACH_BUDGET_BYTES,
    RealizationBank,
    ReachCacheStats,
)
from repro.utils.rng import RngFactory

__all__ = ["SketchSigmaEstimator"]


class SketchSigmaEstimator(SigmaEstimator):
    """Caching sketch evaluator of seed groups (MC-compatible).

    Constructor signature and call surface match
    :class:`SigmaEstimator`; ``n_samples`` doubles as the number of
    realized worlds in the bank.  The bank is built lazily on the first
    sketchable query — construction fans out over the configured
    execution backend, so thread / process pools parallelize the coin
    flipping exactly like Monte-Carlo replications.
    """

    oracle_kind = "sketch"

    def __init__(
        self,
        instance: IMDPPInstance,
        model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
        n_samples: int = 20,
        rng_factory: RngFactory | None = None,
        backend: ExecutionBackend | None = None,
        cache: SigmaCache | None = None,
        extra_adoption_floor: float = DEFAULT_EXTRA_ADOPTION_FLOOR,
        reach_budget_bytes: int | None = DEFAULT_REACH_BUDGET_BYTES,
    ):
        super().__init__(
            instance,
            model=model,
            n_samples=n_samples,
            rng_factory=rng_factory,
            backend=backend,
            cache=cache,
        )
        self.extra_adoption_floor = float(extra_adoption_floor)
        self.reach_budget_bytes = reach_budget_bytes
        self._bank: RealizationBank | None = None
        # Unsupported queries delegate here; sharing the cache is safe
        # because cache keys embed each estimator's oracle_kind, and
        # the MC substream context ("mc", i) never collides with the
        # bank's ("sketch", i) worlds.
        self._fallback = SigmaEstimator(
            instance,
            model=model,
            n_samples=self.n_samples,
            rng_factory=self.rng_factory,
            backend=self.backend,
            cache=self.cache,
        )
        self._sketch_evaluations = 0
        #: Queries answered from sketches / delegated to Monte-Carlo.
        self.sketch_queries = 0
        self.fallback_queries = 0

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build the realization bank now (no-op if unsketchable)."""
        if self.supports_sketch:
            _ = self.bank

    @property
    def supports_sketch(self) -> bool:
        """Can this estimator answer plain sigma queries from sketches?"""
        return (
            self.model is DiffusionModel.INDEPENDENT_CASCADE
            and self.instance.dynamics.is_frozen
        )

    @property
    def supports_coverage_selection(self) -> bool:
        """Nominee selection may route through :meth:`select_budgeted`.

        The common dispatch surface shared with
        :class:`~repro.sketch.rrset.RRSetSigmaEstimator` — consumers
        test this attribute instead of isinstance-checking each
        coverage-capable estimator family.
        """
        return self.supports_sketch

    @property
    def bank(self) -> RealizationBank:
        """The realization bank (built on first access)."""
        if self._bank is None:
            self._bank = RealizationBank(
                self.instance,
                n_worlds=self.n_samples,
                rng_seed=self.rng_factory.seed,
                rng_context=("sketch",),
                extra_adoption_floor=self.extra_adoption_floor,
                backend=self.backend,
                reach_budget_bytes=self.reach_budget_bytes,
            )
        return self._bank

    @property
    def bank_reach_stats(self) -> "ReachCacheStats | None":
        """Stacked-reach LRU counters, or None before the bank exists.

        Deliberately does *not* trigger bank construction — callers
        surface these next to the :class:`~repro.engine.cache.
        SigmaCache` stats after a run (``DysimResult``).
        """
        if self._bank is None:
            return None
        return self._bank.reach_stats()

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
        """Sigma (and sigma_tau) by reachability lookup when possible.

        Likelihood / weight / adoption collection and non-sketchable
        configurations (dynamic perceptions, LT model) delegate to the
        internal Monte-Carlo estimator.
        """
        needs_simulation = (
            compute_likelihood or collect_weights or collect_adoptions
        )
        if needs_simulation or not self.supports_sketch:
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

        bank = self.bank
        pairs = bank.nominee_pairs(seed_group, until_promotion)
        restrict_key = (
            tuple(sorted(restrict_users)) if restrict_users is not None else ()
        )
        # Sketched spreads are timing-independent, so the key collapses
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
            self.extra_adoption_floor,
            id(self.instance),
        )
        cached = self.cache.get(key)
        if cached is not None:
            self.sketch_queries += 1
            return cached

        spreads, restricted = bank.spread_stats(pairs, restrict_users)
        estimate = MonteCarloEstimate(
            sigma=float(spreads.mean()),
            sigma_std=float(spreads.std()),
            n_samples=self.n_samples,
            sigma_restricted=(
                float(restricted.mean()) if restricted is not None else None
            ),
        )
        self.cache.put(key, estimate)
        self.sketch_queries += 1
        self._sketch_evaluations += self.n_samples
        self._sync_evaluations()
        return estimate

    # ------------------------------------------------------------------
    def select_budgeted(
        self,
        universe,
        cost,
        budget: float,
    ) -> GreedyResult:
        """CELF coverage greedy over (user, item) candidates.

        The fast path behind nominee selection: marginal gains are
        batched packed-bitset lookups against per-world covered masks
        (see :mod:`repro.sketch.greedy` and
        :class:`~repro.core.selection.CoverageGainOracle`) instead of
        re-unioning the selection per oracle call.  Requires
        :attr:`supports_sketch`.
        """
        from repro.sketch.greedy import budgeted_coverage_greedy

        if not self.supports_sketch:
            raise ValueError(
                "select_budgeted needs a sketchable configuration "
                "(frozen dynamics, IC model)"
            )
        result = budgeted_coverage_greedy(self.bank, universe, cost, budget)
        self.sketch_queries += result.n_oracle_calls
        self._sketch_evaluations += result.n_oracle_calls * self.n_samples
        self._sync_evaluations()
        return result

    # ------------------------------------------------------------------
    def _sync_evaluations(self) -> None:
        # n_evaluations mirrors the MC meaning — replications consumed
        # — counting each sketched query as one pass over the worlds.
        self.n_evaluations = (
            self._sketch_evaluations + self._fallback.n_evaluations
        )

    def clear_cache(self) -> None:
        """Drop memoized estimates and the realization bank."""
        super().clear_cache()
        self._bank = None
