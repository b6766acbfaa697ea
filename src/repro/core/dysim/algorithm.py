"""The Dysim driver — Algorithm 1 end-to-end.

Phases: TMI (nominees -> clusters -> markets -> AE order), then per
market DRE (item priority by dynamic reachability) and TDSI (timing by
substantial influence).  Two switches expose the paper's ablations
(Fig. 10): ``use_target_markets=False`` ("w/o TM") collapses all
nominees into one market, and ``use_item_priority=False`` ("w/o IP")
promotes each market's items simultaneously without DR sequencing.

After constructing the seed group, Dysim also evaluates the two
theoretical fallbacks from Theorem 5 — all nominees seeded in the
first promotion, and the best single seed — and returns whichever of
the three scores highest, which is what the approximation bound is
proved against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dysim.clustering import (
    average_relevance_matrices,
    cluster_nominees,
)
from repro.core.dysim.markets import (
    TargetMarket,
    group_markets,
    identify_markets,
    order_group,
)
from repro.core.dysim.nominees import NomineeSelection, select_nominees
from repro.core.dysim.reachability import ReachabilityTable
from repro.core.dysim.timing import best_timed_seed
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.engine import ExecutionBackend, SerialBackend, SigmaCache
from repro.sketch.oracle import make_sigma_estimator
from repro.utils.rng import RngFactory

__all__ = ["DysimConfig", "DysimResult", "Dysim"]


@dataclass(frozen=True)
class DysimConfig:
    """Tuning knobs for one Dysim run.

    Only choices that can change a result are fields here.  How the
    sigma oracles compute is not: Monte-Carlo ranges pack into one
    lockstep pass and CELF blocks use ``DEFAULT_GAIN_BATCH`` — all
    bit-identical.  Nor is where they run: the execution backend is an
    argument of :class:`Dysim` and
    :class:`~repro.core.dysim.AdaptiveDysim`, and results are
    bit-identical across backends.

    Attributes
    ----------
    n_samples_selection:
        Monte-Carlo samples for the frozen-dynamics MCP oracle.
    n_samples_inner:
        Samples for the dynamic DR / SI evaluations.
    candidate_pool:
        Nominee-universe cap (None = full user-item product).
    singleton_pool:
        How many top-ranked candidates compete for the Theorem-5
        best-singleton fallback (None = the full nominee universe).
        Previously a silent hard-coded 50 inside nominee selection.
    theta:
        Common-user threshold for grouping markets (Fig. 14 sweeps it).
    theta_path:
        MIOA path-probability threshold.
    market_order:
        "AE" (default), "PF", "SZ", "RMS" or "RD" (Fig. 11).
    hop_threshold:
        Social closeness radius for nominee clustering.
    diameter_cap:
        Cap on ``d_tau`` (DR recursion depth).
    use_target_markets / use_item_priority:
        Ablation switches (Fig. 10).
    use_fallbacks:
        Compare the constructed solution against the Theorem-5
        fallbacks (all nominees in promotion 1, best singleton) and
        return the best.  Ablation and market-order experiments turn
        this off so differences are attributable to the constructed
        strategy rather than swallowed by a shared fallback.
    model:
        Trigger model for all internal evaluation.
    oracle:
        Sigma oracle for the frozen selection phases: ``"mc"``
        (Monte-Carlo re-simulation, the default), ``"sketch"``
        (realization bank + reachability sketches — several times
        faster at equal replication counts; exact common random
        numbers across queries) or ``"rrset"`` (reverse-reachable
        coverage samples — selection cost independent of the graph
        once sampled, the million-node path; ``n_samples_selection``
        then counts RR sets, typically hundreds+).  The dynamic
        DR / SI evaluations always use Monte-Carlo, which is the only
        oracle that can observe evolving perceptions.
    seed:
        Root of every random substream Dysim uses.
    """

    n_samples_selection: int = 12
    n_samples_inner: int = 12
    candidate_pool: int | None = 150
    singleton_pool: int | None = None
    theta: int = 3
    theta_path: float = 1.0 / 320.0
    market_order: str = "AE"
    hop_threshold: int = 2
    diameter_cap: int = 4
    use_target_markets: bool = True
    use_item_priority: bool = True
    use_fallbacks: bool = True
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE
    oracle: str = "mc"
    seed: int = 0


@dataclass
class DysimResult:
    """Everything a benchmark needs from one Dysim run."""

    seed_group: SeedGroup
    sigma: float
    nominees: list[tuple[int, int]]
    markets: list[TargetMarket]
    fallback_used: str
    runtime_seconds: float
    n_oracle_calls: int
    group_orders: list[list[int]] = field(default_factory=list)
    backend: str = "serial"
    oracle: str = "mc"
    cache_hits: int = 0
    cache_misses: int = 0
    #: Stacked-reach LRU counters of the sketch oracle's realization
    #: bank (always 0 under the mc oracle, which builds no bank).
    bank_reach_hits: int = 0
    bank_reach_misses: int = 0
    bank_reach_evictions: int = 0
    #: Wall-clock attribution of ``runtime_seconds``: ``"bank"`` (the
    #: selection oracle's one-off precomputation — realization bank or
    #: RR-set sampling; ~0 under the mc oracle), ``"selection"`` (TMI
    #: + DRE + TDSI, everything that picks seeds) and ``"final_mc"``
    #: (fallback comparison and the returned group's dynamic sigma).
    #: The keys sum to ~``runtime_seconds``.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Fault handling the execution backend performed during this run
    #: (:meth:`repro.engine.FaultStats.as_dict`; empty = fault-free).
    #: Accounting only — recovered runs are bit-identical regardless.
    fault_stats: dict = field(default_factory=dict)


class Dysim:
    """Dynamic perception for seeding in target markets.

    ``backend`` is where every Monte-Carlo, sketch and RR-set
    computation runs.  Dysim borrows it — the caller that built it
    closes it — and ``None`` runs on one private serial backend that
    both sigma estimators share, so ``fault_stats`` keeps a single
    account.

    Examples
    --------
    >>> result = Dysim(instance).run()          # doctest: +SKIP
    >>> result.seed_group                        # doctest: +SKIP
    SeedGroup([Seed(user=3, item=1, promotion=1), ...])
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        config: DysimConfig | None = None,
        backend: ExecutionBackend | None = None,
    ):
        self.instance = instance
        self.config = config or DysimConfig()
        factory = RngFactory(self.config.seed)
        self._backend = backend if backend is not None else SerialBackend()
        # One cache backs both estimators (keys embed the estimator
        # config — including the oracle kind — so frozen/dynamic and
        # mc/sketch estimates cannot collide) to give DysimResult a
        # single hit/miss account.
        self._cache = SigmaCache()
        # The frozen selection oracle is switchable (mc | sketch); the
        # dynamic estimator must simulate — it observes evolving
        # perceptions, likelihoods and mean weights.
        self._frozen_estimator = make_sigma_estimator(
            self.config.oracle,
            instance.frozen(),
            model=self.config.model,
            n_samples=self.config.n_samples_selection,
            rng_factory=factory.child("frozen"),
            backend=self._backend,
            cache=self._cache,
        )
        self._dynamic_estimator = make_sigma_estimator(
            "mc",
            instance,
            model=self.config.model,
            n_samples=self.config.n_samples_inner,
            rng_factory=factory.child("dynamic"),
            backend=self._backend,
            cache=self._cache,
        )
        self._rng = factory.stream("driver")

    # ------------------------------------------------------------------
    def run(self) -> DysimResult:
        """Execute TMI -> (DRE + TDSI) and return the best seed group."""
        started = time.perf_counter()
        config = self.config
        instance = self.instance
        stats_before = self._backend.fault_stats.copy()

        # The selection oracle's one-off precomputation (realization
        # bank / RR-set sampling), forced eagerly so the breakdown can
        # bill it separately from the selection queries it serves.
        self._frozen_estimator.prepare()
        bank_done = time.perf_counter()

        selection = select_nominees(
            instance,
            self._frozen_estimator,
            config.candidate_pool,
            singleton_pool=config.singleton_pool,
        )
        nominees = selection.nominees

        if config.use_target_markets:
            clusters = cluster_nominees(
                instance,
                nominees,
                hop_threshold=config.hop_threshold,
            )
        else:
            clusters = [list(nominees)] if nominees else []

        markets = identify_markets(
            instance, clusters, config.theta_path, config.diameter_cap
        )
        groups = group_markets(markets, config.theta)
        _, avg_substitutable = average_relevance_matrices(instance)

        final_group = SeedGroup()
        group_orders: list[list[int]] = []
        for group in groups:
            ordered = order_group(
                group,
                instance,
                avg_substitutable,
                order=config.market_order,
                estimator=self._frozen_estimator,
                rng=self._rng,
            )
            group_orders.append([m.market_id for m in ordered])
            group_seeds = self._promote_group(ordered)
            final_group.extend(group_seeds)
        selection_done = time.perf_counter()

        if config.use_fallbacks:
            best_group, fallback = self._apply_theoretical_fallbacks(
                final_group, selection
            )
        else:
            best_group, fallback = final_group, "dysim"
        sigma = self._dynamic_estimator.sigma(best_group)
        finished = time.perf_counter()
        runtime = finished - started
        phase_seconds = {
            "bank": bank_done - started,
            "selection": selection_done - bank_done,
            "final_mc": finished - selection_done,
        }
        reach_stats = getattr(
            self._frozen_estimator, "bank_reach_stats", None
        )
        delta = self._backend.fault_stats.delta(stats_before)
        return DysimResult(
            seed_group=best_group,
            sigma=sigma,
            nominees=nominees,
            markets=markets,
            fallback_used=fallback,
            runtime_seconds=runtime,
            n_oracle_calls=(
                self._frozen_estimator.n_evaluations
                + self._dynamic_estimator.n_evaluations
            ),
            group_orders=group_orders,
            backend=self._backend.name,
            oracle=self.config.oracle,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            bank_reach_hits=reach_stats.hits if reach_stats else 0,
            bank_reach_misses=reach_stats.misses if reach_stats else 0,
            bank_reach_evictions=(
                reach_stats.evictions if reach_stats else 0
            ),
            phase_seconds=phase_seconds,
            fault_stats=delta.as_dict() if delta.activity else {},
        )

    # ------------------------------------------------------------------
    def _promote_group(self, ordered: list[TargetMarket]) -> SeedGroup:
        """DRE + TDSI over one ordered group of target markets."""
        instance = self.instance
        config = self.config
        total_nominees = sum(len(m.nominees) for m in ordered)
        if total_nominees == 0:
            return SeedGroup()
        group_seeds = SeedGroup()
        cumulative_duration = 0
        for market in ordered:
            # T_tau = floor(|N_tau| * T / sum |N_tau_i|), at least 1.
            duration = max(
                1,
                (len(market.nominees) * instance.n_promotions)
                // total_nominees,
            )
            cumulative_duration = min(
                cumulative_duration + duration, instance.n_promotions
            )
            if config.use_item_priority:
                self._promote_market_with_priority(
                    market, group_seeds, cumulative_duration
                )
            else:
                self._promote_market_simultaneously(
                    market, group_seeds, cumulative_duration
                )
        return group_seeds

    def _market_reachability(
        self, market: TargetMarket, group_seeds: SeedGroup
    ) -> ReachabilityTable:
        """DR table from the market-average perceptions under S_G."""
        instance = self.instance
        if len(group_seeds):
            estimate = self._dynamic_estimator.estimate(
                group_seeds,
                until_promotion=max(group_seeds.latest_promotion, 1),
                collect_weights=True,
            )
            weight_rows = estimate.mean_weights
        else:
            weight_rows = instance.initial_weights
        users = sorted(market.users)
        avg_c, avg_s = average_relevance_matrices(
            instance, weight_rows=weight_rows, users=users
        )
        return ReachabilityTable(
            avg_complementary=avg_c,
            avg_substitutable=avg_s,
            importance=instance.importance,
            depth=market.diameter,
        )

    def _promote_market_with_priority(
        self,
        market: TargetMarket,
        group_seeds: SeedGroup,
        promotion_ceiling: int,
    ) -> None:
        """DRE then TDSI for every item of one market (Algorithm 1)."""
        pending_items = sorted(market.items)
        while pending_items:
            table = self._market_reachability(market, group_seeds)
            best_item = max(
                pending_items, key=table.dynamic_reachability
            )
            pending_items.remove(best_item)
            pending = [
                (user, item)
                for user, item in market.nominees
                if item == best_item
            ]
            while pending:
                decision = best_timed_seed(
                    self.instance,
                    self._dynamic_estimator,
                    market.users,
                    group_seeds,
                    pending,
                    promotion_ceiling,
                )
                if decision is None:
                    break
                group_seeds.add(decision.seed)
                pending.remove(decision.seed.nominee)

    def _promote_market_simultaneously(
        self,
        market: TargetMarket,
        group_seeds: SeedGroup,
        promotion_ceiling: int,
    ) -> None:
        """Ablation "w/o IP": all market items in one promotion slot."""
        timing = min(
            max(group_seeds.latest_promotion, 1),
            promotion_ceiling,
            self.instance.n_promotions,
        )
        for user, item in market.nominees:
            group_seeds.add(Seed(user, item, timing))

    def _apply_theoretical_fallbacks(
        self, constructed: SeedGroup, selection: NomineeSelection
    ) -> tuple[SeedGroup, str]:
        """Return the best of {constructed, N_first, best singleton}.

        Theorem 5's bound holds for
        max(sigma(N_first), sigma({e_max})); Dysim returns at least
        that by explicitly considering both (Sec. IV-C).
        """
        candidates: list[tuple[str, SeedGroup]] = [("dysim", constructed)]
        if selection.nominees:
            n_first = SeedGroup(
                Seed(user, item, 1)
                for user, item in sorted(selection.nominees)
            )
            candidates.append(("nominees-first-promotion", n_first))
        if selection.best_singleton is not None:
            user, item = selection.best_singleton
            candidates.append(
                ("best-singleton", SeedGroup([Seed(user, item, 1)]))
            )
        best_name, best_group, best_value = "dysim", constructed, -np.inf
        for name, group in candidates:
            value = self._dynamic_estimator.sigma(group)
            if value > best_value:
                best_name, best_group, best_value = name, group, value
        return best_group, best_name
