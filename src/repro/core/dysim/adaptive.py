"""Adaptive IM variant of Dysim (Sec. V-D).

Adaptive influence maximization observes the realized propagation of
each promotion before planning the next, **without** a predefined
budget allocation across promotions.  Per the paper, for each round
``t < T`` the modified TMI selects one nominee at a time by MCP on the
*observed* state, rejects a nominee as soon as it would promote a
substitutable item into an overlapping market (antagonism), and TDSI
only compares timings ``t`` and ``t + 1`` — once the best candidate
prefers ``t + 1``, planning for round ``t`` stops and the remaining
nominees wait.  The final round spends whatever budget remains.

Adaptive planning is *dynamics-aware*: every candidate evaluation
replays the observed perception state forward, which only Monte-Carlo
simulation can do.  ``DysimConfig.oracle`` (the frozen-phase sketch
and RR-set oracles) therefore does not apply here — reseeding rounds
batch their Monte-Carlo candidate blocks over the execution backend
via :func:`~repro.core.selection.replicated_sigma_stats` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dysim.algorithm import DysimConfig
from repro.core.dysim.clustering import average_relevance_matrices
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import replicated_sigma_stats
from repro.diffusion.campaign import CampaignSimulator
from repro.engine import ExecutionBackend, ReplicationTask, SerialBackend
from repro.perception.state import PerceptionState
from repro.social.distances import bfs_hops
from repro.utils.rng import RngFactory

__all__ = ["AdaptiveResult", "AdaptiveDysim"]


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive campaign (a single realized world)."""

    seed_group: SeedGroup
    sigma_realized: float
    sigma_by_promotion: list[float]
    spent: float
    rounds: list[list[Seed]] = field(default_factory=list)


class AdaptiveDysim:
    """Round-by-round Dysim with observation between promotions.

    ``backend`` is borrowed, as in :class:`~repro.core.dysim.Dysim`;
    ``None`` runs the planning rounds on a private serial backend.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        config: DysimConfig | None = None,
        backend: ExecutionBackend | None = None,
    ):
        self.instance = instance
        self.config = config or DysimConfig()
        self.simulator = CampaignSimulator(instance, model=self.config.model)
        self._factory = RngFactory(self.config.seed).child("adaptive")
        self._backend = backend if backend is not None else SerialBackend()

    # ------------------------------------------------------------------
    def run(self, world_seed: int = 0) -> AdaptiveResult:
        """Play one adaptive campaign against the world ``world_seed``."""
        instance = self.instance
        state = instance.new_state()
        spent = 0.0
        all_seeds = SeedGroup()
        rounds: list[list[Seed]] = []
        sigma_by_promotion: list[float] = []
        sigma_realized = 0.0
        deferred: list[tuple[int, int]] = []

        for promotion in range(1, instance.n_promotions + 1):
            budget_left = instance.budget - spent
            picks = self._plan_round(
                state, promotion, budget_left, deferred
            )
            round_seeds = [
                Seed(user, item, promotion) for user, item in picks["now"]
            ]
            deferred = picks["deferred"]
            for seed in round_seeds:
                spent += instance.cost(seed.user, seed.item)
                all_seeds.add(seed)
            rounds.append(round_seeds)

            # Observe: actually play promotion t in the real world.
            world_rng = self._factory.stream("world", world_seed, promotion)
            outcome = self.simulator.run(
                SeedGroup(round_seeds),
                world_rng,
                until_promotion=promotion,
                initial_state=state,
                start_promotion=promotion,
            )
            state = outcome.state
            sigma_by_promotion.append(outcome.sigma)
            sigma_realized += outcome.sigma

        return AdaptiveResult(
            seed_group=all_seeds,
            sigma_realized=sigma_realized,
            sigma_by_promotion=sigma_by_promotion,
            spent=spent,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    def _expected_round_sigmas(
        self,
        groups: list[SeedGroup],
        state: PerceptionState,
        promotion: int,
        horizon: int,
    ) -> list[float]:
        """Monte-Carlo spreads of playing each group from the state.

        The whole candidate block fans out through the configured
        execution backend in one call
        (:func:`~repro.core.selection.replicated_sigma_stats`), so a
        process pool parallelizes across candidates; sample ``i`` of
        every group replays the substream ``("plan", promotion, i)``
        on every backend, preserving common random numbers — values
        are bit-identical to evaluating the groups one at a time.
        """
        horizon = min(horizon, self.instance.n_promotions)
        base = ReplicationTask(
            instance=self.instance,
            model=self.config.model,
            rng_seed=self._factory.seed,
            rng_context=("plan", promotion),
            seed_group=SeedGroup(),
            until_promotion=horizon,
            initial_state=state,
            start_promotion=promotion,
        )
        stats = replicated_sigma_stats(
            self._backend, base, groups, self.config.n_samples_inner
        )
        return [mean for mean, _ in stats]

    def _expected_round_sigma(
        self,
        seeds: list[Seed],
        state: PerceptionState,
        promotion: int,
        horizon: int,
    ) -> float:
        """Single-group convenience over :meth:`_expected_round_sigmas`."""
        return self._expected_round_sigmas(
            [SeedGroup(seeds)], state, promotion, horizon
        )[0]

    def _is_antagonistic(
        self,
        candidate: tuple[int, int],
        chosen: list[tuple[int, int]],
        substitutable: np.ndarray,
        complementary: np.ndarray,
    ) -> bool:
        """True if the candidate promotes a substitute into an
        overlapping market (within 2 hops of an already-chosen nominee
        whose item is more substitutable than complementary)."""
        user, item = candidate
        nearby = bfs_hops(
            self.instance.network, user, max_hops=self.config.hop_threshold
        )
        for other_user, other_item in chosen:
            if other_user not in nearby or other_item == item:
                continue
            if substitutable[item, other_item] > complementary[item, other_item]:
                return True
        return False

    def _plan_round(
        self,
        state: PerceptionState,
        promotion: int,
        budget_left: float,
        carried: list[tuple[int, int]],
    ) -> dict[str, list[tuple[int, int]]]:
        """Select this round's nominees and decide now-vs-next timing."""
        instance = self.instance
        last_round = promotion == instance.n_promotions
        avg_c, avg_s = average_relevance_matrices(
            instance, weight_rows=state.weights
        )
        chosen: list[tuple[int, int]] = []
        spent = 0.0
        base_value = self._expected_round_sigma(
            [], state, promotion, promotion
        )
        current_value = base_value

        candidates = list(carried) + [
            (user, item)
            for user in instance.network.users()
            if instance.network.out_degree(user) > 0
            for item in instance.items
            if not state.has_adopted(user, item)
        ]
        seen: set[tuple[int, int]] = set()
        pool: list[tuple[int, int]] = []
        for pair in candidates:
            if pair not in seen:
                seen.add(pair)
                pool.append(pair)
        pool_cap = self.config.candidate_pool or len(pool)
        pool = self._heuristic_rank(pool, state)[:pool_cap]

        while pool:
            # One batched backend call evaluates every affordable
            # candidate's trial group; the scan below replicates the
            # scalar ratio comparison (including tie resolution to the
            # earliest pool entry) on the returned values.
            affordable = [
                pair
                for pair in pool
                if instance.cost(*pair) <= budget_left - spent
            ]
            values = self._expected_round_sigmas(
                [
                    SeedGroup(
                        [Seed(pair[0], pair[1], promotion)]
                        + [Seed(u, x, promotion) for u, x in chosen]
                    )
                    for pair in affordable
                ],
                state,
                promotion,
                promotion,
            )
            best_pair, best_ratio, best_value = None, 0.0, current_value
            for pair, value in zip(affordable, values):
                ratio = (value - current_value) / instance.cost(*pair)
                if ratio > best_ratio:
                    best_pair, best_ratio, best_value = pair, ratio, value
            if best_pair is None:
                break
            if not last_round and self._is_antagonistic(
                best_pair, chosen, avg_s, avg_c
            ):
                break  # reject the antagonism-causing nominee, stop TMI
            chosen.append(best_pair)
            spent += instance.cost(*best_pair)
            current_value = best_value

        if last_round:
            return {"now": chosen, "deferred": []}

        # TDSI restricted to t and t+1: defer nominees that prefer t+1.
        now: list[tuple[int, int]] = []
        deferred: list[tuple[int, int]] = []
        committed: list[Seed] = []
        for pair in chosen:
            if deferred:
                deferred.append(pair)
                continue
            value_now, value_next = self._expected_round_sigmas(
                [
                    SeedGroup(
                        committed + [Seed(pair[0], pair[1], promotion)]
                    ),
                    SeedGroup(
                        committed + [Seed(pair[0], pair[1], promotion + 1)]
                    ),
                ],
                state,
                promotion,
                promotion + 1,
            )
            if value_next > value_now:
                deferred.append(pair)
            else:
                now.append(pair)
                committed.append(Seed(pair[0], pair[1], promotion))
        return {"now": now, "deferred": deferred}

    def _heuristic_rank(
        self, pool: list[tuple[int, int]], state: PerceptionState
    ) -> list[tuple[int, int]]:
        """Cheap ranking mirroring nominee pre-selection."""
        instance = self.instance

        def score(pair: tuple[int, int]) -> float:
            user, item = pair
            return (
                (1.0 + instance.network.out_degree(user))
                * state.preference_of(user, item)
                * max(float(instance.importance[item]), 1e-9)
                / instance.cost(user, item)
            )

        return sorted(pool, key=score, reverse=True)
