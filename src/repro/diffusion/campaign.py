"""The multi-promotion diffusion simulator (Sec. III).

One :class:`CampaignSimulator.run` plays a single random realization of
a campaign: ``T`` promotions, each made of steps ``zeta_t = 0, 1, ...``.
At ``zeta_t = 0`` the seeds of promotion ``t`` newly adopt their items;
at each later step every user who newly adopted an item at the previous
step promotes it to all friends; friends who have not adopted it yet
decide with ``Pact(u', u) * Ppref(u, x)`` (IC) or by threshold crossing
(LT), and every promotion event may additionally trigger *extra
adoptions* of relevant items with ``Pext`` — independent of the
influence decision and of the friend's prior adoption of the promoted
item (footnote 9; this is what lets Lemma 1 realize one association
coin per (arc, item, item) and keeps the frozen spread submodular).
All adoption decisions of a step are made against the previous step's
perception state; the state then
updates (weightings -> relevance -> preferences / influence) before the
next step.  A promotion ends when a step produces no new adoption; the
next promotion starts from the inherited state.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel, aggregated_influence
from repro.errors import SimulationError
from repro.perception.state import PerceptionState
from repro.social.csr import row_gather

__all__ = ["CampaignOutcome", "CampaignSimulator"]


@dataclass
class CampaignOutcome:
    """Result of one simulated campaign realization.

    Attributes
    ----------
    new_adoptions:
        Boolean (n_users, n_items): adoptions that happened *during*
        this run (seed self-adoptions included, inherited ones not).
    importance:
        Item importance vector (kept for restricted sigma queries).
    sigma_by_promotion:
        Importance-weighted new adoptions per promotion (1-based list
        index 0 = promotion 1).
    state:
        Final perception state (supports Eq. (13) likelihoods and the
        adaptive algorithm's observation step).
    steps_run:
        Total diffusion steps across all promotions.
    """

    new_adoptions: np.ndarray
    importance: np.ndarray
    sigma_by_promotion: list[float]
    state: PerceptionState
    steps_run: int

    @property
    def sigma(self) -> float:
        """Importance-aware influence spread of this realization."""
        return float(self.new_adoptions.sum(axis=0) @ self.importance)

    def sigma_restricted(self, users: Iterable[int]) -> float:
        """Spread counting only adopters inside ``users`` (sigma_tau)."""
        index = np.fromiter(set(users), dtype=int)
        if index.size == 0:
            return 0.0
        counts = self.new_adoptions[index].sum(axis=0)
        return float(counts @ self.importance)

    def adopters_of(self, item: int) -> int:
        """Number of users who newly adopted ``item`` in this run."""
        return int(self.new_adoptions[:, item].sum())


class CampaignSimulator:
    """Plays campaign realizations for one IMDPP instance.

    Monte-Carlo chunks whose recipe is frozen (no resumed state, no
    state collectors) never construct one: they play through the
    bit-identical packed pass of :mod:`repro.diffusion.repkernel`
    instead (see :func:`repro.engine.replication.run_chunk`).

    Parameters
    ----------
    instance:
        The problem instance.
    model:
        Trigger model (IC by default, as in the paper's experiments).
    max_steps_per_promotion:
        Safety cap; the diffusion provably terminates (users cannot
        re-adopt) but the cap bounds worst-case step counts.
    extra_adoption_floor:
        ``Pext`` values below this are skipped without drawing, which
        prunes the O(items) inner loop where relevance is ~0.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
        max_steps_per_promotion: int = 200,
        extra_adoption_floor: float = 1e-6,
    ):
        self.instance = instance
        self.model = model
        self.max_steps_per_promotion = int(max_steps_per_promotion)
        self.extra_adoption_floor = float(extra_adoption_floor)
        self._base_state: PerceptionState | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        seed_group: SeedGroup,
        rng: np.random.Generator,
        until_promotion: int | None = None,
        initial_state: PerceptionState | None = None,
        start_promotion: int = 1,
    ) -> CampaignOutcome:
        """Simulate one realization.

        Parameters
        ----------
        seed_group:
            The seeds; promotions beyond ``until_promotion`` are
            ignored (used by TDSI, which evaluates prefixes).
        rng:
            Source of all randomness for this realization.
        until_promotion:
            Last promotion to simulate (default: ``T``).
        initial_state:
            Resume from an existing state (adaptive IM); it is copied,
            never mutated.
        start_promotion:
            First promotion to play (adaptive IM resumes mid-campaign).
        """
        instance = self.instance
        last = until_promotion or instance.n_promotions
        if last > instance.n_promotions:
            raise SimulationError(
                f"until_promotion {last} exceeds T={instance.n_promotions}"
            )
        if initial_state is not None:
            state = initial_state.copy()
        else:
            # Copy from a simulator-held pristine state rather than
            # rebuilding one per realization: the copies share its
            # clipped base preferences (and, under beta == 0, its
            # preference rows), so consecutive Monte-Carlo samples skip
            # recomputing them.
            if self._base_state is None:
                self._base_state = instance.new_state()
            state = self._base_state.copy()
        new_adoptions = np.zeros(
            (instance.n_users, instance.n_items), dtype=bool
        )
        sigma_by_promotion: list[float] = []
        lt_thresholds: dict[tuple[int, int], float] = {}
        steps_run = 0

        for promotion in range(start_promotion, last + 1):
            frontier = self._seed_step(
                seed_group, promotion, state, new_adoptions
            )
            promotion_sigma = self._importance_of(frontier)
            step = 0
            while frontier and step < self.max_steps_per_promotion:
                step += 1
                steps_run += 1
                adopted_now = self._diffusion_step(
                    frontier, state, new_adoptions, rng, lt_thresholds
                )
                promotion_sigma += self._importance_of(adopted_now)
                frontier = adopted_now
            sigma_by_promotion.append(promotion_sigma)

        return CampaignOutcome(
            new_adoptions=new_adoptions,
            importance=instance.importance,
            sigma_by_promotion=sigma_by_promotion,
            state=state,
            steps_run=steps_run,
        )

    # ------------------------------------------------------------------
    def _importance_of(self, adoptions: list[tuple[int, int]]) -> float:
        return float(
            sum(self.instance.importance[item] for _, item in adoptions)
        )

    def _seed_step(
        self,
        seed_group: SeedGroup,
        promotion: int,
        state: PerceptionState,
        new_adoptions: np.ndarray,
    ) -> list[tuple[int, int]]:
        """``zeta_t = 0``: seeds newly adopt their promoted items."""
        step_adoptions: dict[int, list[int]] = defaultdict(list)
        frontier: list[tuple[int, int]] = []
        for seed in seed_group.by_promotion(promotion):
            if state.has_adopted(seed.user, seed.item):
                continue  # cannot adopt the same item twice
            if seed.item in step_adoptions[seed.user]:
                continue
            step_adoptions[seed.user].append(seed.item)
            new_adoptions[seed.user, seed.item] = True
            frontier.append((seed.user, seed.item))
        state.apply_step_adoptions(step_adoptions)
        return frontier

    def _commit_step(
        self,
        step_adoptions: dict[int, set[int]],
        state: PerceptionState,
        new_adoptions: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Commit one step's adoption decisions and build the frontier.

        Users commit in first-decision order, items ascending per user
        — the order the next step's frontier (and hence its RNG
        stream) depends on.
        """
        committed: list[tuple[int, int]] = []
        commit_lists: dict[int, list[int]] = {}
        for user, items in step_adoptions.items():
            fresh = [i for i in sorted(items) if not state.has_adopted(user, i)]
            if fresh:
                commit_lists[user] = fresh
                for item in fresh:
                    new_adoptions[user, item] = True
                    committed.append((user, item))
        state.apply_step_adoptions(commit_lists)
        return committed

    def _diffusion_step(
        self,
        frontier: list[tuple[int, int]],
        state: PerceptionState,
        new_adoptions: np.ndarray,
        rng: np.random.Generator,
        lt_thresholds: dict[tuple[int, int], float],
    ) -> list[tuple[int, int]]:
        """One influence-propagation step; returns the new frontier.

        Gathers every frontier out-arc as index arrays via the CSR
        core, computes all event probabilities in batched NumPy
        expressions against the previous step's state, and flips the
        whole step's coins with a single ``rng.random(k)`` laid out in
        the canonical event order — frontier entries in commit order,
        each entry's out-arcs in CSR row order, per arc the influence
        (or LT-threshold) draw first and then the association draws by
        item ascending.  A ``Generator.random(k)`` call consumes the
        identical substream as ``k`` scalar draws, so the step matches
        the per-arc scalar loop of ``tests/reference`` draw for draw
        (pinned by ``tests/diffusion/test_step_equivalence``).
        """
        use_lt = self.model is DiffusionModel.LINEAR_THRESHOLD
        n_items = state.n_items
        csr = state.network.csr

        promoters = np.fromiter(
            (pair[0] for pair in frontier), dtype=np.int64, count=len(frontier)
        )
        promoted = np.fromiter(
            (pair[1] for pair in frontier), dtype=np.int64, count=len(frontier)
        )
        starts = csr.out_indptr[promoters]
        counts = csr.out_indptr[promoters + 1] - starts
        if not counts.sum():
            return []
        gather = row_gather(starts, counts)
        sources = np.repeat(promoters, counts)
        items = np.repeat(promoted, counts)
        targets = csr.out_indices[gather]
        strengths = state.influence_batch(
            sources, targets, csr.out_strength[gather]
        )
        # Arcs with zero strength produce no events at all (no draws),
        # exactly like the scalar loop's early ``continue``.
        live = strengths > 0.0
        if not live.any():
            return []
        sources = sources[live]
        items = items[live]
        targets = targets[live]
        strengths = strengths[live]
        n_events = targets.size

        already = state.adopted_many(targets, items)
        preferences = state.preference_gather(targets, items)

        # Association (Pext) coins: probabilities and eligibility per
        # event over all items, mirroring extra_adoption_probs exactly
        # (clip before the association_scale factor).
        scale = state.params.association_scale
        if scale != 0.0:
            unique_keys, inverse = np.unique(
                targets * n_items + items, return_inverse=True
            )
            unique_rows = state.complementary_rows(unique_keys)
            extra_probs = scale * np.clip(
                (strengths * preferences)[:, None] * unique_rows[inverse],
                0.0,
                1.0,
            )
            eligible = extra_probs > self.extra_adoption_floor
            eligible[np.arange(n_events), items] = False
            eligible &= ~state.adopted_matrix(targets)
            n_extra = eligible.sum(axis=1)
        else:
            eligible = None
            n_extra = np.zeros(n_events, dtype=np.int64)

        # Which events open with a draw: IC flips an influence coin for
        # every not-yet-adopted (target, item); LT draws a threshold
        # only on the first strength-positive encounter of a
        # (target, item) without one.
        if use_lt:
            needs_draw = np.zeros(n_events, dtype=bool)
            undecided = ~already
            for event in np.flatnonzero(undecided).tolist():
                key = (int(targets[event]), int(items[event]))
                if key not in lt_thresholds:
                    needs_draw[event] = True
                    lt_thresholds[key] = None  # placeholder, filled below
        else:
            needs_draw = ~already

        draws_per_event = needs_draw.astype(np.int64) + n_extra
        offsets = np.zeros(n_events + 1, dtype=np.int64)
        np.cumsum(draws_per_event, out=offsets[1:])
        total_draws = int(offsets[-1])
        draws = rng.random(total_draws) if total_draws else np.empty(0)

        adopted_events: list[np.ndarray] = []
        adopted_users: list[np.ndarray] = []
        adopted_items: list[np.ndarray] = []
        adopted_phase: list[np.ndarray] = []

        if use_lt:
            for event in np.flatnonzero(needs_draw).tolist():
                key = (int(targets[event]), int(items[event]))
                lt_thresholds[key] = float(draws[offsets[event]])
            decided = np.flatnonzero(undecided)
            if decided.size:
                totals: dict[tuple[int, int], float] = {}
                success = np.zeros(decided.size, dtype=bool)
                for position, event in enumerate(decided.tolist()):
                    key = (int(targets[event]), int(items[event]))
                    total = totals.get(key)
                    if total is None:
                        total = self._lt_total(key[0], key[1], state)
                        totals[key] = total
                    success[position] = total >= lt_thresholds[key]
                winners = decided[success]
                adopted_events.append(winners)
                adopted_users.append(targets[winners])
                adopted_items.append(items[winners])
                adopted_phase.append(np.zeros(winners.size, dtype=np.int64))
        else:
            decided = np.flatnonzero(needs_draw)
            if decided.size:
                success = (
                    draws[offsets[decided]]
                    < strengths[decided] * preferences[decided]
                )
                winners = decided[success]
                adopted_events.append(winners)
                adopted_users.append(targets[winners])
                adopted_items.append(items[winners])
                adopted_phase.append(np.zeros(winners.size, dtype=np.int64))

        if eligible is not None and n_extra.sum():
            event_index, item_index = np.nonzero(eligible)
            extra_before = np.zeros(n_events + 1, dtype=np.int64)
            np.cumsum(n_extra, out=extra_before[1:])
            rank = np.arange(event_index.size) - extra_before[event_index]
            positions = (
                offsets[event_index] + needs_draw[event_index] + rank
            )
            success = draws[positions] < extra_probs[event_index, item_index]
            adopted_events.append(event_index[success])
            adopted_users.append(targets[event_index[success]])
            adopted_items.append(item_index[success])
            adopted_phase.append(1 + rank[success])

        step_adoptions: dict[int, set[int]] = defaultdict(set)
        if adopted_events:
            events = np.concatenate(adopted_events)
            users = np.concatenate(adopted_users)
            new_items = np.concatenate(adopted_items)
            phases = np.concatenate(adopted_phase)
            # Scalar insertion order: events ascending, the influence
            # decision before that event's association wins (item
            # ascending).  The first insertion per user pins the
            # commit order of the next frontier.
            order = np.argsort(events * (n_items + 1) + phases, kind="stable")
            for user, item in zip(
                users[order].tolist(), new_items[order].tolist()
            ):
                step_adoptions[user].add(item)

        return self._commit_step(step_adoptions, state, new_adoptions)

    def _lt_total(
        self, user: int, item: int, state: PerceptionState
    ) -> float:
        """Preference-gated LT influence mass for one (user, item).

        The capped in-neighbour accumulation is exactly
        ``AIS(user, item)`` under LT — delegate to the one
        implementation of that float-ordering contract instead of
        keeping a second copy in sync.
        """
        ais = aggregated_influence(
            state, DiffusionModel.LINEAR_THRESHOLD, user, item
        )
        return ais * state.preference_of(user, item)
