"""Diffusion reference: the scalar campaign simulator and scalar AIS.

Production plays every campaign realization through one kernel, the
packed lockstep pass of :mod:`repro.diffusion.campaign`.  This module
is its oracle: the campaign process of Sec. III written one promotion,
one step and one arc at a time against a :class:`PerceptionState`.
:func:`aggregated_influence` is the likelihood's oracle in the same
way: the AIS of Eq. (13) one (user, item) at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.campaign import (
    EXTRA_ADOPTION_FLOOR,
    MAX_STEPS_PER_PROMOTION,
)
from repro.diffusion.models import DiffusionModel
from repro.errors import SimulationError
from repro.perception.state import PerceptionState

__all__ = ["ScalarCampaignSimulator", "aggregated_influence"]


def aggregated_influence(
    state: PerceptionState,
    model: DiffusionModel,
    user: int,
    item: int,
) -> float:
    """``AIS(user, item)`` under the current perception state.

    The scalar AIS (footnote 31) that the one-pass
    :func:`repro.diffusion.models.adoption_likelihood` is pinned
    against.  Only in-neighbours that adopted ``item`` can promote it,
    so only their (possibly similarity-driven) strengths are computed;
    they are visited in row order (DESIGN §3).
    """
    probability_none = 1.0
    total = 0.0
    neighbours, base = state.network.csr.in_row(user)
    adopters = state.adopted_many(
        neighbours, np.full(neighbours.size, item, dtype=np.int64)
    )
    if adopters.any():
        strengths = state.influence_batch(
            neighbours[adopters],
            np.full(int(adopters.sum()), user, dtype=np.int64),
            base[adopters],
        )
        for strength in strengths.tolist():
            if strength <= 0.0:
                continue
            if model is DiffusionModel.INDEPENDENT_CASCADE:
                probability_none *= 1.0 - strength
            else:
                total += strength
    if model is DiffusionModel.INDEPENDENT_CASCADE:
        return 1.0 - probability_none
    return min(1.0, total)


@dataclass
class ScalarCampaignOutcome:
    """One reference realization, with its adoptions as a dense matrix.

    ``new_adoptions`` is boolean ``(n_users, n_items)``: the adoptions
    made during the run, seed self-adoptions included and inherited
    ones not.  ``sigma_by_promotion`` holds one importance-weighted sum
    per played promotion, ``state`` the final perception state.
    """

    new_adoptions: np.ndarray
    importance: np.ndarray
    sigma_by_promotion: list[float]
    state: PerceptionState
    steps_run: int

    @property
    def sigma(self) -> float:
        return float(self.new_adoptions.sum(axis=0) @ self.importance)

    def sigma_restricted(self, users: Iterable[int]) -> float:
        index = np.fromiter(set(users), dtype=int)
        if index.size == 0:
            return 0.0
        counts = self.new_adoptions[index].sum(axis=0)
        return float(counts @ self.importance)


class ScalarCampaignSimulator:
    """Plays one campaign realization per call, one arc at a time.

    The executable specification of the canonical event order
    (DESIGN.md §3): frontier entries in commit order, each entry's
    out-arcs in adjacency order, per arc the influence (or LT
    threshold) draw first and then the association draws by item
    ascending.  The equivalence suites assert that the packed pass
    reproduces it bit for bit, adoptions and RNG stream position alike.
    ``run`` takes the arguments of
    :meth:`repro.diffusion.campaign.CampaignSimulator.run`.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    ):
        self.instance = instance
        self.model = model

    def run(
        self,
        seed_group: SeedGroup,
        rng: np.random.Generator,
        until_promotion: int | None = None,
        initial_state: PerceptionState | None = None,
        start_promotion: int = 1,
    ) -> ScalarCampaignOutcome:
        instance = self.instance
        last = until_promotion or instance.n_promotions
        if last > instance.n_promotions:
            raise SimulationError(
                f"until_promotion {last} exceeds T={instance.n_promotions}"
            )
        state = (
            instance.new_state()
            if initial_state is None
            else initial_state.copy()
        )
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
            while frontier and step < MAX_STEPS_PER_PROMOTION:
                step += 1
                steps_run += 1
                frontier = self._diffusion_step(
                    frontier, state, new_adoptions, rng, lt_thresholds
                )
                promotion_sigma += self._importance_of(frontier)
            sigma_by_promotion.append(promotion_sigma)

        return ScalarCampaignOutcome(
            new_adoptions=new_adoptions,
            importance=instance.importance,
            sigma_by_promotion=sigma_by_promotion,
            state=state,
            steps_run=steps_run,
        )

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
        """One influence-propagation step; returns the new frontier."""
        step_adoptions: dict[int, set[int]] = defaultdict(set)
        use_lt = self.model is DiffusionModel.LINEAR_THRESHOLD

        for promoter, item in frontier:
            for target in state.network.out_neighbors(promoter):
                strength = state.influence(promoter, target)
                if strength <= 0.0:
                    continue
                if not state.has_adopted(target, item):
                    adopted_item = False
                    if use_lt:
                        adopted_item = self._lt_decision(
                            target, item, state, rng, lt_thresholds
                        )
                    else:
                        preference = state.preference_of(target, item)
                        adopted_item = rng.random() < strength * preference
                    if adopted_item:
                        step_adoptions[target].add(item)
                # The association coin belongs to the promotion event,
                # not to the influence decision (footnote 9): it flips
                # whether or not the target adopted, or already had,
                # the promoted item.  ``rng.random(k)`` consumes the
                # identical substream as ``k`` scalar draws.
                extra = state.extra_adoption_probs(target, promoter, item)
                candidates = np.flatnonzero(extra > EXTRA_ADOPTION_FLOOR)
                if candidates.size:
                    adopted_mask = state.adopted_row(target)
                    eligible = candidates[
                        (candidates != item) & ~adopted_mask[candidates]
                    ]
                    if eligible.size:
                        draws = rng.random(eligible.size)
                        for other in eligible[draws < extra[eligible]]:
                            step_adoptions[target].add(int(other))

        return self._commit_step(step_adoptions, state, new_adoptions)

    def _lt_decision(
        self,
        user: int,
        item: int,
        state: PerceptionState,
        rng: np.random.Generator,
        thresholds: dict[tuple[int, int], float],
    ) -> bool:
        """LT rule: accumulated weighted influence crosses a threshold.

        Thresholds are drawn once per (user, item) per realization; the
        preference gates the accumulated mass.
        """
        key = (user, item)
        if key not in thresholds:
            thresholds[key] = float(rng.random())
        total = 0.0
        for neighbour in state.network.in_neighbors(user):
            if item in state.adopted[neighbour]:
                total += state.influence(neighbour, user)
        total = min(1.0, total) * state.preference_of(user, item)
        return total >= thresholds[key]
