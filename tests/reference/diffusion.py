"""Diffusion reference: the scalar per-arc step."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.diffusion.campaign import EXTRA_ADOPTION_FLOOR, CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.perception.state import PerceptionState

__all__ = ["ScalarCampaignSimulator"]


class ScalarCampaignSimulator(CampaignSimulator):
    """:class:`CampaignSimulator` with the pre-CSR per-arc step.

    The executable specification of the canonical event order
    (DESIGN.md §3): frontier entries in commit order, each entry's
    out-arcs in adjacency order, per arc the influence (or LT
    threshold) draw first and then the association draws by item
    ascending.  The equivalence suite asserts the production step
    reproduces it bit for bit, adoptions and RNG stream position alike.
    """

    def _diffusion_step(
        self,
        frontier: list[tuple[int, int]],
        state: PerceptionState,
        new_adoptions: np.ndarray,
        rng: np.random.Generator,
        lt_thresholds: dict[tuple[int, int], float],
    ) -> list[tuple[int, int]]:
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
