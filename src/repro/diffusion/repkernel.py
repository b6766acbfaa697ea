"""Replication-lockstep campaign kernel: the packed Monte-Carlo pass.

:class:`~repro.diffusion.campaign.CampaignSimulator` plays one
realization at a time; a Monte-Carlo sigma estimate plays dozens.  At
scale the per-replication Python overhead — the promotion/step loop,
frontier bookkeeping, one dense ``(n_users, n_items)`` state copy per
run, dozens of small-array NumPy dispatches per step — dominates the
actual event math.  This module advances a whole chunk of R
replications *in lockstep*: per-replication adoption state is packed
into an ``(n_pairs, ceil(R/64))`` uint64 matrix (the replication-major
sibling of :class:`repro.sketch.reachkernel.WorldLayout`), the
frontiers of every live replication are concatenated into one event
array gathered once per step over the shared CSR, and each
replication's coins still come from its own generator — one
``rng.random(k)`` per replication per step, laid out in the canonical
event order of DESIGN.md §3.  Draw streams are therefore bit-identical
to the per-replication step, draw for draw: same adoptions, same
sigmas, same final ``bit_generator.state`` (pinned by
``tests/diffusion/test_step_equivalence.py``).

The packed pass needs frozen perception dynamics (``eta == beta ==
gamma == 0`` — the regime of every selection-phase sigma estimate;
``association_scale`` may be nonzero, extra adoptions are part of the
diffusion itself).  Under learning dynamics the per-event
probabilities depend on each replication's own perception state and
nothing can be shared across the replication axis.
:func:`repro.engine.replication.run_chunk` decides per chunk from the
recipe alone (:func:`~repro.engine.replication.lockstep_applicable`):
frozen recipes without resumed states or collectors take this pass,
everything else replays ``CampaignSimulator.run`` per replication.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.errors import SimulationError
from repro.social.csr import row_gather

__all__ = [
    "LockstepOutcome",
    "ReplicationLayout",
    "run_campaigns_lockstep",
]


class ReplicationLayout:
    """Packed-word layout of the *replications* axis.

    Replication ``r`` lives at bit ``r & 63`` of word ``r >> 6`` — the
    replication-major sibling of
    :class:`~repro.sketch.reachkernel.WorldLayout` (worlds axis) and
    :class:`~repro.core.selection.PairLayout` (users axis).  Adoption
    state for R replications over ``n_pairs = n_users * n_items``
    (user, item) pairs packs into an ``(n_pairs, n_words)`` uint64
    matrix; a pair's row answers "which replications adopted this
    (user, item)" in one word gather, and the
    ``(n_users, n_items, n_words)`` reshape view answers "which items
    has this user adopted in replication r" as one row gather.
    """

    def __init__(self, n_replications: int):
        if n_replications < 1:
            raise ValueError(
                f"n_replications must be >= 1, got {n_replications}"
            )
        self.n_replications = int(n_replications)
        self.n_words = -(-self.n_replications // 64)
        reps = np.arange(self.n_replications)
        #: Word index of each replication (int64, usable as an index).
        self.word_of = (reps >> 6).astype(np.int64)
        #: Single-bit mask of each replication within its word.
        self.mask_of = np.left_shift(
            np.uint64(1), (reps % 64).astype(np.uint64)
        )


class LockstepOutcome:
    """Per-replication result of a lockstep campaign pass.

    The duck-typed sibling of
    :class:`~repro.diffusion.campaign.CampaignOutcome`: same ``sigma``
    / ``sigma_restricted`` / ``new_adoptions`` / ``sigma_by_promotion``
    / ``steps_run`` / ``state`` surface, same floats bit for bit — but
    backed by the compact committed-adoption arrays, so consumers that
    only need sigmas (every selection-phase estimate) never pay for a
    dense ``(n_users, n_items)`` matrix or a perception-state copy.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        committed_users: np.ndarray,
        committed_items: np.ndarray,
        sigma_by_promotion: list[float],
        steps_run: int,
    ):
        self.instance = instance
        #: Adoptions of this realization in commit order (seed
        #: self-adoptions included; each (user, item) appears once).
        self.committed_users = committed_users
        self.committed_items = committed_items
        self.sigma_by_promotion = sigma_by_promotion
        self.steps_run = steps_run
        self._state = None

    @property
    def importance(self) -> np.ndarray:
        return self.instance.importance

    @property
    def new_adoptions(self) -> np.ndarray:
        """Boolean (n_users, n_items) matrix of this run's adoptions."""
        matrix = np.zeros(
            (self.instance.n_users, self.instance.n_items), dtype=bool
        )
        matrix[self.committed_users, self.committed_items] = True
        return matrix

    def _item_counts(self, keep: np.ndarray | None = None) -> np.ndarray:
        items = self.committed_items
        if keep is not None:
            items = items[keep]
        return np.bincount(items, minlength=self.instance.n_items)

    @property
    def sigma(self) -> float:
        """Importance-aware spread of this realization.

        Committed pairs are unique, so the per-item adopter counts
        equal ``new_adoptions.sum(axis=0)`` exactly (same int64
        dtype); the closing contraction is the same
        ``counts @ importance`` dot — bit-identical to
        :attr:`CampaignOutcome.sigma` without the dense matrix.
        """
        return float(self._item_counts() @ self.importance)

    def sigma_restricted(self, users: Iterable[int]) -> float:
        """Spread counting only adopters inside ``users`` (sigma_tau)."""
        index = np.fromiter(set(users), dtype=int)
        if index.size == 0:
            return 0.0
        member = np.zeros(self.instance.n_users, dtype=bool)
        member[index] = True
        counts = self._item_counts(keep=member[self.committed_users])
        return float(counts @ self.importance)

    def adopters_of(self, item: int) -> int:
        """Number of users who newly adopted ``item`` in this run."""
        return int(self._item_counts()[item])

    @property
    def state(self):
        """Final perception state, reconstructed lazily.

        Under the frozen dynamics the kernel requires, the adoption
        sets fully determine every observable read of the final state
        (weights never move, preferences stay at the clipped base,
        complementary rows are campaign constants), so replaying the
        adoptions onto a fresh state reproduces it.  Only the internal
        accumulated-relevance buffers may differ in summation order —
        they are unread when ``beta == 0``.
        """
        if self._state is None:
            state = self.instance.new_state()
            adoptions: dict[int, list[int]] = {}
            for user, item in zip(
                self.committed_users.tolist(), self.committed_items.tolist()
            ):
                adoptions.setdefault(user, []).append(item)
            state.apply_step_adoptions(adoptions)
            self._state = state
        return self._state


_EMPTY_I64 = np.empty(0, dtype=np.int64)


class _RepState:
    """Per-replication campaign bookkeeping (promotion progress)."""

    __slots__ = (
        "frontier_users",
        "frontier_items",
        "promotion",
        "steps_in_promotion",
        "promotion_sigma",
        "sigma_by_promotion",
        "steps_run",
        "lt_thresholds",
        "committed_users",
        "committed_items",
    )

    def __init__(self):
        self.frontier_users = _EMPTY_I64
        self.frontier_items = _EMPTY_I64
        self.promotion: int | None = None
        self.steps_in_promotion = 0
        self.promotion_sigma = 0.0
        self.sigma_by_promotion: list[float] = []
        self.steps_run = 0
        self.lt_thresholds: dict[tuple[int, int], float] = {}
        self.committed_users: list[np.ndarray] = []
        self.committed_items: list[np.ndarray] = []


def run_campaigns_lockstep(
    instance: IMDPPInstance,
    seed_group: SeedGroup,
    rngs: Sequence[np.random.Generator],
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    until_promotion: int | None = None,
    start_promotion: int = 1,
    max_steps_per_promotion: int = 200,
    extra_adoption_floor: float = 1e-6,
) -> list[LockstepOutcome]:
    """Play one campaign realization per generator, all in lockstep.

    Replication ``r`` consumes ``rngs[r]`` exactly as a
    :meth:`CampaignSimulator.run` call would — one ``random(k)`` per
    step whose ``k`` counts that replication's own events in the
    canonical order — so outcomes and final generator states are
    bit-identical to R independent runs.  Requires frozen dynamics;
    raises :class:`~repro.errors.SimulationError` otherwise.
    """
    n_replications = len(rngs)
    if n_replications == 0:
        return []
    params = instance.dynamics
    if not params.is_frozen:
        raise SimulationError(
            "the lockstep pass requires frozen dynamics "
            "(eta == beta == gamma == 0); use CampaignSimulator.run "
            "for the dynamic regime"
        )
    last = until_promotion or instance.n_promotions
    if last > instance.n_promotions:
        raise SimulationError(
            f"until_promotion {last} exceeds T={instance.n_promotions}"
        )
    use_lt = model is DiffusionModel.LINEAR_THRESHOLD
    n_items = instance.n_items
    csr = instance.network.csr
    importance = instance.importance
    # One shared pristine state supplies the campaign-constant
    # probability ingredients (clipped preferences, frozen influence
    # pipeline, complementary rows) through the same code paths the
    # per-replication step calls — identical floats by construction.
    base_state = instance.new_state()
    scale = params.association_scale
    floor = float(extra_adoption_floor)
    cap = int(max_steps_per_promotion)

    layout = ReplicationLayout(n_replications)
    word_of, mask_of = layout.word_of, layout.mask_of
    adopted = np.zeros(
        (instance.n_users * n_items, layout.n_words), dtype=np.uint64
    )
    adopted3 = adopted.reshape(instance.n_users, n_items, layout.n_words)
    item_axis = np.arange(n_items)

    reps = [_RepState() for _ in range(n_replications)]
    seeds_by_promotion: dict[int, list[tuple[int, int]]] = {}

    def _seeds_of(promotion: int) -> list[tuple[int, int]]:
        cached = seeds_by_promotion.get(promotion)
        if cached is None:
            cached = [
                (seed.user, seed.item)
                for seed in seed_group.by_promotion(promotion)
            ]
            seeds_by_promotion[promotion] = cached
        return cached

    def _seed_step(r: int, promotion: int) -> None:
        """``zeta_t = 0`` for replication ``r`` (consumes no draws)."""
        rep = reps[r]
        word = int(word_of[r])
        mask = mask_of[r]
        per_user: dict[int, set[int]] = {}
        users: list[int] = []
        items: list[int] = []
        for user, item in _seeds_of(promotion):
            if adopted[user * n_items + item, word] & mask:
                continue  # cannot adopt the same item twice
            chosen = per_user.setdefault(user, set())
            if item in chosen:
                continue
            chosen.add(item)
            users.append(user)
            items.append(item)
        for user, item in zip(users, items):
            adopted[user * n_items + item, word] |= mask
        rep.frontier_users = np.array(users, dtype=np.int64)
        rep.frontier_items = np.array(items, dtype=np.int64)
        rep.promotion_sigma = float(sum(importance[i] for i in items))
        if users:
            rep.committed_users.append(rep.frontier_users)
            rep.committed_items.append(rep.frontier_items)

    def _advance(r: int) -> bool:
        """Move ``r`` to its next runnable diffusion step, or retire it.

        Mirrors the reference promotion loop: a promotion closes when
        its frontier empties or the step cap is hit, its sigma is
        appended, and the next promotion's seed step (which consumes
        no draws) plays immediately.
        """
        rep = reps[r]
        while True:
            if rep.frontier_users.size and rep.steps_in_promotion < cap:
                return True
            if rep.promotion is not None:
                rep.sigma_by_promotion.append(rep.promotion_sigma)
            next_promotion = (
                start_promotion
                if rep.promotion is None
                else rep.promotion + 1
            )
            if next_promotion > last:
                return False
            rep.promotion = next_promotion
            rep.steps_in_promotion = 0
            rep.frontier_users = _EMPTY_I64
            rep.frontier_items = _EMPTY_I64
            _seed_step(r, next_promotion)

    def _lt_total(r: int, user: int, item: int) -> float:
        """Preference-gated LT mass against replication ``r``'s state.

        Replays :meth:`CampaignSimulator._lt_total` /
        :func:`~repro.diffusion.models.aggregated_influence` exactly —
        in-row order, the frozen influence pipeline, the same
        accumulate-then-cap float sequence — with the adopter test
        answered by the packed bits.
        """
        word = int(word_of[r])
        mask = mask_of[r]
        neighbours, base = csr.in_row(user)
        total = 0.0
        if neighbours.size:
            adopters = (
                adopted[neighbours * n_items + item, word] & mask
            ) != 0
            selected = neighbours[adopters]
            if selected.size:
                strengths_in = base_state.influence_batch(
                    selected,
                    np.full(selected.size, user, dtype=np.int64),
                    base[adopters],
                )
                for strength in strengths_in.tolist():
                    if strength <= 0.0:
                        continue
                    total += strength
        return min(1.0, total) * base_state.preference_of(user, item)

    def _lockstep_step(active: list[int]) -> None:
        """One synchronized diffusion step over every runnable rep."""
        for r in active:
            rep = reps[r]
            rep.steps_run += 1
            rep.steps_in_promotion += 1
        entry_users = np.concatenate(
            [reps[r].frontier_users for r in active]
        )
        entry_items = np.concatenate(
            [reps[r].frontier_items for r in active]
        )
        entry_reps = np.repeat(
            np.asarray(active, dtype=np.int64),
            [reps[r].frontier_users.size for r in active],
        )
        for r in active:
            reps[r].frontier_users = _EMPTY_I64
            reps[r].frontier_items = _EMPTY_I64

        starts = csr.out_indptr[entry_users]
        counts = csr.out_indptr[entry_users + 1] - starts
        if not counts.sum():
            return
        gather = row_gather(starts, counts)
        sources = np.repeat(entry_users, counts)
        items = np.repeat(entry_items, counts)
        rep_of = np.repeat(entry_reps, counts)
        targets = csr.out_indices[gather]
        strengths = base_state.influence_batch(
            sources, targets, csr.out_strength[gather]
        )
        # Zero-strength arcs produce no events at all (no draws).
        live = strengths > 0.0
        if not live.any():
            return
        items = items[live]
        targets = targets[live]
        strengths = strengths[live]
        rep_of = rep_of[live]
        n_events = targets.size

        words = word_of[rep_of]
        masks = mask_of[rep_of]
        pair_keys = targets * n_items + items
        already = (adopted[pair_keys, words] & masks) != 0
        preferences = base_state.preference_gather(targets, items)
        # One product reused by the influence coins and the
        # association probabilities — the same elementwise floats the
        # per-replication step computes from its own event arrays.
        sp = strengths * preferences

        if scale != 0.0:
            unique_keys, inverse = np.unique(
                pair_keys, return_inverse=True
            )
            unique_rows = base_state.complementary_rows(unique_keys)
            inverse = inverse.astype(np.int64, copy=False)
        else:
            unique_rows = np.zeros((1, n_items))
            inverse = np.zeros(n_events, dtype=np.int64)


        # Which events open with a draw: IC flips an influence coin
        # for every not-yet-adopted (target, item); LT draws a
        # threshold only on the first strength-positive encounter of a
        # (target, item) without one.  Events are replication-major and
        # in-replication canonical, so each replication sees its own
        # events in exactly the reference order.
        if use_lt:
            needs_draw = np.zeros(n_events, dtype=bool)
            undecided = ~already
            for event in np.flatnonzero(undecided).tolist():
                thresholds = reps[int(rep_of[event])].lt_thresholds
                key = (int(targets[event]), int(items[event]))
                if key not in thresholds:
                    needs_draw[event] = True
                    thresholds[key] = None  # placeholder, filled below
        else:
            needs_draw = ~already

        eligible = None
        if scale != 0.0:
            extra_probs = scale * np.clip(
                sp[:, None] * unique_rows[inverse], 0.0, 1.0
            )
            eligible = extra_probs > floor
            eligible[np.arange(n_events), items] = False
            adopted_rows = adopted3[
                targets[:, None], item_axis[None, :], words[:, None]
            ]
            eligible &= (adopted_rows & masks[:, None]) == 0
            n_extra = eligible.sum(axis=1)
        else:
            n_extra = np.zeros(n_events, dtype=np.int64)

        draws_per_event = needs_draw.astype(np.int64) + n_extra
        offsets = np.zeros(n_events + 1, dtype=np.int64)
        np.cumsum(draws_per_event, out=offsets[1:])
        total_draws = int(offsets[-1])
        # One ``random(k)`` per replication per step: events are
        # replication-contiguous, so each replication's draws land in
        # its own slice of the canonical buffer — the exact substream
        # consumption of its per-replication reference step.
        draws = np.empty(total_draws)
        bounds = np.searchsorted(
            rep_of, np.asarray(active, dtype=np.int64)
        )
        bounds = np.append(bounds, n_events)
        for position, r in enumerate(active):
            lo = int(offsets[bounds[position]])
            hi = int(offsets[bounds[position + 1]])
            if hi > lo:
                draws[lo:hi] = rngs[r].random(hi - lo)

        adopted_events: list[np.ndarray] = []
        adopted_users: list[np.ndarray] = []
        adopted_items: list[np.ndarray] = []
        adopted_phase: list[np.ndarray] = []

        if use_lt:
            for event in np.flatnonzero(needs_draw).tolist():
                thresholds = reps[int(rep_of[event])].lt_thresholds
                key = (int(targets[event]), int(items[event]))
                thresholds[key] = float(draws[offsets[event]])
            decided = np.flatnonzero(undecided)
            if decided.size:
                totals: dict[tuple[int, int, int], float] = {}
                success = np.zeros(decided.size, dtype=bool)
                for position, event in enumerate(decided.tolist()):
                    r = int(rep_of[event])
                    key = (r, int(targets[event]), int(items[event]))
                    total = totals.get(key)
                    if total is None:
                        total = _lt_total(r, key[1], key[2])
                        totals[key] = total
                    success[position] = (
                        total >= reps[r].lt_thresholds[key[1:]]
                    )
                winners = decided[success]
                adopted_events.append(winners)
                adopted_users.append(targets[winners])
                adopted_items.append(items[winners])
                adopted_phase.append(
                    np.zeros(winners.size, dtype=np.int64)
                )
        else:
            decided = np.flatnonzero(needs_draw)
            if decided.size:
                success = draws[offsets[decided]] < sp[decided]
                winners = decided[success]
                adopted_events.append(winners)
                adopted_users.append(targets[winners])
                adopted_items.append(items[winners])
                adopted_phase.append(
                    np.zeros(winners.size, dtype=np.int64)
                )

        if eligible is not None and n_extra.sum():
            event_index, item_index = np.nonzero(eligible)
            extra_before = np.zeros(n_events + 1, dtype=np.int64)
            np.cumsum(n_extra, out=extra_before[1:])
            rank = np.arange(event_index.size) - extra_before[event_index]
            positions = (
                offsets[event_index] + needs_draw[event_index] + rank
            )
            success = (
                draws[positions] < extra_probs[event_index, item_index]
            )
            adopted_events.append(event_index[success])
            adopted_users.append(targets[event_index[success]])
            adopted_items.append(item_index[success])
            adopted_phase.append(1 + rank[success])

        if not adopted_events:
            return
        events = np.concatenate(adopted_events)
        users = np.concatenate(adopted_users)
        new_items = np.concatenate(adopted_items)
        phases = np.concatenate(adopted_phase)
        # Canonical insertion order (events ascending, influence
        # decision before that event's association wins) — events
        # are replication-contiguous, so the global sort preserves
        # each replication's reference order.
        order = np.argsort(
            events * (n_items + 1) + phases, kind="stable"
        )
        ordered_reps = rep_of[events[order]]
        ordered_users = users[order]
        ordered_items = new_items[order]

        if ordered_users.size == 0:
            return

        # Commit per replication: users in first-decision order, items
        # ascending per user, already-adopted pairs dropped — exactly
        # ``CampaignSimulator._commit_step``.
        step_adoptions: dict[int, dict[int, set[int]]] = {}
        for r, user, item in zip(
            ordered_reps.tolist(),
            ordered_users.tolist(),
            ordered_items.tolist(),
        ):
            step_adoptions.setdefault(r, {}).setdefault(user, set()).add(
                item
            )
        for r, per_user in step_adoptions.items():
            rep = reps[r]
            word = int(word_of[r])
            mask = mask_of[r]
            committed_users: list[int] = []
            committed_items: list[int] = []
            for user, chosen in per_user.items():
                base_pair = user * n_items
                fresh = [
                    item
                    for item in sorted(chosen)
                    if not (adopted[base_pair + item, word] & mask)
                ]
                for item in fresh:
                    adopted[base_pair + item, word] |= mask
                    committed_users.append(user)
                    committed_items.append(item)
            rep.promotion_sigma += float(
                sum(importance[item] for item in committed_items)
            )
            if committed_users:
                rep.frontier_users = np.array(
                    committed_users, dtype=np.int64
                )
                rep.frontier_items = np.array(
                    committed_items, dtype=np.int64
                )
                rep.committed_users.append(rep.frontier_users)
                rep.committed_items.append(rep.frontier_items)

    active = [r for r in range(n_replications) if _advance(r)]
    while active:
        _lockstep_step(active)
        active = [r for r in active if _advance(r)]

    outcomes: list[LockstepOutcome] = []
    for rep in reps:
        outcomes.append(
            LockstepOutcome(
                instance=instance,
                committed_users=(
                    np.concatenate(rep.committed_users)
                    if rep.committed_users
                    else _EMPTY_I64
                ),
                committed_items=(
                    np.concatenate(rep.committed_items)
                    if rep.committed_items
                    else _EMPTY_I64
                ),
                sigma_by_promotion=rep.sigma_by_promotion,
                steps_run=rep.steps_run,
            )
        )
    return outcomes
