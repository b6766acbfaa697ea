"""The multi-promotion diffusion process (Sec. III) and its one kernel.

A campaign realization is ``T`` promotions, each made of steps
``zeta_t = 0, 1, ...``.  At ``zeta_t = 0`` the seeds of promotion ``t``
newly adopt their items; at each later step every user who newly
adopted an item at the previous step promotes it to all friends;
friends who have not adopted it yet decide with ``Pact(u', u) *
Ppref(u, x)`` (IC) or by threshold crossing (LT), and every promotion
event may additionally trigger *extra adoptions* of relevant items with
``Pext`` — independent of the influence decision and of the friend's
prior adoption of the promoted item (footnote 9; this is what lets
Lemma 1 realize one association coin per (arc, item, item) and keeps
the frozen spread submodular).  All adoption decisions of a step are
made against the previous step's perception state; the state then
updates (weightings -> relevance -> preferences / influence) before the
next step.  A promotion ends when a step produces no new adoption; the
next promotion starts from the inherited state.

:func:`run_campaigns_lockstep` plays one realization per generator, each
of its own seed group, a whole range of R replications *in lockstep*:
per-replication adoption state is packed into an
``(n_pairs, ceil(R/64))`` uint64 matrix (the replication-major sibling of
:class:`repro.sketch.reachkernel.WorldLayout`), the frontiers of every
live replication are concatenated into one event array gathered once
per step over the shared CSR, and each replication's coins still come
from its own generator — one ``rng.random(k)`` per replication per
step, laid out in the canonical event order of DESIGN.md §3.  Draw
streams are therefore bit-identical to the scalar per-arc reference of
``tests/reference``, draw for draw: same adoptions, same sigmas, same
final ``bit_generator.state`` (pinned by
``tests/diffusion/test_step_equivalence.py``).  Every Monte-Carlo
range plays here (:func:`repro.engine.replication.run_chunk`), and
:meth:`CampaignSimulator.run` is the same pass over one generator.

Under frozen dynamics (``eta == beta == gamma == 0``) arc strengths,
preferences and complementary rows are replication-independent and
computed once per step for all replications.  Under learning dynamics
each replication carries its own perception: a replication's users
read one shared base state (pristine, or the resumed ``initial_state``)
until they adopt there, and from then on a
:class:`~repro.perception.state.UserPerception` record of their own.
A step then computes every event's ``Pact`` / ``Ppref`` / ``r^C`` from
its own replication's state in one gather over all live replications,
and commits each replication's adoptions through the same update
functions, in the same order, as a :class:`PerceptionState` would.
Final states materialize on request (:attr:`CampaignOutcome.state`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.errors import SimulationError
from repro.perception.influence import (
    adoption_similarity_batch,
    influence_strength_batch,
)
from repro.perception.state import PerceptionState, UserPerception
from repro.social.csr import row_gather

__all__ = [
    "EXTRA_ADOPTION_FLOOR",
    "MAX_STEPS_PER_PROMOTION",
    "CampaignOutcome",
    "CampaignSimulator",
    "run_campaigns_lockstep",
]

#: ``Pext`` values at or below this are skipped without drawing, which
#: prunes the O(items) inner loop where relevance is ~0.  The sketch
#: skeleton reads the same floor, so the simulated and sketched
#: diffusions share one event space.
EXTRA_ADOPTION_FLOOR = 1e-6

#: Safety cap on the steps of one promotion; the diffusion provably
#: terminates (users cannot re-adopt) but the cap bounds worst-case
#: step counts.
MAX_STEPS_PER_PROMOTION = 200


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
        #: Per word, the bits of every replication it holds.
        self.all_of = np.zeros(self.n_words, dtype=np.uint64)
        np.bitwise_or.at(self.all_of, self.word_of, self.mask_of)


class _Replicas:
    """Adoption bits and perception state of R replications.

    Every replication starts from ``base``.  Adoptions land in the
    packed bits; under learning dynamics a user who adopts in
    replication ``r`` also gets a :class:`UserPerception` record in
    ``users[r]``, flagged in the ``touched`` bits, and every read for
    that (replication, user) goes through the record.  Frozen dynamics
    keep no records: every read is a shared ``base`` read.
    """

    def __init__(self, base: PerceptionState, layout: ReplicationLayout):
        self.base = base
        self.params = base.params
        self.layout = layout
        self.n_users = n_users = base.n_users
        self.n_items = n_items = base.n_items
        self.adopted = np.zeros(
            (n_users * n_items, layout.n_words), dtype=np.uint64
        )
        #: ``(n_users, n_items, n_words)`` view of ``adopted``.
        self.adopted3 = self.adopted.reshape(n_users, n_items, layout.n_words)
        inherited = base.adopted_matrix(np.arange(n_users))
        self.adopted[np.flatnonzero(inherited.reshape(-1))] = layout.all_of
        self.dynamic = not self.params.is_frozen
        self.users: list[dict[int, UserPerception]] = [
            {} for _ in range(layout.n_replications)
        ]
        self.touched = np.zeros((n_users, layout.n_words), dtype=np.uint64)
        #: Users with an inherited adoption (the similarity gate).
        self.inherited_any = inherited.any(axis=1)
        self._base_norms: dict[int, float] = {}

    # -- reads ---------------------------------------------------------
    def has_adopted(self, reps: np.ndarray, pair_keys: np.ndarray) -> np.ndarray:
        layout = self.layout
        words = layout.word_of[reps]
        return (self.adopted[pair_keys, words] & layout.mask_of[reps]) != 0

    def _touched(self, reps: np.ndarray, users: np.ndarray) -> np.ndarray:
        """Which (replication, user) entries hold a record."""
        layout = self.layout
        words = layout.word_of[reps]
        return (self.touched[users, words] & layout.mask_of[reps]) != 0

    def influence(
        self,
        reps: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        base_strengths: np.ndarray,
    ) -> np.ndarray:
        """``Pact(source, target)`` per arc, in each arc's replication.

        :meth:`PerceptionState.influence_batch` per replication: the
        similarity is computed only where both users have adopted
        something, once per distinct (replication, source, target).
        """
        params = self.params
        if params.gamma == 0.0:
            return self.base.influence_batch(sources, targets, base_strengths)
        similarities = np.zeros(base_strengths.size)
        both = np.flatnonzero(
            (self.inherited_any[sources] | self._touched(reps, sources))
            & (self.inherited_any[targets] | self._touched(reps, targets))
        )
        if both.size:
            n_users = self.n_users
            keys, inverse = np.unique(
                (reps[both] * n_users + sources[both]) * n_users
                + targets[both],
                return_inverse=True,
            )
            pair_reps, pairs = np.divmod(keys, n_users * n_users)
            pair_sources, pair_targets = np.divmod(pairs, n_users)
            values = self._similarities(pair_reps, pair_sources, pair_targets)
            similarities[both] = values[inverse.reshape(-1)]
        return influence_strength_batch(
            base_strengths, similarities, params.gamma, params.min_influence
        )

    def _similarities(
        self, reps: np.ndarray, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """``adoption_similarity`` of (replication, source, target) triples.

        The adoption rows come from the packed bits at once; weight
        norms are cached per weight vector.
        """
        layout = self.layout
        words = layout.word_of[reps]
        masks = layout.mask_of[reps][:, None]

        def weights_of(p: int):
            r = int(reps[p])
            return (
                *self._weights(r, int(sources[p])),
                *self._weights(r, int(targets[p])),
            )

        return adoption_similarity_batch(
            (self.adopted3[sources, :, words] & masks) != 0,
            (self.adopted3[targets, :, words] & masks) != 0,
            weights_of,
        )

    def _weights(self, r: int, user: int) -> tuple[np.ndarray, float]:
        """Current weights of ``user`` in replication ``r`` and their norm."""
        record = self.users[r].get(user)
        if record is not None:
            return record.weights, record.norm()
        weights = self.base.weights[user]
        norm = self._base_norms.get(user)
        if norm is None:
            norm = self._base_norms[user] = float(np.linalg.norm(weights))
        return weights, norm

    def preferences(
        self, reps: np.ndarray, users: np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """``Ppref(user, item)`` per event, in each event's replication."""
        values = self.base.preference_gather(users, items)
        if self.params.beta == 0.0:
            return values
        touched = np.flatnonzero(self._touched(reps, users))
        if touched.size:
            n_users = self.n_users
            keys, inverse = np.unique(
                reps[touched] * n_users + users[touched], return_inverse=True
            )
            vectors = np.stack(
                [
                    self.users[key // n_users][key % n_users].preference()
                    for key in keys.tolist()
                ]
            )
            values[touched] = vectors[inverse.reshape(-1), items[touched]]
        return values

    def preference_of(self, r: int, user: int, item: int) -> float:
        record = self.users[r].get(user)
        if record is None:
            return self.base.preference_of(user, item)
        return float(record.preference()[item])

    def complementary_rows(
        self, reps: np.ndarray, pair_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``r^C`` rows of the events and each event's row index.

        Rows of users whose weights have not moved in their replication
        are shared by every replication: one
        :meth:`PerceptionState.complementary_rows` gather per step.
        Moved users' rows come from their records.
        """
        n_pairs = self.n_users * self.n_items
        keys = pair_keys
        if self.params.eta > 0.0:
            moved = self._touched(reps, pair_keys // self.n_items)
            keys = np.where(moved, (reps + 1) * n_pairs + pair_keys, pair_keys)
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        inverse = inverse.reshape(-1).astype(np.int64, copy=False)
        shared = unique_keys < n_pairs
        if shared.all():
            return self.base.complementary_rows(unique_keys), inverse
        rows = np.empty((unique_keys.size, self.n_items))
        rows[shared] = self.base.complementary_rows(unique_keys[shared])
        for position in np.flatnonzero(~shared).tolist():
            r, pair = divmod(int(unique_keys[position]) - n_pairs, n_pairs)
            user, item = divmod(pair, self.n_items)
            rows[position] = self.users[r][user].complementary_row(item)
        return rows, inverse

    # -- writes --------------------------------------------------------
    def commit(self, r: int, user: int, items: list[int]) -> None:
        """Replication ``r``'s ``apply_step_adoptions`` for one user."""
        layout = self.layout
        word = int(layout.word_of[r])
        mask = layout.mask_of[r]
        base_pair = user * self.n_items
        for item in items:
            self.adopted[base_pair + item, word] |= mask
        if self.dynamic:
            record = self.users[r].get(user)
            if record is None:
                record = self.users[r][user] = UserPerception(self.base, user)
                self.touched[user, word] |= mask
            record.adopt(items)

    def final_state(
        self, r: int, users: np.ndarray, items: np.ndarray
    ) -> PerceptionState:
        """Replication ``r``'s final perception state.

        Under learning dynamics a copy of the base takes over the
        replication's records.  Under frozen dynamics the adoptions
        (``users`` / ``items``, in commit order) fully determine every
        observable read — weights never move, preferences stay at the
        clipped base, complementary rows are campaign constants — so
        they are replayed onto the copy; only the accumulated-relevance
        buffers may differ in summation order, and they are unread when
        ``beta == 0``.

        A one-replication pass takes the base itself instead of a copy:
        the pass made it (pristine or copied from ``initial_state``),
        its one outcome asks at most once, and nothing reads the base
        afterwards.
        """
        single = self.layout.n_replications == 1
        state = self.base if single else self.base.copy()
        if self.dynamic:
            for record in self.users[r].values():
                state.attach(record)
            return state
        adoptions: dict[int, list[int]] = {}
        for user, item in zip(users.tolist(), items.tolist()):
            adoptions.setdefault(user, []).append(item)
        state.apply_step_adoptions(adoptions)
        return state


class CampaignOutcome:
    """Result of one simulated campaign realization.

    Backed by the compact committed-adoption arrays, so consumers that
    only need sigmas (every selection-phase estimate) never pay for a
    dense ``(n_users, n_items)`` matrix or a perception-state copy;
    :attr:`new_adoptions` and :attr:`state` build them on request.

    Attributes
    ----------
    sigma_by_promotion:
        Importance-weighted new adoptions per played promotion (list
        index 0 = the first promotion played).
    steps_run:
        Total diffusion steps across all played promotions.
    """

    def __init__(
        self,
        instance: IMDPPInstance,
        replicas: _Replicas,
        replication: int,
        committed_users: np.ndarray,
        committed_items: np.ndarray,
        sigma_by_promotion: list[float],
        steps_run: int,
    ):
        self.instance = instance
        self._replicas = replicas
        self._replication = replication
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
        dtype), and the closing ``counts @ importance`` dot is
        bit-identical to the dense form without the dense matrix.
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

    @property
    def state(self) -> PerceptionState:
        """Final perception state, materialized on first read.

        Supports Eq. (13) likelihoods and the adaptive algorithm's
        observation step.
        """
        if self._state is None:
            self._state = self._replicas.final_state(
                self._replication, self.committed_users, self.committed_items
            )
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
    seed_groups: Sequence[SeedGroup],
    rngs: Sequence[np.random.Generator],
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    until_promotion: int | None = None,
    initial_state: PerceptionState | None = None,
    start_promotion: int = 1,
) -> list[CampaignOutcome]:
    """Play one campaign realization per generator, all in lockstep.

    Replication ``r`` plays ``seed_groups[r]`` and consumes ``rngs[r]``
    exactly as a lone run of that group with the same arguments would
    — one ``random(k)`` per step whose ``k`` counts that replication's
    own events in the canonical order — so outcomes, final states and
    final generator states are bit-identical to R independent runs.
    Promotions after ``until_promotion`` (default: ``T``) are not
    played, and play starts at ``start_promotion``; ``initial_state``
    is copied, never mutated.
    """
    n_replications = len(rngs)
    if len(seed_groups) != n_replications:
        raise SimulationError(
            f"{len(seed_groups)} seed groups for {n_replications} generators"
        )
    if n_replications == 0:
        return []
    last = until_promotion or instance.n_promotions
    if last > instance.n_promotions:
        raise SimulationError(
            f"until_promotion {last} exceeds T={instance.n_promotions}"
        )
    use_lt = model is DiffusionModel.LINEAR_THRESHOLD
    n_items = instance.n_items
    csr = instance.network.csr
    importance = instance.importance
    # One shared state supplies every replication-independent
    # probability ingredient through the same code paths a lone state
    # reads — identical floats by construction.
    base = (
        instance.new_state() if initial_state is None else initial_state.copy()
    )
    scale = base.params.association_scale

    layout = ReplicationLayout(n_replications)
    word_of, mask_of = layout.word_of, layout.mask_of
    replicas = _Replicas(base, layout)
    adopted, adopted3 = replicas.adopted, replicas.adopted3

    reps = [_RepState() for _ in range(n_replications)]
    seeds_by_promotion: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def _seeds_of(r: int, promotion: int) -> list[tuple[int, int]]:
        # Keyed by group identity: the replications of one group share
        # its seed lists.
        group = seed_groups[r]
        key = (id(group), promotion)
        cached = seeds_by_promotion.get(key)
        if cached is None:
            cached = seeds_by_promotion[key] = [
                (seed.user, seed.item)
                for seed in group.by_promotion(promotion)
            ]
        return cached

    def _seed_step(r: int, promotion: int) -> None:
        """``zeta_t = 0`` for replication ``r`` (consumes no draws)."""
        rep = reps[r]
        word = int(word_of[r])
        mask = mask_of[r]
        # Users in first-seed order, items in seed order: the commit
        # order the next step's frontier (and RNG stream) depends on.
        per_user: dict[int, list[int]] = {}
        users: list[int] = []
        items: list[int] = []
        for user, item in _seeds_of(r, promotion):
            if adopted[user * n_items + item, word] & mask:
                continue  # cannot adopt the same item twice
            chosen = per_user.setdefault(user, [])
            if item in chosen:
                continue
            chosen.append(item)
            users.append(user)
            items.append(item)
        for user, chosen in per_user.items():
            replicas.commit(r, user, chosen)
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
            if (
                rep.frontier_users.size
                and rep.steps_in_promotion < MAX_STEPS_PER_PROMOTION
            ):
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

        Replays the scalar AIS (``tests.reference.aggregated_influence``)
        under LT exactly — in-row order, the influence pipeline, the
        same accumulate-then-cap float sequence — with the adopter test
        answered by the packed bits.
        """
        word = int(word_of[r])
        mask = mask_of[r]
        neighbours, base_in = csr.in_row(user)
        total = 0.0
        if neighbours.size:
            adopters = (
                adopted[neighbours * n_items + item, word] & mask
            ) != 0
            selected = neighbours[adopters]
            if selected.size:
                strengths_in = replicas.influence(
                    np.full(selected.size, r, dtype=np.int64),
                    selected,
                    np.full(selected.size, user, dtype=np.int64),
                    base_in[adopters],
                )
                for strength in strengths_in.tolist():
                    if strength <= 0.0:
                        continue
                    total += strength
        return min(1.0, total) * replicas.preference_of(r, user, item)

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
        # Every probability reads the previous step's state of the
        # event's own replication.
        strengths = replicas.influence(
            rep_of, sources, targets, csr.out_strength[gather]
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
        already = replicas.has_adopted(rep_of, pair_keys)
        preferences = replicas.preferences(rep_of, targets, items)
        # One product reused by the influence coins and the
        # association probabilities — the same elementwise floats the
        # scalar reference computes arc by arc.
        sp = strengths * preferences

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
            unique_rows, inverse = replicas.complementary_rows(
                rep_of, pair_keys
            )
            extra_probs = scale * np.clip(
                sp[:, None] * unique_rows[inverse], 0.0, 1.0
            )
            eligible = extra_probs > EXTRA_ADOPTION_FLOOR
            eligible[np.arange(n_events), items] = False
            eligible &= (adopted3[targets, :, words] & masks[:, None]) == 0
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
        # consumption of its scalar reference step.
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
        # ascending per user, already-adopted pairs dropped — the
        # commit order the next step's frontier depends on.
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
                if not fresh:
                    continue
                replicas.commit(r, user, fresh)
                committed_users.extend([user] * len(fresh))
                committed_items.extend(fresh)
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

    return [
        CampaignOutcome(
            instance=instance,
            replicas=replicas,
            replication=r,
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
        for r, rep in enumerate(reps)
    ]


class CampaignSimulator:
    """Plays campaign realizations of one IMDPP instance, one per call.

    The public single-realization simulator: adaptive IM observes the
    real world through it.  Each :meth:`run` is one
    :func:`run_campaigns_lockstep` pass over its one generator, so a
    realization plays the same alone as inside a Monte-Carlo range.

    Parameters
    ----------
    instance:
        The problem instance.
    model:
        Trigger model (IC by default, as in the paper's experiments).

    Each promotion runs at most :data:`MAX_STEPS_PER_PROMOTION` steps,
    and ``Pext`` values at or below :data:`EXTRA_ADOPTION_FLOOR` are
    skipped without drawing.
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
        return run_campaigns_lockstep(
            self.instance,
            [seed_group],
            [rng],
            model=self.model,
            until_promotion=until_promotion,
            initial_state=initial_state,
            start_promotion=start_promotion,
        )[0]
