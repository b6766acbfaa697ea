"""Mutable per-campaign perception state.

One :class:`PerceptionState` instance carries, for every user, the
adoption set ``A(u, zeta_t)``, the meta-graph weightings
``Wmeta(u, ., zeta_t)`` and the derived caches, and applies the update
order the diffusion process prescribes (Sec. III): all adoption
decisions of a step are made against the *previous* step's state, then
the four factors update together at the end of the step via
:meth:`apply_step_adoptions`.

The state is copied once per Monte-Carlo run, so the copy path is kept
cheap: dense arrays are copied, per-user accumulators only exist for
users who adopted something, and the complementary relevance rows of
users whose weights never moved come from one :class:`ComplementaryTable`
per problem instance (DESIGN.md §9).
"""

from __future__ import annotations

import numpy as np

from repro.kg.relevance import RelevanceEngine
from repro.perception.association import extra_adoption_probabilities
from repro.perception.influence import (
    adoption_similarity,
    adoption_similarity_batch,
    influence_strength,
    influence_strength_batch,
)
from repro.perception.params import DynamicsParams
from repro.perception.pin import PersonalItemNetwork
from repro.perception.preference import preference_vector
from repro.perception.weights import update_weights, weight_evidence
from repro.social.network import SocialNetwork

__all__ = ["ComplementaryTable", "PerceptionState", "UserPerception"]


def _adopt(
    relevance: RelevanceEngine,
    params: DynamicsParams,
    history: set[int],
    weights: np.ndarray,
    new_items: list[int],
) -> tuple[np.ndarray | None, list[int]]:
    """One user's end-of-step update of weights and history.

    The weightings update first, from the evidence connecting the
    history and the new items; then the new items join ``history`` in
    ``new_items`` order.  Returns the moved weights (``None`` when
    ``eta == 0``) and the items that joined, whose relevance rows the
    caller adds to the accumulated relevance in that order
    (:func:`_accumulate`).  :meth:`PerceptionState.apply_step_adoptions`
    and :meth:`UserPerception.adopt` both commit through here, so their
    floats agree bit for bit.
    """
    moved = None
    if params.eta > 0.0:
        evidence = weight_evidence(relevance, history, list(new_items))
        moved = update_weights(weights, evidence, params.eta)
    joined = []
    for item in new_items:
        if item not in history:
            history.add(item)
            joined.append(item)
    return moved, joined


def _accumulate(
    relevance: RelevanceEngine, accumulated: np.ndarray, items: list[int]
) -> None:
    """``accumulated += s(item, . | m)`` for each item, in order."""
    for item in items:
        accumulated += relevance.matrices[:, item, :]


def _complementary_row(
    relevance: RelevanceEngine, weights: np.ndarray, item: int
) -> np.ndarray:
    """``clip(w[C] · R[C, item, :], 0, 1)`` for one user's weights ``w``.

    One ``np.dot`` per row.  Contracting a whole user's item block at
    once is not bitwise-equal to this form (DESIGN.md §3a), so every
    row, pristine or moved, is built here.
    """
    index = relevance.complementary_index
    if index.size == 0:
        return np.zeros(relevance.n_items)
    return np.dot(
        weights[index], relevance.complementary_matrices[:, item, :]
    ).clip(0.0, 1.0)


class ComplementaryTable:
    """Complementary rows ``r^C(u, x, .)`` under fixed weights, filled lazily.

    :class:`~repro.core.problem.IMDPPInstance` holds one over its
    ``initial_weights``.  Those rows are constants of the instance, so
    every state, copy, simulator and Monte-Carlo chunk built from it
    reads the same table; only users whose weights have moved compute
    rows of their own (:meth:`PerceptionState.complementary_row`).  The
    ``(n_users, n_items, n_items)`` buffer is allocated on first read
    and filled one row at a time.

    The thread backend needs no lock: the buffer and its filled mask
    are published together in one assignment, and a row is written
    before its flag is set, so a reader that sees a flag sees its row.
    Threads racing on the first read each fill buffers of identical
    values, and the last publish wins.
    """

    def __init__(self, relevance: RelevanceEngine, weights: np.ndarray):
        self.relevance = relevance
        self.weights = weights
        self._buffers: tuple[np.ndarray, np.ndarray] | None = None

    def _published(self) -> tuple[np.ndarray, np.ndarray]:
        buffers = self._buffers
        if buffers is None:
            n_users, n_items = self.weights.shape[0], self.relevance.n_items
            buffers = (
                np.empty((n_users, n_items, n_items)),
                np.zeros((n_users, n_items), dtype=bool),
            )
            self._buffers = buffers
        return buffers

    def _fill(
        self, table: np.ndarray, filled: np.ndarray, user: int, item: int
    ) -> None:
        if not filled[user, item]:
            table[user, item] = _complementary_row(
                self.relevance, self.weights[user], item
            )
            filled[user, item] = True

    @property
    def n_filled(self) -> int:
        """Number of rows computed so far."""
        buffers = self._buffers
        return 0 if buffers is None else int(buffers[1].sum())

    def row(self, user: int, item: int) -> np.ndarray:
        """Row ``(user, item)``: a view into the table, treat read-only."""
        table, filled = self._published()
        self._fill(table, filled, user, item)
        return table[user, item]

    def rows(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Rows for parallel ``(user, item)`` arrays, stacked (a copy)."""
        table, filled = self._published()
        for position in np.flatnonzero(~filled[users, items]).tolist():
            self._fill(table, filled, int(users[position]), int(items[position]))
        return table[users, items]


class PerceptionState:
    """Dynamic perception state of all users during one campaign.

    Parameters
    ----------
    network:
        Social network supplying base influence strengths.
    relevance:
        Precomputed per-meta-graph relevance matrices.
    base_preference:
        (n_users, n_items) initial preferences.
    initial_weights:
        (n_users, n_meta) initial meta-graph weightings.
    params:
        Dynamics hyper-parameters; ``DynamicsParams.frozen()`` disables
        all updates (the regime of Lemma 1).
    complementary_table:
        Complementary rows under ``initial_weights``, shared with every
        other state of the same problem instance; ``None`` builds a
        private one.
    """

    def __init__(
        self,
        network: SocialNetwork,
        relevance: RelevanceEngine,
        base_preference: np.ndarray,
        initial_weights: np.ndarray,
        params: DynamicsParams,
        complementary_table: ComplementaryTable | None = None,
    ):
        self.network = network
        self.relevance = relevance
        self.base_preference = np.asarray(base_preference, dtype=float)
        self.params = params
        self.n_users = network.n_users
        self.n_items = relevance.n_items
        self.weights = np.array(initial_weights, dtype=float, copy=True)
        self.adopted: list[set[int]] = [set() for _ in range(self.n_users)]
        # Dense mirror of ``adopted`` for the vectorized diffusion and
        # likelihood paths; kept in sync by apply_step_adoptions.
        self._adopted_mask = np.zeros(
            (self.n_users, self.n_items), dtype=bool
        )
        # accumulated[m, y] = sum over adopted a of s(a, y | m); lazily
        # allocated per user on first adoption.
        self._accumulated: dict[int, np.ndarray] = {}
        self._preference_cache: dict[int, np.ndarray] = {}
        # Users whose weights have moved read complementary rows from
        # their current weights, cached per copy in ``_moved_rows``
        # (user -> item -> row); everyone else reads the shared table.
        self._moved = np.zeros(self.n_users, dtype=bool)
        self._moved_rows: dict[int, dict[int, np.ndarray]] = {}
        if complementary_table is None:
            complementary_table = ComplementaryTable(
                relevance, self.weights.copy()
            )
        self._pristine_rows = complementary_table
        # Clipped base preferences (n_users, n_items) — the Ppref of
        # every user the cross-elasticity update has not touched.
        # State-independent, built lazily, shared across copies.
        self._clipped_base: np.ndarray | None = None

    def __getstate__(self) -> dict:
        # The table is an instance-wide cache: pickled states (process
        # tasks) leave it out and stay as small as without it.
        state = self.__dict__.copy()
        del state["_pristine_rows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Unmoved users still hold their initial weights and moved users
        # never read the table, so the current weights rebuild it.
        self._pristine_rows = ComplementaryTable(
            self.relevance, self.weights.copy()
        )

    # ------------------------------------------------------------------
    def copy(self) -> "PerceptionState":
        """Independent deep copy (one per Monte-Carlo run)."""
        clone = PerceptionState.__new__(PerceptionState)
        clone.network = self.network
        clone.relevance = self.relevance
        clone.base_preference = self.base_preference
        clone.params = self.params
        clone.n_users = self.n_users
        clone.n_items = self.n_items
        clone.weights = self.weights.copy()
        clone.adopted = [set(items) for items in self.adopted]
        clone._adopted_mask = self._adopted_mask.copy()
        clone._accumulated = {
            user: acc.copy() for user, acc in self._accumulated.items()
        }
        # With beta == 0 preferences never leave their clipped base
        # values, so cached rows are campaign constants too: share the
        # cache across copies (adoption-driven pops just trigger an
        # identical recompute).  Under beta > 0 preferences depend on
        # the copy's own accumulated relevance — keep caches private.
        clone._preference_cache = (
            self._preference_cache if self.params.beta == 0.0 else {}
        )
        # Moved users' weights diverge per copy from here on, so their
        # rows stay private; the pristine table is an instance constant.
        clone._moved = self._moved.copy()
        clone._moved_rows = {}
        clone._pristine_rows = self._pristine_rows
        # Built on the parent before the handoff so every clone (and
        # later clones of this parent) shares one materialized matrix
        # instead of each lazily rebuilding its own.
        clone._clipped_base = self._clipped_base_matrix()
        return clone

    # ------------------------------------------------------------------
    # reads (always reflect the state at the end of the last step)
    # ------------------------------------------------------------------
    def has_adopted(self, user: int, item: int) -> bool:
        """True if ``user`` already adopted ``item``."""
        return item in self.adopted[user]

    def adoption_set(self, user: int) -> set[int]:
        """``A(u, zeta_t)`` — copy of the user's adoption set."""
        return set(self.adopted[user])

    def adopted_row(self, user: int) -> np.ndarray:
        """``A(u, zeta_t)`` as a boolean (n_items,) row.

        The returned array is a live view — callers must not write to
        it.  It backs the vectorized diffusion/likelihood inner loops.
        """
        return self._adopted_mask[user]

    def adopted_many(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Adoption flags for parallel (user, item) index arrays."""
        return self._adopted_mask[users, items]

    def adopted_matrix(self, users: np.ndarray) -> np.ndarray:
        """Adoption-mask rows for an array of users (a fresh copy)."""
        return self._adopted_mask[np.asarray(users, dtype=np.int64)]

    def _clipped_base_matrix(self) -> np.ndarray:
        """Clipped base preferences for all users (lazy, shared)."""
        if self._clipped_base is None:
            self._clipped_base = np.clip(
                self.base_preference, self.params.min_preference, 1.0
            )
        return self._clipped_base

    def preference(self, user: int) -> np.ndarray:
        """``Ppref(user, ., zeta_t)`` over all items (cached)."""
        cached = self._preference_cache.get(user)
        if cached is not None:
            return cached
        accumulated = self._accumulated.get(user)
        if accumulated is None or self.params.beta == 0.0:
            vector = self._clipped_base_matrix()[user]
        else:
            vector = preference_vector(
                self.base_preference[user],
                self.weights[user],
                accumulated,
                self.relevance.complementary_index,
                self.relevance.substitutable_index,
                self.params.beta,
                self.params.min_preference,
            )
        self._preference_cache[user] = vector
        return vector

    def preference_of(self, user: int, item: int) -> float:
        """``Ppref(user, item, zeta_t)``."""
        return float(self.preference(user)[item])

    def influence(self, source: int, target: int) -> float:
        """``Pact(source, target, zeta_t)``."""
        base = self.network.base_strength(source, target)
        if base <= 0.0:
            return 0.0
        if self.params.gamma == 0.0:
            return max(self.params.min_influence, base)
        similarity = adoption_similarity(
            self.adopted[source],
            self.adopted[target],
            self.weights[source],
            self.weights[target],
        )
        return influence_strength(
            base, similarity, self.params.gamma, self.params.min_influence
        )

    def influence_batch(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        base_strengths: np.ndarray,
    ) -> np.ndarray:
        """``Pact(source, target, zeta_t)`` over arc arrays.

        ``base_strengths`` are the CSR arc strengths for the
        (source, target) pairs — supplied by the caller because the
        frontier kernels already hold the row slices, which avoids any
        per-arc lookup.  Elementwise equal (bit for bit) to calling
        :meth:`influence` per arc: the frozen path (``gamma == 0``)
        runs the identical clip pipeline vectorized.  The dynamic path
        scores only arcs whose endpoints both have adoptions —
        ``adoption_similarity`` is exactly 0.0 for every other arc — once
        per distinct (source, target) pair of the call, through
        :func:`~repro.perception.influence.adoption_similarity_batch`
        (each user's weight norm computed once per call).
        """
        base_strengths = np.asarray(base_strengths, dtype=np.float64)
        if self.params.gamma == 0.0:
            zero = base_strengths <= 0.0
            values = np.maximum(self.params.min_influence, base_strengths)
            values[zero] = 0.0
            return values
        similarities = np.zeros(base_strengths.size)
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        adopters = self._adopted_mask
        both = np.flatnonzero(
            adopters[sources].any(axis=1) & adopters[targets].any(axis=1)
        )
        if both.size:
            pairs, inverse = np.unique(
                sources[both] * self.n_users + targets[both],
                return_inverse=True,
            )
            pair_sources, pair_targets = np.divmod(pairs, self.n_users)
            weights = self.weights
            norms: dict[int, float] = {}

            def weights_of(p: int):
                vectors = []
                for user in (int(pair_sources[p]), int(pair_targets[p])):
                    norm = norms.get(user)
                    if norm is None:
                        norm = norms[user] = float(np.linalg.norm(weights[user]))
                    vectors += (weights[user], norm)
                return tuple(vectors)

            values = adoption_similarity_batch(
                adopters[pair_sources], adopters[pair_targets], weights_of
            )
            similarities[both] = values[inverse.reshape(-1)]
        return influence_strength_batch(
            base_strengths,
            similarities,
            self.params.gamma,
            self.params.min_influence,
        )

    def preference_gather(
        self, users: np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """``Ppref(user, item, zeta_t)`` for parallel (user, item) arrays.

        With ``beta == 0``, or before any adoption, every row is the
        clipped base, so the whole gather is one fancy index into the
        shared matrix.  Under cross-elasticity dynamics it walks
        distinct users, but only users with adoption history need their
        dynamic vector — the rest read the shared matrix too.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        base = self._clipped_base_matrix()
        if self.params.beta == 0.0 or not self._accumulated:
            return base[users, items]
        values = base[users, items]
        touched = [
            user
            for user in np.unique(users).tolist()
            if user in self._accumulated
        ]
        for user in touched:
            rows = users == user
            values[rows] = self.preference(user)[items[rows]]
        return values

    def complementary_row(self, user: int, item: int) -> np.ndarray:
        """``r^C(user, item, .)`` under the user's current weights.

        Users whose weights never moved read the instance's shared
        table; a moved user's rows are computed from its current
        weights and cached in this copy until they move again.  Treat
        the returned array as read-only.
        """
        if not self._moved[user]:
            return self._pristine_rows.row(user, item)
        user_rows = self._moved_rows.get(user)
        if user_rows is None:
            user_rows = self._moved_rows[user] = {}
        row = user_rows.get(item)
        if row is None:
            row = user_rows[item] = _complementary_row(
                self.relevance, self.weights[user], item
            )
        return row

    def complementary_rows(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`complementary_row` for pair keys ``user * n_items + item``.

        Returns the rows stacked as ``(len(keys), n_items)``: one fancy
        index into the shared table for unmoved users, the per-row path
        for moved ones.
        """
        users, items = np.divmod(np.asarray(keys, dtype=np.int64), self.n_items)
        moved = self._moved[users]
        if not moved.any():
            return self._pristine_rows.rows(users, items)
        rows = np.empty((users.size, self.n_items))
        pristine = ~moved
        rows[pristine] = self._pristine_rows.rows(
            users[pristine], items[pristine]
        )
        for position in np.flatnonzero(moved).tolist():
            rows[position] = self.complementary_row(
                int(users[position]), int(items[position])
            )
        return rows

    def extra_adoption_probs(
        self, user: int, promoter: int, item: int
    ) -> np.ndarray:
        """``Pext(user, promoter, item, .)`` over all items."""
        if self.params.association_scale == 0.0:
            return np.zeros(self.n_items)
        return self.params.association_scale * extra_adoption_probabilities(
            self.influence(promoter, user),
            self.preference_of(user, item),
            self.complementary_row(user, item),
        )

    def personal_item_network(self, user: int) -> PersonalItemNetwork:
        """Snapshot ``G_PIN(user, zeta_t)``."""
        return PersonalItemNetwork.from_weights(
            self.relevance, self.weights[user]
        )

    # ------------------------------------------------------------------
    # writes (end of a diffusion step)
    # ------------------------------------------------------------------
    def apply_step_adoptions(self, adoptions: dict[int, list[int]]) -> None:
        """Commit one step's new adoptions and update perceptions.

        ``adoptions`` maps user -> list of items that user newly
        adopted during the step.  For each adopting user, in order:
        the meta-graph weightings update from the evidence connecting
        history and new items (relevance measurement) and the user is
        flagged as moved, then the accumulated relevance gains the new
        items' rows (which feeds preference estimation), and caches are
        invalidated so the next step reads fresh ``Ppref``/``Pact``.
        """
        for user, new_items in adoptions.items():
            if not new_items:
                continue
            moved, joined = _adopt(
                self.relevance,
                self.params,
                self.adopted[user],
                self.weights[user],
                new_items,
            )
            if moved is not None:
                self.weights[user] = moved
                self._moved[user] = True
                self._moved_rows.pop(user, None)
            accumulated = self._accumulated.get(user)
            if accumulated is None:
                accumulated = np.zeros(
                    (self.relevance.n_meta, self.n_items)
                )
                self._accumulated[user] = accumulated
            _accumulate(self.relevance, accumulated, joined)
            self._adopted_mask[user, joined] = True
            self._preference_cache.pop(user, None)

    def attach(self, perception: "UserPerception") -> None:
        """Take over one user's perception from a detached record.

        The record's adoption set becomes this state's own (not copied:
        the record is spent), its weights overwrite the user's row when
        they moved, and a preference the record already holds is kept.
        """
        user = perception.user
        self.adopted[user] = perception.adopted
        self._adopted_mask[user, list(perception.adopted)] = True
        self._accumulated[user] = perception.accumulated()
        if perception.moved:
            self.weights[user] = perception.weights
            self._moved[user] = True
            self._moved_rows.pop(user, None)
        if perception.cached_preference is not None:
            self._preference_cache[user] = perception.cached_preference
        else:
            self._preference_cache.pop(user, None)


class UserPerception:
    """One user's perception in one replication, apart from any state.

    The lockstep pass of :mod:`repro.diffusion.campaign`, the one
    diffusion kernel, plays R replications of a campaign (one per
    ``CampaignSimulator.run`` call) from one shared ``base`` state and
    gives a user a record of its own in replication ``r`` only once
    that user adopts there — every other user reads ``base``.  The record
    starts from the user's ``base`` perception and then commits and
    reads exactly like a :class:`PerceptionState` copy would for that
    user: the same update function (``_adopt``), the same preference
    and complementary-row formulas.  :meth:`PerceptionState.attach`
    folds it back into a state.

    R replications' records live at once, so a record stays small: it
    keeps the items it committed instead of an accumulated-relevance
    matrix, and rebuilds that matrix with the same additions in the
    same order whenever it is read, and computes complementary rows
    without caching them.
    """

    __slots__ = (
        "base",
        "user",
        "adopted",
        "committed",
        "weights",
        "moved",
        "_norm",
        "cached_preference",
    )

    def __init__(self, base: PerceptionState, user: int):
        self.base = base
        self.user = user
        # ``set(items)``: the same copy a ``PerceptionState.copy`` makes,
        # so weight evidence walks the history in the same order.
        self.adopted = set(base.adopted[user])
        #: Items that joined ``adopted`` here, in commit order.
        self.committed: list[int] = []
        self.weights = base.weights[user]
        #: True once the weights moved away from ``base``'s row.
        self.moved = False
        self._norm: float | None = None
        #: ``Ppref(user, .)`` of the current perception, once read.
        self.cached_preference: np.ndarray | None = None

    def adopt(self, new_items: list[int]) -> None:
        """:meth:`PerceptionState.apply_step_adoptions` for this user."""
        base = self.base
        moved, joined = _adopt(
            base.relevance, base.params, self.adopted, self.weights, new_items
        )
        if moved is not None:
            self.weights = moved
            self.moved = True
            self._norm = None
        self.committed.extend(joined)
        self.cached_preference = None

    def accumulated(self) -> np.ndarray:
        """The user's accumulated relevance, rebuilt (a fresh array)."""
        base = self.base
        inherited = base._accumulated.get(self.user)
        if inherited is None:
            accumulated = np.zeros((base.relevance.n_meta, base.n_items))
        else:
            accumulated = inherited.copy()
        _accumulate(base.relevance, accumulated, self.committed)
        return accumulated

    def norm(self) -> float:
        """``||W(user)||``, the similarity cosine's denominator factor."""
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.weights))
        return self._norm

    def preference(self) -> np.ndarray:
        """``Ppref(user, .)``: :meth:`PerceptionState.preference`."""
        if self.cached_preference is None:
            base = self.base
            params = base.params
            if params.beta == 0.0:
                vector = base._clipped_base_matrix()[self.user]
            else:
                vector = preference_vector(
                    base.base_preference[self.user],
                    self.weights,
                    self.accumulated(),
                    base.relevance.complementary_index,
                    base.relevance.substitutable_index,
                    params.beta,
                    params.min_preference,
                )
            self.cached_preference = vector
        return self.cached_preference

    def complementary_row(self, item: int) -> np.ndarray:
        """``r^C(user, item, .)`` under the record's current weights.

        Computed, never cached: the lockstep pass reads the shared
        table for users whose weights have not moved.
        """
        return _complementary_row(self.base.relevance, self.weights, item)
