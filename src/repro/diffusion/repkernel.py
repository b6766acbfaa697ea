"""Replication-lockstep campaign kernel (``step_kernel="lockstep"``).

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
to the per-replication reference, draw for draw: same adoptions, same
sigmas, same final ``bit_generator.state`` (pinned by
``tests/diffusion/test_step_equivalence.py``).

The lockstep pass applies when the perception dynamics are frozen
(``eta == beta == gamma == 0`` — the regime of every selection-phase
sigma estimate; ``association_scale`` may be nonzero, extra adoptions
are part of the diffusion itself).  Under learning dynamics the
per-event probabilities depend on each replication's own perception
state and nothing can be shared across the replication axis, so
:func:`repro.engine.replication.run_chunk` transparently falls back to
the per-replication vectorized kernel — which is bit-identical anyway,
making ``step_kernel`` a pure performance knob.  ``lockstep`` is the
process default, so every frozen recipe (the nominee MCP's gain
blocks, fair re-scores) takes the packed pass unless a caller names
``vectorized``, which stays selectable as the bit-identity reference.

``lockstep-jit`` swaps the association scan (the O(events × items)
inner loop) for a numba-compiled two-pass kernel that reads the packed
adoption bits directly instead of materializing the dense eligibility
matrices.  It follows the established optional-dependency pattern of
:mod:`repro.sketch.reachkernel`: without numba the name degrades to
``lockstep`` with a one-time warning, and the undecorated Python loops
remain importable as the bit-identity test shadow.  Select a kernel
per estimator (``SigmaEstimator(..., step_kernel=...)``), per run
(``DysimConfig.step_kernel`` / the ``step_kernel`` entry of a sweep
config) or process-wide via :func:`set_default_step_kernel` (CLI
``--step-kernel``, env ``REPRO_STEP_KERNEL``).
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.errors import SimulationError
from repro.social.csr import row_gather

try:  # pragma: no cover - exercised on the CI jit leg
    import numba

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - the default environment
    numba = None
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "LOCKSTEP_KERNELS",
    "STEP_KERNEL_NAMES",
    "LockstepOutcome",
    "ReplicationLayout",
    "get_default_step_kernel",
    "lockstep_supported",
    "resolve_step_kernel",
    "run_campaigns_lockstep",
    "set_default_step_kernel",
]

#: Spelled-out diffusion step kernels (CLI ``--step-kernel``).
#: ``lockstep`` is the packed all-replications pass of this module
#: (the default), ``lockstep-jit`` its numba-assisted twin (optional
#: ``jit`` extra), ``vectorized`` the per-replication frontier kernel
#: (the lockstep fallback and bit-identity reference) and ``scalar``
#: the retained per-arc reference.  All four are bit-identical
#: realization for realization.
STEP_KERNEL_NAMES = ("vectorized", "scalar", "lockstep", "lockstep-jit")

#: The kernels handled by this module (chunk-level, not per-run).
LOCKSTEP_KERNELS = ("lockstep", "lockstep-jit")

_default_step_kernel = os.environ.get("REPRO_STEP_KERNEL") or "lockstep"

_warned_no_numba = False


def _degrade_jit(kernel: str) -> str:
    """``lockstep-jit`` without numba degrades to ``lockstep`` (one-time
    warning) instead of raising — the extra is optional."""
    global _warned_no_numba
    if kernel == "lockstep-jit" and not HAVE_NUMBA:
        if not _warned_no_numba:
            _warned_no_numba = True
            warnings.warn(
                "step kernel 'lockstep-jit' requested but numba is not "
                "installed (pip install 'imdpp-repro[jit]'); falling "
                "back to the 'lockstep' numpy kernel",
                RuntimeWarning,
                stacklevel=3,
            )
        return "lockstep"
    return kernel


def set_default_step_kernel(kernel: str) -> str:
    """Install the process-wide diffusion step kernel (CLI flag)."""
    global _default_step_kernel
    _default_step_kernel = resolve_step_kernel(kernel)
    return _default_step_kernel


def get_default_step_kernel() -> str:
    """The process-wide step kernel (``lockstep`` by default)."""
    return resolve_step_kernel(_default_step_kernel)


def resolve_step_kernel(kernel: str | None) -> str:
    """Validate a kernel name (``None`` = the process-wide default)."""
    if kernel is None:
        kernel = _default_step_kernel
    if kernel not in STEP_KERNEL_NAMES:
        raise ValueError(
            f"unknown step kernel {kernel!r}; "
            f"expected one of {STEP_KERNEL_NAMES}"
        )
    return _degrade_jit(kernel)


def lockstep_supported(
    instance: IMDPPInstance,
    initial_state: object | None = None,
    compute_likelihood: bool = False,
    collect_weights: bool = False,
    collect_adoptions: bool = False,
) -> bool:
    """Can the lockstep kernel run this replication recipe natively?

    Frozen dynamics are required (per-event probabilities must not
    depend on per-replication perception state); resumed states and
    the state-carrying extras (likelihood, mean weights, adoption
    frequencies) route through the per-replication kernels, which are
    the only consumers of a materialized final
    :class:`~repro.perception.state.PerceptionState`.
    """
    return (
        instance.dynamics.is_frozen
        and initial_state is None
        and not compute_likelihood
        and not collect_weights
        and not collect_adoptions
    )


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


# ----------------------------------------------------------------------
# The numba-assisted association scan (``lockstep-jit``).
#
# Two passes over the step's event array replace the dense
# (n_events, n_items) eligibility/probability matrices of the numpy
# path: pass one counts each event's eligible association draws (to
# lay out the draw buffer), pass two consumes the draws and emits the
# adoption events already in canonical order (event ascending,
# influence decision before that event's association wins, items
# ascending).  Probability arithmetic matches the numpy expressions
# operation for operation — multiply, clip to [0, 1], scale — so
# decisions are bit-identical.  The undecorated functions double as
# the pure-python test shadow on numba-free environments.
# ----------------------------------------------------------------------


def _lockstep_count_extras(
    sp,  # float64[:]  strengths * preferences per event
    items,  # int64[:]  promoted item per event
    targets,  # int64[:]
    inverse,  # int64[:]  event -> row of ``rows``
    rows,  # float64[:, :]  unique complementary rows
    scale,  # float64  association_scale
    floor,  # float64  extra_adoption_floor
    adopted,  # uint64[:, :]  packed (n_pairs, n_words) adoption bits
    words,  # int64[:]  replication word per event
    masks,  # uint64[:]  replication bit per event
    n_items,  # int64
    n_extra,  # int64[:]  out: eligible association draws per event
):
    for e in range(sp.size):
        base = targets[e] * n_items
        w = words[e]
        m = masks[e]
        promoted = items[e]
        spe = sp[e]
        row = inverse[e]
        count = 0
        for y in range(n_items):
            u = spe * rows[row, y]
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
            if not (scale * u > floor):
                continue
            if y == promoted:
                continue
            if adopted[base + y, w] & m:
                continue
            count += 1
        n_extra[e] = count


def _lockstep_decide_ic(
    sp,
    items,
    targets,
    inverse,
    rows,
    scale,
    floor,
    adopted,
    words,
    masks,
    n_items,
    rep_of,  # int64[:]  replication id per event
    needs_draw,  # bool[:]  event opens with an influence coin
    offsets,  # int64[:]  draw-buffer offset per event (n_events + 1)
    draws,  # float64[:]  the step's draws, canonical order
    out_reps,  # int64[:]  out buffers (capacity >= total draws)
    out_users,
    out_items,
):
    emitted = 0
    for e in range(sp.size):
        position = offsets[e]
        if needs_draw[e]:
            if draws[position] < sp[e]:
                out_reps[emitted] = rep_of[e]
                out_users[emitted] = targets[e]
                out_items[emitted] = items[e]
                emitted += 1
            position += 1
        if scale == 0.0:
            continue
        base = targets[e] * n_items
        w = words[e]
        m = masks[e]
        promoted = items[e]
        spe = sp[e]
        row = inverse[e]
        for y in range(n_items):
            u = spe * rows[row, y]
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
            probability = scale * u
            if not (probability > floor):
                continue
            if y == promoted:
                continue
            if adopted[base + y, w] & m:
                continue
            if draws[position] < probability:
                out_reps[emitted] = rep_of[e]
                out_users[emitted] = targets[e]
                out_items[emitted] = y
                emitted += 1
            position += 1
    return emitted


if HAVE_NUMBA:  # pragma: no cover - exercised on the CI jit leg
    _count_extras_compiled = numba.njit(cache=True, nogil=True)(
        _lockstep_count_extras
    )
    _decide_ic_compiled = numba.njit(cache=True, nogil=True)(
        _lockstep_decide_ic
    )
else:
    _count_extras_compiled = None
    _decide_ic_compiled = None


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
    jit: bool = False,
    count_impl: Callable[..., None] | None = None,
    decide_impl: Callable[..., int] | None = None,
) -> list[LockstepOutcome]:
    """Play one campaign realization per generator, all in lockstep.

    Replication ``r`` consumes ``rngs[r]`` exactly as a
    :meth:`CampaignSimulator.run` call with the per-replication
    vectorized kernel would — one ``random(k)`` per step whose ``k``
    counts that replication's own events in the canonical order — so
    outcomes and final generator states are bit-identical to R
    independent runs.  Requires frozen dynamics (see
    :func:`lockstep_supported`); raises
    :class:`~repro.errors.SimulationError` otherwise.

    ``jit`` routes the association scan through the numba-compiled
    two-pass kernel under IC (``lockstep-jit``); ``count_impl`` /
    ``decide_impl`` override the loop implementations — tests pass the
    undecorated shadows to pin bit-identity on numba-free
    environments.  Under LT the influence decisions are inherently
    threshold-stateful, so both kernel names run the numpy path.
    """
    n_replications = len(rngs)
    if n_replications == 0:
        return []
    params = instance.dynamics
    if not params.is_frozen:
        raise SimulationError(
            "the lockstep step kernel requires frozen dynamics "
            "(eta == beta == gamma == 0); use the per-replication "
            "kernels for the dynamic regime"
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
    # per-replication kernels call — identical floats by construction.
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
        # per-replication kernel computes from its own event arrays.
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

        use_jit = jit and not use_lt
        count_fn = count_impl
        decide_fn = decide_impl
        if use_jit:
            if count_fn is None:
                count_fn = _count_extras_compiled or _lockstep_count_extras
            if decide_fn is None:
                decide_fn = _decide_ic_compiled or _lockstep_decide_ic

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
            if use_jit:
                n_extra = np.zeros(n_events, dtype=np.int64)
                count_fn(
                    sp,
                    items,
                    targets,
                    inverse,
                    unique_rows,
                    scale,
                    floor,
                    adopted,
                    words,
                    masks,
                    n_items,
                    n_extra,
                )
            else:
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

        if use_jit:
            out_reps = np.empty(total_draws, dtype=np.int64)
            out_users = np.empty(total_draws, dtype=np.int64)
            out_items = np.empty(total_draws, dtype=np.int64)
            emitted = decide_fn(
                sp,
                items,
                targets,
                inverse,
                unique_rows,
                scale,
                floor,
                adopted,
                words,
                masks,
                n_items,
                rep_of,
                needs_draw,
                offsets,
                draws,
                out_reps,
                out_users,
                out_items,
            )
            ordered_reps = out_reps[:emitted]
            ordered_users = out_users[:emitted]
            ordered_items = out_items[:emitted]
        else:
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
