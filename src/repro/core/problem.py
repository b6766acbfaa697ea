"""IMDPP problem instances and seed groups (Definition 2).

An instance bundles the social network, the knowledge graph with its
meta-graphs (via the relevance engine), the target item set with
importances ``W = {w_x}``, the seed costs ``c_{u,x}``, the budget ``b``
and the number of promotions ``T``.  A solution is a
:class:`SeedGroup` ``S = {(u, x, t)}`` whose total cost respects the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from repro.errors import BudgetExceededError, ProblemError
from repro.kg.graph import KnowledgeGraph
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams
from repro.perception.state import ComplementaryTable, PerceptionState
from repro.social.network import SocialNetwork

__all__ = ["Seed", "SeedGroup", "IMDPPInstance"]


@dataclass(frozen=True, order=True)
class Seed:
    """One seeding decision ``(u, x, t)``: user, item, promotion.

    Promotions are 1-based, matching the paper (``t = 1 .. T``).
    """

    user: int
    item: int
    promotion: int

    def __post_init__(self):
        if self.promotion < 1:
            raise ProblemError(
                f"promotion must be >= 1, got {self.promotion}"
            )

    @property
    def nominee(self) -> tuple[int, int]:
        """The underlying nominee ``(u, x)`` without its timing."""
        return (self.user, self.item)


class SeedGroup:
    """An ordered, duplicate-free collection of seeds.

    Examples
    --------
    >>> group = SeedGroup([Seed(0, 1, 1)])
    >>> group.add(Seed(2, 1, 2))
    >>> group.latest_promotion
    2
    """

    def __init__(self, seeds: Iterable[Seed] = ()):
        self._seeds: list[Seed] = []
        self._seen: set[Seed] = set()
        for seed in seeds:
            self.add(seed)

    def add(self, seed: Seed) -> None:
        """Append a seed; duplicates are ignored."""
        if seed not in self._seen:
            self._seen.add(seed)
            self._seeds.append(seed)

    def extend(self, seeds: Iterable[Seed]) -> None:
        """Append several seeds."""
        for seed in seeds:
            self.add(seed)

    def union(self, other: "SeedGroup | Iterable[Seed]") -> "SeedGroup":
        """Non-mutating union preserving our order first."""
        merged = SeedGroup(self._seeds)
        merged.extend(other)
        return merged

    def with_seed(self, seed: Seed) -> "SeedGroup":
        """Non-mutating copy with one extra seed."""
        extended = SeedGroup(self._seeds)
        extended.add(seed)
        return extended

    def by_promotion(self, promotion: int) -> list[Seed]:
        """Sub-group ``S_t`` of seeds scheduled at one promotion."""
        return [s for s in self._seeds if s.promotion == promotion]

    @property
    def latest_promotion(self) -> int:
        """``t̂ = max{t | (u, x, t) in S}``; 0 when empty."""
        return max((s.promotion for s in self._seeds), default=0)

    def nominees(self) -> set[tuple[int, int]]:
        """All distinct ``(u, x)`` pairs in the group."""
        return {s.nominee for s in self._seeds}

    def items(self) -> set[int]:
        """All items promoted by the group."""
        return {s.item for s in self._seeds}

    def __iter__(self) -> Iterator[Seed]:
        return iter(self._seeds)

    def __len__(self) -> int:
        return len(self._seeds)

    def __contains__(self, seed: Seed) -> bool:
        return seed in self._seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedGroup({self._seeds!r})"


@dataclass
class IMDPPInstance:
    """A complete IMDPP problem (Definition 2).

    Attributes
    ----------
    network:
        ``G_SN`` with base influence strengths.
    kg:
        ``G_KG``; kept for dataset statistics and rebuilding relevance.
    relevance:
        Precomputed meta-graph relevance (defines the item universe —
        item ``i`` is ``relevance.item_nodes[i]`` in the KG).
    importance:
        ``W``; shape (n_items,), non-negative.
    base_preference:
        ``Ppref(., ., 0)``; shape (n_users, n_items) in [0, 1].
    initial_weights:
        ``Wmeta(., ., 0)``; shape (n_users, n_meta) in [0, 1].
    costs:
        ``c_{u,x}``; shape (n_users, n_items), positive.
    budget:
        ``b``.
    n_promotions:
        ``T``.
    dynamics:
        Perception hyper-parameters.
    name:
        Dataset label for reporting.
    """

    network: SocialNetwork
    kg: KnowledgeGraph
    relevance: RelevanceEngine
    importance: np.ndarray
    base_preference: np.ndarray
    initial_weights: np.ndarray
    costs: np.ndarray
    budget: float
    n_promotions: int
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    name: str = "imdpp"

    def __post_init__(self):
        self.importance = np.asarray(self.importance, dtype=float)
        self.base_preference = np.asarray(self.base_preference, dtype=float)
        self.initial_weights = np.asarray(self.initial_weights, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        n_users, n_items = self.n_users, self.n_items
        if self.importance.shape != (n_items,):
            raise ProblemError(
                f"importance must have shape ({n_items},), got "
                f"{self.importance.shape}"
            )
        if self.importance.min(initial=0.0) < 0:
            raise ProblemError("item importance must be non-negative")
        if self.base_preference.shape != (n_users, n_items):
            raise ProblemError(
                "base_preference must be (n_users, n_items) = "
                f"({n_users}, {n_items}), got {self.base_preference.shape}"
            )
        if self.initial_weights.shape != (n_users, self.relevance.n_meta):
            raise ProblemError(
                "initial_weights must be (n_users, n_meta) = "
                f"({n_users}, {self.relevance.n_meta}), got "
                f"{self.initial_weights.shape}"
            )
        if self.costs.shape != (n_users, n_items):
            raise ProblemError(
                f"costs must be (n_users, n_items), got {self.costs.shape}"
            )
        if self.costs.min(initial=1.0) <= 0:
            raise ProblemError("all seed costs must be positive")
        if self.budget <= 0:
            raise ProblemError(f"budget must be positive, got {self.budget}")
        if self.n_promotions < 1:
            raise ProblemError(
                f"n_promotions must be >= 1, got {self.n_promotions}"
            )
        #: Complementary rows under ``initial_weights``: filled lazily
        #: by the states that read them and shared by every state and
        #: derived clone (DESIGN.md §9).
        self.complementary_table = ComplementaryTable(
            self.relevance, self.initial_weights
        )

    def __getstate__(self) -> dict:
        # The table is a cache.  A process worker refills its own copy,
        # once per instance it loads (shared instances stay resident in
        # the worker, ``repro.engine.shm``), so payloads stay small.
        state = self.__dict__.copy()
        del state["complementary_table"]
        return state

    def __reduce_ex__(self, protocol):
        """Pickle by value — or, once exported, by handle.

        After :func:`repro.engine.shm.share_for_backend` has exported
        this instance for a process pool, pickles carry only the tiny
        handle, and each worker loads the instance once and reuses it
        for every later task.  The instance must not change while an
        estimator holds it (``SigmaCache`` keys on its ``id`` too).
        """
        handle = getattr(self, "_shm_handle", None)
        if handle is not None:
            from repro.engine.shm import attach_instance

            return (attach_instance, (handle,))
        return super().__reduce_ex__(protocol)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.complementary_table = ComplementaryTable(
            self.relevance, self.initial_weights
        )

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of users in the social network."""
        return self.network.n_users

    @property
    def n_items(self) -> int:
        """Number of promoted items."""
        return self.relevance.n_items

    @property
    def items(self) -> range:
        """Item index range."""
        return range(self.n_items)

    def cost(self, user: int, item: int) -> float:
        """Hiring cost ``c_{u,x}``."""
        return float(self.costs[user, item])

    def group_cost(self, group: SeedGroup | Iterable[Seed]) -> float:
        """Total cost of a seed group (each seed billed once)."""
        return float(sum(self.cost(s.user, s.item) for s in group))

    def check_budget(self, group: SeedGroup) -> None:
        """Raise :class:`BudgetExceededError` if the group is infeasible."""
        total = self.group_cost(group)
        if total > self.budget + 1e-9:
            raise BudgetExceededError(
                f"seed group costs {total:.2f} > budget {self.budget:.2f}"
            )

    def new_state(self) -> PerceptionState:
        """Fresh perception state at campaign start."""
        return PerceptionState(
            network=self.network,
            relevance=self.relevance,
            base_preference=self.base_preference,
            initial_weights=self.initial_weights,
            params=self.dynamics,
            complementary_table=self.complementary_table,
        )

    def _derive(self, **changes) -> "IMDPPInstance":
        """``replace`` that keeps sharing the complementary table.

        No caller changes ``relevance`` or ``initial_weights``, so the
        clone's pristine rows are the same constants.
        """
        clone = replace(self, **changes)
        clone.complementary_table = self.complementary_table
        return clone

    def frozen(self) -> "IMDPPInstance":
        """Clone with dynamics disabled (the regime of Lemma 1).

        Only the update-rule strengths (eta, beta, gamma) are zeroed;
        ``association_scale`` and the probability floors describe the
        diffusion itself, not the perception dynamics, and must
        survive — resetting them (as this method historically did, via
        ``DynamicsParams.frozen()``) would re-enable Pext on instances
        that pin it off, e.g. the scale-bench presets.  Already-frozen
        instances come back unchanged.
        """
        if self.dynamics.is_frozen:
            return self
        return self._derive(
            dynamics=replace(self.dynamics, eta=0.0, beta=0.0, gamma=0.0)
        )

    def with_budget(self, budget: float) -> "IMDPPInstance":
        """Clone with a different budget (for sweeps)."""
        return self._derive(budget=float(budget))

    def with_promotions(self, n_promotions: int) -> "IMDPPInstance":
        """Clone with a different number of promotions (for sweeps)."""
        return self._derive(n_promotions=int(n_promotions))
