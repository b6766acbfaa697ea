"""Personal meta-graph weightings ``Wmeta(u, m, zeta_t)``.

The paper (Sec. V-A(1), after SemRec [10] / RelSUE [11]) updates a
user's weighting on each meta-graph from previously adopted items: a
meta-graph gains weight when it *explains* co-adoptions — when its
instances connect the newly adopted items to each other or to the
user's history (exactly the Fig. 1(c) -> 1(d) transition, where buying
iPhone + AirPods raises the weights of the meta-graphs linking them).

Update rule (documented in DESIGN.md §3):

    evidence[m] = sum_{a in A_old, b in B_new} s(a, b | m)
                + sum_{b < b' in B_new}        s(b, b' | m)
    W(u) <- (W(u) + eta * evidence) / max(1, max(W(u) + eta * evidence))

The rescaling keeps every weight in [0, 1] while preserving the
relative growth of evidenced meta-graphs.
"""

from __future__ import annotations

import numpy as np

from repro.kg.relevance import RelevanceEngine

__all__ = ["initial_weights", "update_weights", "weight_evidence"]


def initial_weights(
    n_users: int,
    n_meta: int,
    rng: np.random.Generator | None = None,
    low: float = 0.2,
    high: float = 0.8,
) -> np.ndarray:
    """Draw initial per-user weightings uniformly in [low, high].

    Deterministic uniform 0.5 weights are returned when ``rng`` is
    None, which is convenient for unit tests.
    """
    if rng is None:
        return np.full((n_users, n_meta), 0.5)
    return rng.uniform(low, high, size=(n_users, n_meta))


def weight_evidence(
    relevance: RelevanceEngine,
    history: set[int],
    new_items: list[int],
) -> np.ndarray:
    """Per-meta-graph evidence that the new adoptions are explained.

    Returns an (n_meta,) vector: for each meta-graph, the total
    relevance mass between the newly adopted items and (a) the user's
    existing history and (b) each other.
    """
    evidence = np.zeros(relevance.n_meta)
    history_list = list(history)
    for position, new_item in enumerate(new_items):
        if history_list:
            evidence += relevance.matrices[:, history_list, new_item].sum(
                axis=1
            )
        for other in new_items[position + 1 :]:
            evidence += relevance.matrices[:, new_item, other]
    return evidence


def update_weights(
    weights: np.ndarray,
    evidence: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Apply the evidence-driven update and renormalize into [0, 1]."""
    updated = weights + eta * evidence
    peak = updated.max()
    if peak > 1.0:
        updated = updated / peak
    return updated.clip(0.0, 1.0)
