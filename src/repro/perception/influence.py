"""Influence learning ``Pact(u, v, zeta_t)`` (Sec. V-A(3)).

Friends with similar adopted items and similar perceptions become
closer and influence each other more easily [12]-[15].  The paper cites
statistical/deep models (DeepInf, DANSER); we implement the homophily
mechanism directly:

    Pact(u, v) = clip( base(u, v) + gamma * sim(u, v), min_influence, 1 )
    sim(u, v)  = ( 0.5 * Jaccard(A(u), A(v)) + 0.5 * cos(W(u), W(v)) )
                 * |A(u) ∩ A(v)| / (1 + |A(u) ∩ A(v)|)
                 ... and 0 unless both users have adopted something

where ``A`` are adoption sets and ``W`` meta-graph weightings.  The
similarity is gated on both users having adoption histories: initial
weight vectors are all broadly similar (cosine ~ 1 between random
uniform vectors), and without the gate every arc would receive the
full homophily bonus before any campaign activity — influence must be
*earned* by observed co-behaviour, as in the paper's case study where
strengths grow only after the users co-adopt (Sec. VI-F case 3).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "adoption_similarity",
    "adoption_similarity_batch",
    "influence_strength",
    "influence_strength_batch",
]


def adoption_similarity(
    adopted_u: set[int],
    adopted_v: set[int],
    weights_u: np.ndarray,
    weights_v: np.ndarray,
) -> float:
    """Similarity in [0, 1] combining co-adoptions and perceptions.

    Returns 0 unless both users have adopted at least one item (see
    module docstring for why the perception term alone must not grant
    a bonus).
    """
    if not adopted_u or not adopted_v:
        return 0.0
    common = len(adopted_u & adopted_v)
    union = len(adopted_u | adopted_v)
    jaccard = common / union if union else 0.0
    # A single co-adopted item must not already grant the maximum
    # bonus (jaccard of two one-item histories is 1.0); similarity
    # accrues with the *amount* of shared behaviour.
    depth = common / (1.0 + common)
    norm_u = float(np.linalg.norm(weights_u))
    norm_v = float(np.linalg.norm(weights_v))
    if norm_u > 0 and norm_v > 0:
        cosine = float(weights_u @ weights_v) / (norm_u * norm_v)
    else:
        cosine = 0.0
    raw = 0.5 * jaccard + 0.5 * max(0.0, min(1.0, cosine))
    return raw * depth


def adoption_similarity_batch(
    adopted_u: np.ndarray,
    adopted_v: np.ndarray,
    weights_of: Callable[[int], tuple[np.ndarray, float, np.ndarray, float]],
) -> np.ndarray:
    """Vectorized :func:`adoption_similarity` over user pairs.

    For pairs of users who both adopted something, given as boolean
    ``(n_pairs, n_items)`` adoption rows.  ``weights_of(p)`` returns
    pair ``p``'s ``(W(u), ||W(u)||, W(v), ||W(v)||)``, norms as
    ``float(np.linalg.norm(W))``; it is asked only for pairs that share
    an adoption, because a pair without one scores exactly 0.0 whatever
    its cosine.  Elementwise bit-identical to the scalar form: the
    counts are integers, each cosine keeps its own ``@``, and the
    ratios combine through the same IEEE-754 operations.
    """
    common = (adopted_u & adopted_v).sum(axis=1)
    union = (adopted_u | adopted_v).sum(axis=1)
    dots = np.zeros(common.size)
    norms_u = np.zeros(common.size)
    norms_v = np.zeros(common.size)
    for p in np.flatnonzero(common).tolist():
        weights_u, norms_u[p], weights_v, norms_v[p] = weights_of(p)
        dots[p] = float(weights_u @ weights_v)
    jaccard = common / union
    depth = common / (1.0 + common)
    cosine = np.zeros(common.size)
    both = (norms_u > 0) & (norms_v > 0)
    cosine[both] = dots[both] / (norms_u[both] * norms_v[both])
    raw = 0.5 * jaccard + 0.5 * np.maximum(0.0, np.minimum(1.0, cosine))
    return raw * depth


def influence_strength(
    base_strength: float,
    similarity: float,
    gamma: float,
    min_influence: float = 0.0,
) -> float:
    """Dynamic strength: base plus homophily bonus, clipped to [0,1].

    The bonus only applies across existing arcs (``base_strength > 0``)
    — similarity cannot conjure influence between strangers.
    """
    if base_strength <= 0.0:
        return 0.0
    value = base_strength + gamma * similarity
    return max(min_influence, min(1.0, value))


def influence_strength_batch(
    base_strengths: np.ndarray,
    similarities: np.ndarray,
    gamma: float,
    min_influence: float = 0.0,
) -> np.ndarray:
    """Vectorized :func:`influence_strength` over arc arrays.

    Elementwise bit-identical to the scalar form: the clip pipeline is
    the same sequence of IEEE-754 operations (``base + gamma * sim``,
    ``min`` with 1, ``max`` with the floor, zeroed where no arc).
    """
    base_strengths = np.asarray(base_strengths, dtype=np.float64)
    values = base_strengths + gamma * np.asarray(similarities, dtype=np.float64)
    values = np.maximum(min_influence, np.minimum(1.0, values))
    return np.where(base_strengths > 0.0, values, 0.0)
