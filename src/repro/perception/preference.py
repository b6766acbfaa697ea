"""Preference estimation ``Ppref(u, y, zeta_t)`` (Sec. V-A(2)).

The paper derives preferences for not-yet-adopted items from the
adopted items and the personal item network, citing embedding methods
(RSC/RCF).  We implement the economic mechanism those methods encode —
*cross elasticity of demand* [7]: every adopted complement of ``y``
raises the preference for ``y``; every adopted substitute lowers it:

    Ppref(u, y) = clip( base(u, y)
                        + beta * tanh( sum_{a in A(u)}
                                       (r^C(u,a,y) - r^S(u,a,y)) ),
                        min_preference, 1 )

The ``tanh`` saturates the boost: with many adopted items the raw
relevance sum grows without bound, which would drive every preference
to 1 and make the diffusion supercritical; the squash keeps the boost
within ``±beta`` while preserving sign and monotonicity (adopting a
complement never lowers a preference, a substitute never raises it).

The sum over adopted items is linear in the per-meta-graph relevance,
so the state keeps an accumulated relevance matrix per adopting user
and preferences are a single small mat-vec.
"""

from __future__ import annotations

import numpy as np

__all__ = ["preference_vector"]


def preference_vector(
    base_preference_row: np.ndarray,
    weights: np.ndarray,
    accumulated: np.ndarray,
    complementary_index: np.ndarray,
    substitutable_index: np.ndarray,
    beta: float,
    min_preference: float = 0.0,
) -> np.ndarray:
    """Current preference of one user over all items.

    Parameters
    ----------
    base_preference_row:
        (n_items,) initial preferences of the user.
    weights:
        (n_meta,) the user's current meta-graph weightings.
    accumulated:
        (n_meta, n_items) matrix with
        ``accumulated[m, y] = sum_{a in A(u)} s(a, y | m)``.
    complementary_index / substitutable_index:
        Meta-graph positions belonging to each relationship.
    beta:
        Cross-elasticity strength.
    min_preference:
        Floor applied after the update.
    """
    delta = np.zeros_like(base_preference_row)
    if complementary_index.size:
        delta += weights[complementary_index] @ accumulated[complementary_index]
    if substitutable_index.size:
        delta -= weights[substitutable_index] @ accumulated[substitutable_index]
    return (base_preference_row + beta * np.tanh(delta)).clip(
        min_preference, 1.0
    )
