"""Trigger models (IC / LT) and the aggregated influence score AIS.

The diffusion process of Sec. III is model-agnostic: a newly-adopting
friend ``u'`` promotes item ``x`` to ``u`` and the adoption probability
couples the influence strength with the preference,
``Pact(u', u) * Ppref(u, x)``.  Under IC each such promotion is an
independent coin; under LT a user adopts once the accumulated weighted
influence of adopting friends crosses a personal threshold.

``AIS(v, y, zeta)`` (footnote 31) is the aggregated probability that
``y`` would be promoted to ``v`` in the *next* promotion — the
ingredient of the likelihood ``pi`` in Eq. (13):

* IC:  ``1 - prod_{v' in N_in(v), y in A(v')} (1 - Pact(v', v))``
* LT:  ``sum_{v' in N_in(v), y in A(v')} Pact(v', v)`` (capped at 1)

(The paper's IC formula prints the condition as ``y not in A(v')``;
only in-neighbours that *have* adopted ``y`` can promote it, matching
the LT line, so we read it as a typo and use ``y in A(v')``.)
:func:`adoption_likelihood` computes AIS for a whole market at once;
the one-(user, item) scalar form it is pinned against lives with the
tests (``tests.reference.aggregated_influence``).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.perception.state import PerceptionState
from repro.social.csr import row_gather

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
]


class DiffusionModel(enum.Enum):
    """Supported trigger models."""

    INDEPENDENT_CASCADE = "IC"
    LINEAR_THRESHOLD = "LT"


def adoption_likelihood(
    state: PerceptionState,
    model: DiffusionModel,
    users: set[int],
) -> float:
    """``pi_tau`` of Eq. (13) for one realized final state.

    Sums, over users in the market and their not-yet-adopted items,
    the probability of being promoted next promotion (``AIS``) times
    the current preference.  One pass serves the whole market: its
    in-rows are gathered at once, the in-arcs from adopting
    neighbours get their strengths from one ``influence_batch`` call,
    and each (user, item)'s IC product or LT sum accumulates with an
    unbuffered ``ufunc.at``, which applies the arcs in row order — the
    float order of the scalar AIS ``tests.reference.aggregated_influence``
    (DESIGN §3).  The closing masked sums stay per user, in sorted
    order.  ``tests/diffusion/test_vectorized.py`` pins the result
    against the per-user and scalar references exactly.
    """
    members = np.array(sorted(users), dtype=np.int64)
    n_items = state.n_items
    csr = state.network.csr
    starts = csr.in_indptr[members]
    counts = csr.in_indptr[members + 1] - starts
    arcs = row_gather(starts, counts)
    rows = np.repeat(np.arange(members.size), counts)
    neighbours = csr.in_indices[arcs]
    adopted = state.adopted_matrix(neighbours)
    # In-neighbours without any adoption promote nothing.
    active = adopted.any(axis=1)
    use_ic = model is DiffusionModel.INDEPENDENT_CASCADE
    # Per (user, item): the IC product of (1 - strength), or the LT sum.
    shape = (members.size, n_items)
    accumulated = np.ones(shape) if use_ic else np.zeros(shape)
    if active.any():
        rows = rows[active]
        strengths = state.influence_batch(
            neighbours[active], members[rows], csr.in_strength[arcs[active]]
        )
        live = strengths > 0.0
        arc_of, items = np.nonzero(adopted[active][live])
        cells = rows[live][arc_of] * n_items + items
        strengths = strengths[live][arc_of]
        flat = accumulated.reshape(-1)
        if use_ic:
            np.multiply.at(flat, cells, 1.0 - strengths)
        else:
            np.add.at(flat, cells, strengths)
    ais = 1.0 - accumulated if use_ic else np.minimum(1.0, accumulated)
    mask = (ais > 0.0) & ~state.adopted_matrix(members)
    total = 0.0
    for row in np.flatnonzero(mask.any(axis=1)).tolist():
        keep = mask[row]
        preference = state.preference(int(members[row]))
        total += float((ais[row][keep] * preference[keep]).sum())
    return total
