"""Property-based tests (hypothesis) for the core invariants.

DESIGN.md §10 lists the invariants; each strategy drives the real code
paths with arbitrary (bounded) inputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kg.relevance import pathsim_normalize
from repro.perception.influence import (
    adoption_similarity,
    adoption_similarity_batch,
    influence_strength,
)
from repro.perception.preference import preference_vector
from repro.perception.weights import update_weights


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------
@st.composite
def count_matrices(draw):
    n = draw(st.integers(2, 6))
    values = draw(
        st.lists(
            st.integers(0, 8), min_size=n * n, max_size=n * n
        )
    )
    raw = np.array(values, dtype=float).reshape(n, n)
    counts = raw + raw.T  # symmetric counts
    # the diagonal must dominate: c(x,x) >= max row count (PathSim input)
    np.fill_diagonal(counts, counts.max(axis=1) + np.diag(raw))
    return counts


@given(count_matrices())
@settings(max_examples=60, deadline=None)
def test_pathsim_symmetric_and_bounded(counts):
    s = pathsim_normalize(counts)
    assert np.allclose(s, s.T)
    assert s.min() >= 0.0
    assert s.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6),
    st.floats(0.0, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_weight_update_stays_in_unit_interval(weights, evidence, eta):
    n = min(len(weights), len(evidence))
    updated = update_weights(
        np.array(weights[:n]), np.array(evidence[:n]), eta
    )
    assert updated.min() >= 0.0
    assert updated.max() <= 1.0 + 1e-12


@given(
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.floats(0.01, 5.0),
    st.floats(0.1, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_weight_update_monotone_in_evidence(weights, bonus, eta):
    """More evidence for one meta-graph never lowers its relative weight."""
    base = np.array(weights)
    low = update_weights(base, np.array([0.0, 0.0, 0.0]), eta)
    high = update_weights(base, np.array([bonus, 0.0, 0.0]), eta)
    # relative share of meta-graph 0 grows
    assert high[0] / high.sum() >= low[0] / low.sum() - 1e-9


# ---------------------------------------------------------------------------
# preference (cross elasticity)
# ---------------------------------------------------------------------------
@st.composite
def preference_inputs(draw):
    n_items = draw(st.integers(2, 5))
    base = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n_items, max_size=n_items))
    )
    acc = np.array(
        draw(
            st.lists(
                st.floats(0.0, 3.0), min_size=2 * n_items, max_size=2 * n_items
            )
        )
    ).reshape(2, n_items)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    beta = draw(st.floats(0.0, 1.0))
    return base, weights, acc, beta


@given(preference_inputs())
@settings(max_examples=80, deadline=None)
def test_preference_bounded(inputs):
    base, weights, acc, beta = inputs
    prefs = preference_vector(
        base, weights, acc, np.array([0]), np.array([1]), beta
    )
    assert prefs.min() >= 0.0
    assert prefs.max() <= 1.0 + 1e-12


@given(preference_inputs(), st.floats(0.01, 2.0))
@settings(max_examples=80, deadline=None)
def test_more_complement_mass_never_lowers_preference(inputs, extra):
    base, weights, acc, beta = inputs
    before = preference_vector(
        base, weights, acc, np.array([0]), np.array([1]), beta
    )
    boosted = acc.copy()
    boosted[0] += extra  # more accumulated complementary relevance
    after = preference_vector(
        base, weights, boosted, np.array([0]), np.array([1]), beta
    )
    assert (after >= before - 1e-9).all()


@given(preference_inputs(), st.floats(0.01, 2.0))
@settings(max_examples=80, deadline=None)
def test_more_substitute_mass_never_raises_preference(inputs, extra):
    base, weights, acc, beta = inputs
    before = preference_vector(
        base, weights, acc, np.array([0]), np.array([1]), beta
    )
    boosted = acc.copy()
    boosted[1] += extra  # more accumulated substitutable relevance
    after = preference_vector(
        base, weights, boosted, np.array([0]), np.array([1]), beta
    )
    assert (after <= before + 1e-9).all()


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------
@given(
    st.sets(st.integers(0, 8), max_size=6),
    st.sets(st.integers(0, 8), max_size=6),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_influence_strength_bounded(a, b, wa, wb, base, gamma):
    sim = adoption_similarity(a, b, np.array(wa), np.array(wb))
    assert 0.0 <= sim <= 1.0 + 1e-12
    strength = influence_strength(base, sim, gamma)
    assert 0.0 <= strength <= 1.0


@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(0, 8), min_size=1, max_size=6),
            st.sets(st.integers(0, 8), min_size=1, max_size=6),
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=80, deadline=None)
def test_similarity_batch_is_the_scalar_similarity(pairs):
    """Bit for bit, signed zeros included, for users who both adopted."""
    adopted_u = np.zeros((len(pairs), 9), dtype=bool)
    adopted_v = np.zeros((len(pairs), 9), dtype=bool)
    for p, (a, b, _, _) in enumerate(pairs):
        adopted_u[p, list(a)] = True
        adopted_v[p, list(b)] = True

    def weights_of(p):
        wa, wb = np.array(pairs[p][2]), np.array(pairs[p][3])
        return wa, float(np.linalg.norm(wa)), wb, float(np.linalg.norm(wb))

    batch = adoption_similarity_batch(adopted_u, adopted_v, weights_of)
    expected = np.array(
        [
            adoption_similarity(a, b, np.array(wa), np.array(wb))
            for a, b, wa, wb in pairs
        ]
    )
    assert batch.tobytes() == expected.tobytes()
