"""Draw-for-draw equivalence: every diffusion step vs the scalar one.

The ``CampaignSimulator`` step batches a whole step's coin flips into
one ``rng.random(k)`` call, and the replication-lockstep pass
(``repro.diffusion.repkernel``) further batches whole *chunks of
replications* into one pass.  The contract (DESIGN.md, "Canonical
event order") is that both consume the *identical* RNG substream as
the scalar per-arc reference of ``tests/reference`` — adoption for
adoption and draw for draw — so realization distributions,
common-random-numbers correlation and the golden fixtures are all
preserved.

These tests run full campaigns on hypothesis-generated instances
(random topology, insertion order, strengths, preferences, seeds and
dynamics) for both IC and LT and assert bit identity of every output
*and* of the final RNG stream position (``bit_generator.state``).  The
lockstep pass is also pinned at the replication-word boundaries (R in
{1, 63, 64, 65, 130}).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.diffusion.repkernel import run_campaigns_lockstep
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams

from tests.conftest import build_tiny_kg, build_tiny_metagraphs
from tests.reference import ScalarCampaignSimulator
from repro.social.network import SocialNetwork

N_ITEMS = 4


@st.composite
def instances(draw, force_frozen=False):
    """A small IMDPP instance with a hypothesis-drawn social layer.

    The knowledge-graph side is fixed (the tiny 4-item KG); everything
    the frontier kernel is sensitive to — topology, arc *insertion
    order*, strengths, preferences, weights, dynamics — is drawn.
    ``force_frozen`` pins the dynamics to the frozen regime the
    lockstep kernel requires (association coins stay live).
    """
    n_users = draw(st.integers(3, 8))
    directed = draw(st.booleans())
    possible = [
        (u, v) for u in range(n_users) for v in range(n_users) if u != v
    ]
    arcs = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=14)
    )
    strengths = draw(
        st.lists(
            st.floats(0.05, 1.0),
            min_size=len(arcs),
            max_size=len(arcs),
        )
    )
    network = SocialNetwork(n_users, directed=directed)
    for (u, v), s in zip(arcs, strengths):
        network.add_edge(u, v, s)

    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    pref_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(pref_seed)
    frozen = force_frozen or draw(st.booleans())
    dynamics = (
        DynamicsParams.frozen()
        if frozen
        else DynamicsParams(
            eta=draw(st.floats(0.0, 1.0)),
            beta=draw(st.floats(0.0, 0.8)),
            gamma=draw(st.floats(0.0, 0.5)),
            association_scale=draw(st.floats(0.0, 0.6)),
        )
    )
    instance = IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=rng.uniform(0.2, 2.0, size=N_ITEMS),
        base_preference=rng.uniform(0.05, 0.9, size=(n_users, N_ITEMS)),
        initial_weights=rng.uniform(0.2, 0.8, size=(n_users, relevance.n_meta)),
        costs=np.full((n_users, N_ITEMS), 5.0),
        budget=100.0,
        n_promotions=draw(st.integers(1, 2)),
        dynamics=dynamics,
        name="hypothesis",
    )
    seeds = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1),
                st.integers(0, N_ITEMS - 1),
                st.integers(1, instance.n_promotions),
            ),
            min_size=1,
            max_size=5,
        )
    )
    group = SeedGroup(Seed(u, i, t) for u, i, t in seeds)
    run_seed = draw(st.integers(0, 2**32 - 1))
    return instance, group, run_seed


def _run(instance, group, run_seed, model, simulator_class):
    rng = np.random.default_rng(run_seed)
    simulator = simulator_class(instance, model=model)
    outcome = simulator.run(group, rng)
    return outcome, rng


def _assert_bit_identical(instance, group, run_seed, model):
    scalar, scalar_rng = _run(
        instance, group, run_seed, model, ScalarCampaignSimulator
    )
    fast, fast_rng = _run(instance, group, run_seed, model, CampaignSimulator)
    # Adoptions: exact boolean equality, not just the same spread.
    assert np.array_equal(scalar.new_adoptions, fast.new_adoptions)
    # Per-promotion sigmas accumulate in event order — exact equality.
    assert scalar.sigma_by_promotion == fast.sigma_by_promotion
    assert scalar.steps_run == fast.steps_run
    assert np.array_equal(scalar.state.weights, fast.state.weights)
    # The decisive check: both steps consumed the exact same number
    # of draws from the exact same substream.
    assert scalar_rng.bit_generator.state == fast_rng.bit_generator.state


@given(instances())
@settings(max_examples=40, deadline=None)
def test_ic_step_bit_identical(case):
    instance, group, run_seed = case
    _assert_bit_identical(
        instance, group, run_seed, DiffusionModel.INDEPENDENT_CASCADE
    )


@given(instances())
@settings(max_examples=40, deadline=None)
def test_lt_step_bit_identical(case):
    instance, group, run_seed = case
    _assert_bit_identical(
        instance, group, run_seed, DiffusionModel.LINEAR_THRESHOLD
    )


# ----------------------------------------------------------------------
# Replication-lockstep kernel: one packed pass over R replications must
# replay each replication's per-replication run exactly.
# ----------------------------------------------------------------------

#: Replication counts straddling the packed uint64 word boundaries.
WORD_BOUNDARY_RS = (1, 63, 64, 65, 130)


def _replication_rngs(run_seed, n_replications):
    return [
        np.random.default_rng((run_seed, r))
        for r in range(n_replications)
    ]


def _assert_lockstep_matches(instance, group, run_seed, model, n_replications):
    simulator = CampaignSimulator(instance, model=model)
    reference_rngs = _replication_rngs(run_seed, n_replications)
    references = [simulator.run(group, rng) for rng in reference_rngs]
    rngs = _replication_rngs(run_seed, n_replications)
    outcomes = run_campaigns_lockstep(instance, group, rngs, model=model)
    assert len(outcomes) == n_replications
    for r, (reference, outcome) in enumerate(zip(references, outcomes)):
        assert np.array_equal(
            reference.new_adoptions, outcome.new_adoptions
        ), r
        assert reference.sigma == outcome.sigma, r
        assert reference.sigma_by_promotion == outcome.sigma_by_promotion, r
        assert reference.steps_run == outcome.steps_run, r
        some_users = set(range(0, instance.n_users, 2))
        assert reference.sigma_restricted(
            some_users
        ) == outcome.sigma_restricted(some_users), r
        # Final perception state is reconstructible (frozen run).
        assert np.array_equal(
            reference.state.weights, outcome.state.weights
        ), r
        # The decisive check: replication r consumed exactly the
        # draws its own per-replication run would have.
        assert (
            reference_rngs[r].bit_generator.state
            == rngs[r].bit_generator.state
        ), r


@given(instances(force_frozen=True), st.sampled_from((1, 2, 5)))
@settings(max_examples=30, deadline=None)
def test_lockstep_ic_bit_identical(case, n_replications):
    instance, group, run_seed = case
    _assert_lockstep_matches(
        instance,
        group,
        run_seed,
        DiffusionModel.INDEPENDENT_CASCADE,
        n_replications,
    )


@given(instances(force_frozen=True), st.sampled_from((1, 2, 5)))
@settings(max_examples=30, deadline=None)
def test_lockstep_lt_bit_identical(case, n_replications):
    instance, group, run_seed = case
    _assert_lockstep_matches(
        instance,
        group,
        run_seed,
        DiffusionModel.LINEAR_THRESHOLD,
        n_replications,
    )


@given(instances(force_frozen=True))
@settings(max_examples=6, deadline=None)
def test_lockstep_word_boundaries(case):
    """R in {1, 63, 64, 65, 130}: packed words must not leak bits."""
    instance, group, run_seed = case
    for n_replications in WORD_BOUNDARY_RS:
        _assert_lockstep_matches(
            instance,
            group,
            run_seed,
            DiffusionModel.INDEPENDENT_CASCADE,
            n_replications,
        )


@given(instances(force_frozen=True))
@settings(max_examples=15, deadline=None)
def test_lockstep_promotion_windows(case):
    """until_promotion / start_promotion replay the reference windows."""
    instance, group, run_seed = case
    simulator = CampaignSimulator(instance)
    for window in (
        dict(until_promotion=1),
        dict(start_promotion=instance.n_promotions),
    ):
        reference_rng = np.random.default_rng(run_seed)
        reference = simulator.run(group, reference_rng, **window)
        rng = np.random.default_rng(run_seed)
        (outcome,) = run_campaigns_lockstep(
            instance, group, [rng], **window
        )
        assert reference.sigma == outcome.sigma, window
        assert (
            reference.sigma_by_promotion == outcome.sigma_by_promotion
        ), window
        assert (
            reference_rng.bit_generator.state == rng.bit_generator.state
        ), window


def test_lockstep_requires_frozen_dynamics(tiny_instance):
    import pytest

    from repro.errors import SimulationError

    assert not tiny_instance.dynamics.is_frozen
    group = SeedGroup([Seed(0, 0, 1)])
    with pytest.raises(SimulationError):
        run_campaigns_lockstep(
            tiny_instance, group, [np.random.default_rng(0)]
        )


def test_lockstep_empty_rngs(tiny_instance):
    group = SeedGroup([Seed(0, 0, 1)])
    assert run_campaigns_lockstep(tiny_instance.frozen(), group, []) == []
