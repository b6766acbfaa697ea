"""Draw-for-draw equivalence: the diffusion kernel vs the scalar step.

The replication-lockstep pass (``repro.diffusion.campaign``) batches a
whole step's coin flips into one ``rng.random(k)`` call per
replication and whole *ranges of replications* into one pass;
``CampaignSimulator.run`` is the same pass over one generator.  The
contract (DESIGN.md, "Canonical event order") is that it consumes the
*identical* RNG substream as the scalar per-arc reference of
``tests/reference`` — adoption for adoption and draw for draw — so
realization distributions, common-random-numbers correlation and the
golden fixtures are all preserved.

These tests run full campaigns on hypothesis-generated instances
(random topology, insertion order, strengths, preferences, seeds and
dynamics) for both IC and LT and assert bit identity of every output
*and* of the final RNG stream position (``bit_generator.state``).  The
lockstep pass is checked per replication against an independent
scalar reference run under frozen and learning dynamics alike —
sigmas, the likelihood and final weights its collectors read, resumed
states, adaptive IM's observe-then-resume chain, a different seed
group per replication — and at the replication-word boundaries
(R in {1, 63, 64, 65, 130}).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.data import load_dataset
from repro.diffusion.campaign import CampaignSimulator, run_campaigns_lockstep
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.errors import SimulationError
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams

from tests.conftest import build_tiny_kg, build_tiny_metagraphs
from tests.reference import ScalarCampaignSimulator
from repro.social.network import SocialNetwork

N_ITEMS = 4


@st.composite
def seed_groups(draw, instance):
    """A non-empty seed group of ``instance``."""
    seeds = draw(
        st.lists(
            st.tuples(
                st.integers(0, instance.n_users - 1),
                st.integers(0, N_ITEMS - 1),
                st.integers(1, instance.n_promotions),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return SeedGroup(Seed(u, i, t) for u, i, t in seeds)


@st.composite
def instances(draw, promotions=st.integers(1, 2)):
    """A small IMDPP instance with a hypothesis-drawn social layer.

    The knowledge-graph side is fixed (the tiny 4-item KG); everything
    the frontier kernel is sensitive to — topology, arc *insertion
    order*, strengths, preferences, weights, dynamics — is drawn, and
    ``T`` from ``promotions``.
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
    frozen = draw(st.booleans())
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
        n_promotions=draw(promotions),
        dynamics=dynamics,
        name="hypothesis",
    )
    group = draw(seed_groups(instance))
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
# replay each replication's scalar reference run exactly, under learning
# dynamics as under frozen ones.
# ----------------------------------------------------------------------

#: Replication counts straddling the packed uint64 word boundaries.
WORD_BOUNDARY_RS = (1, 63, 64, 65, 130)


def _replication_rngs(run_seed, n_replications):
    return [
        np.random.default_rng((run_seed, r))
        for r in range(n_replications)
    ]


def _assert_same_outcome(instance, model, reference, outcome, label):
    """Adoptions, sigmas, and the collectors' reads of the final state
    (weights, likelihoods) are equal."""
    some_users = set(range(0, instance.n_users, 2))
    all_users = set(range(instance.n_users))
    assert np.array_equal(
        reference.new_adoptions, outcome.new_adoptions
    ), label
    assert reference.sigma == outcome.sigma, label
    assert reference.sigma_by_promotion == outcome.sigma_by_promotion, label
    assert reference.steps_run == outcome.steps_run, label
    assert reference.sigma_restricted(
        some_users
    ) == outcome.sigma_restricted(some_users), label
    assert np.array_equal(
        reference.state.weights, outcome.state.weights
    ), label
    for users in (some_users, all_users):
        assert adoption_likelihood(
            reference.state, model, users
        ) == adoption_likelihood(outcome.state, model, users), label


def _assert_lockstep_matches(instance, groups, run_seed, model, **window):
    """Replication ``r`` of one lockstep pass over ``groups`` equals an
    independent scalar reference run of ``groups[r]``: adoptions,
    sigmas, the collectors' likelihoods and final weights, and the
    final generator state."""
    n_replications = len(groups)
    simulator = ScalarCampaignSimulator(instance, model=model)
    reference_rngs = _replication_rngs(run_seed, n_replications)
    references = [
        simulator.run(group, rng, **window)
        for group, rng in zip(groups, reference_rngs)
    ]
    rngs = _replication_rngs(run_seed, n_replications)
    outcomes = run_campaigns_lockstep(
        instance, groups, rngs, model=model, **window
    )
    assert len(outcomes) == n_replications
    for r, (reference, outcome) in enumerate(zip(references, outcomes)):
        _assert_same_outcome(instance, model, reference, outcome, r)
        # The decisive check: replication r consumed exactly the
        # draws its own reference run would have.
        assert (
            reference_rngs[r].bit_generator.state
            == rngs[r].bit_generator.state
        ), r


@given(instances(), st.sampled_from((1, 2, 5)))
@settings(max_examples=30, deadline=None)
def test_lockstep_ic_bit_identical(case, n_replications):
    instance, group, run_seed = case
    _assert_lockstep_matches(
        instance,
        [group] * n_replications,
        run_seed,
        DiffusionModel.INDEPENDENT_CASCADE,
    )


@given(instances(), st.sampled_from((1, 2, 5)))
@settings(max_examples=30, deadline=None)
def test_lockstep_lt_bit_identical(case, n_replications):
    instance, group, run_seed = case
    _assert_lockstep_matches(
        instance,
        [group] * n_replications,
        run_seed,
        DiffusionModel.LINEAR_THRESHOLD,
    )


@given(
    instances(promotions=st.just(2)),
    st.sampled_from(tuple(DiffusionModel)),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_plays_one_group_per_replication(
    case, model, observe_seed, data
):
    """Replication ``r`` plays ``seed_groups[r]``: each equals a lone
    scalar run of its own group, from the pristine state or resumed
    from an observed one (``observe_seed``).

    The empty group sits second, behind a non-empty one, so a pass
    that played ``seed_groups[0]`` for every replication would show.
    """
    instance, group, run_seed = case
    groups = [group, SeedGroup()] + data.draw(
        st.lists(seed_groups(instance), max_size=4)
    )
    window = {}
    if observe_seed is not None:
        window = dict(
            initial_state=ScalarCampaignSimulator(instance, model=model)
            .run(group, np.random.default_rng(observe_seed), until_promotion=1)
            .state,
            start_promotion=2,
        )
    _assert_lockstep_matches(instance, groups, run_seed, model, **window)


def test_lockstep_rejects_unmatched_seed_groups(tiny_instance):
    group = SeedGroup([Seed(0, 0, 1)])
    rngs = _replication_rngs(0, 2)
    for groups in ([group], [group] * 3):
        with pytest.raises(SimulationError, match="seed groups"):
            run_campaigns_lockstep(tiny_instance, groups, rngs)
    with pytest.raises(SimulationError, match="seed groups"):
        run_campaigns_lockstep(tiny_instance, [group], [])


@given(instances())
@settings(max_examples=6, deadline=None)
def test_lockstep_word_boundaries(case):
    """R in {1, 63, 64, 65, 130}: packed words must not leak bits."""
    instance, group, run_seed = case
    for n_replications in WORD_BOUNDARY_RS:
        _assert_lockstep_matches(
            instance,
            [group] * n_replications,
            run_seed,
            DiffusionModel.INDEPENDENT_CASCADE,
        )


@given(instances())
@settings(max_examples=15, deadline=None)
def test_lockstep_promotion_windows(case):
    """until_promotion / start_promotion replay the reference windows."""
    instance, group, run_seed = case
    for window in (
        dict(until_promotion=1),
        dict(start_promotion=instance.n_promotions),
    ):
        _assert_lockstep_matches(
            instance,
            [group] * 3,
            run_seed,
            DiffusionModel.INDEPENDENT_CASCADE,
            **window,
        )


@given(
    instances(promotions=st.just(2)),
    st.sampled_from(tuple(DiffusionModel)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_lockstep_resumed_states(case, model, observe_seed):
    """A campaign resumed from an observed state (adaptive IM) replays
    the reference, and the resumed state is left untouched.

    ``T = 2``: the resumed promotion has seeds of its own, where a
    one-promotion campaign would only replay seeds already adopted.
    """
    instance, group, run_seed = case
    observed = ScalarCampaignSimulator(instance, model=model).run(
        group, np.random.default_rng(observe_seed), until_promotion=1
    ).state
    weights = observed.weights.copy()
    adopted = [set(items) for items in observed.adopted]
    _assert_lockstep_matches(
        instance,
        [group] * 4,
        run_seed,
        model,
        initial_state=observed,
        start_promotion=instance.n_promotions,
    )
    assert np.array_equal(observed.weights, weights)
    assert observed.adopted == adopted


@given(
    instances(promotions=st.just(2)),
    st.sampled_from(tuple(DiffusionModel)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_observation_chain_bit_identical(case, model, observe_seed):
    """Adaptive IM's chain: observe promotion 1 from the pristine
    state, then play the last promotion from what was observed.

    Each side resumes from its *own* observed state, so a final state
    the kernel materializes differently from the reference's shows up
    in the resumed run, not only in the reads checked directly.  Two
    promotions, so the resumed one has seeds of its own.
    """
    instance, group, run_seed = case
    last = instance.n_promotions
    chains = []
    for simulator_class in (ScalarCampaignSimulator, CampaignSimulator):
        simulator = simulator_class(instance, model=model)
        observe_rng = np.random.default_rng(observe_seed)
        observed = simulator.run(group, observe_rng, until_promotion=1)
        resume_rng = np.random.default_rng(run_seed)
        resumed = simulator.run(
            group,
            resume_rng,
            until_promotion=last,
            initial_state=observed.state,
            start_promotion=last,
        )
        chains.append((observed, resumed, observe_rng, resume_rng))
    reference, packed = chains
    _assert_same_outcome(instance, model, reference[0], packed[0], "observe")
    _assert_same_outcome(instance, model, reference[1], packed[1], "resume")
    for position in (2, 3):
        assert (
            reference[position].bit_generator.state
            == packed[position].bit_generator.state
        ), position


def _state_snapshot(state) -> tuple:
    """Everything a run may read of a perception state, as values."""
    return (
        state.weights.tobytes(),
        [sorted(items) for items in state.adopted],
        state._adopted_mask.tobytes(),
        {user: acc.tobytes() for user, acc in state._accumulated.items()},
        state._moved.tobytes(),
        [state.preference(user).tobytes() for user in range(state.n_users)],
    )


@given(
    instances(promotions=st.just(2)),
    st.sampled_from(tuple(DiffusionModel)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_resumed_run_state_leaves_initial_state(case, model, observe_seed):
    """A one-generator resumed run hands its own base to ``.state``:
    the caller's initial state stays as it was, and the final state
    equals the reference's."""
    instance, group, run_seed = case
    observed = ScalarCampaignSimulator(instance, model=model).run(
        group, np.random.default_rng(observe_seed), until_promotion=1
    ).state
    before = _state_snapshot(observed)
    runs = [
        simulator_class(instance, model=model).run(
            group,
            np.random.default_rng(run_seed),
            initial_state=observed,
            start_promotion=2,
        )
        for simulator_class in (ScalarCampaignSimulator, CampaignSimulator)
    ]
    reference, outcome = runs
    state = outcome.state
    assert state is not observed
    assert _state_snapshot(observed) == before
    _assert_same_outcome(instance, model, reference, outcome, "resumed")
    assert [sorted(items) for items in state.adopted] == [
        sorted(items) for items in reference.state.adopted
    ]
    for user in range(instance.n_users):
        assert np.array_equal(
            state.preference(user), reference.state.preference(user)
        ), user
    # Reads of the handed-over state do not write through either.
    assert _state_snapshot(observed) == before


@pytest.mark.parametrize("model", tuple(DiffusionModel))
def test_yelp_observation_chain_reads_moved_rows(model):
    """Observe promotion 1 on ``yelp``, then resume promotion 2 from
    each side's own observed state.

    Unlike the tiny KG, ``yelp``'s complementary rows do not saturate
    at 1, so a user whose weights moved during the observation must be
    resumed with rows under the moved weights, not the pristine ones.
    """
    instance = load_dataset("yelp")
    group = SeedGroup(
        Seed(user, user * 7 % instance.n_items, 1 + user // 4 % 2)
        for user in range(0, instance.n_users, 4)
    )
    moved = steps = 0
    for observe_seed, run_seed in ((0, 1), (2, 3), (4, 5), (6, 7)):
        chains = []
        for simulator_class in (ScalarCampaignSimulator, CampaignSimulator):
            simulator = simulator_class(instance, model=model)
            observed = simulator.run(
                group, np.random.default_rng(observe_seed), until_promotion=1
            )
            resume_rng = np.random.default_rng(run_seed)
            resumed = simulator.run(
                group,
                resume_rng,
                until_promotion=2,
                initial_state=observed.state,
                start_promotion=2,
            )
            chains.append((observed, resumed, resume_rng))
        reference, packed = chains
        label = (observe_seed, run_seed)
        _assert_same_outcome(instance, model, reference[0], packed[0], label)
        _assert_same_outcome(instance, model, reference[1], packed[1], label)
        assert (
            reference[2].bit_generator.state == packed[2].bit_generator.state
        ), label
        moved += int(packed[0].state._moved.sum())
        steps += packed[1].steps_run
    # The case exercises what it is about.
    assert moved and steps


def test_lockstep_empty_rngs(tiny_instance):
    assert run_campaigns_lockstep(tiny_instance, [], []) == []
