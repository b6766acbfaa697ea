"""One-pass AIS / likelihood paths vs. the per-user and scalar references.

``adoption_likelihood`` computes Eq. (13) for a whole market in one
pass.  These tests pin it, float for float, against the per-user
formulation it replaced (``aggregated_influence_vector`` plus a sorted
per-user loop, kept here as the reference) and against the original
per-item scalar formulation, on tiny hand-made states and on final
states of real dynamic ``yelp`` replications.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.data import load_dataset
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.social.network import SocialNetwork
from repro.utils.rng import spawn_rng

from tests.conftest import build_tiny_instance
from tests.reference import aggregated_influence

MODELS = (
    DiffusionModel.INDEPENDENT_CASCADE,
    DiffusionModel.LINEAR_THRESHOLD,
)


def aggregated_influence_vector(state, model, user):
    """``AIS(user, .)`` over all items, one masked update per in-arc.

    Strengths are batched over the CSR in-row (adopting neighbours
    only); each adopting in-neighbour then updates every item it
    adopted, in row order, so each entry equals the scalar
    :func:`aggregated_influence` exactly.
    """
    use_ic = model is DiffusionModel.INDEPENDENT_CASCADE
    probability_none = np.ones(state.n_items)
    total = np.zeros(state.n_items)
    neighbours, base = state.network.csr.in_row(user)
    active = state.adopted_matrix(neighbours).any(axis=1)
    neighbours = neighbours[active]
    if neighbours.size:
        strengths = state.influence_batch(
            neighbours,
            np.full(neighbours.size, user, dtype=np.int64),
            base[active],
        )
        for position, neighbour in enumerate(neighbours.tolist()):
            strength = float(strengths[position])
            if strength <= 0.0:
                continue
            adopted = state.adopted_row(neighbour)
            if use_ic:
                probability_none[adopted] *= 1.0 - strength
            else:
                total[adopted] += strength
    if use_ic:
        return 1.0 - probability_none
    return np.minimum(1.0, total)


def per_user_adoption_likelihood(state, model, users):
    """The per-user reference: one AIS vector and one sum per user."""
    total = 0.0
    for user in sorted(users):
        ais = aggregated_influence_vector(state, model, user)
        mask = (ais > 0.0) & ~state.adopted_row(user)
        if not mask.any():
            continue
        total += float((ais[mask] * state.preference(user)[mask]).sum())
    return total


def _terms(state, model, user):
    """How many items add a term to ``user``'s share of Eq. (13)."""
    ais = aggregated_influence_vector(state, model, user)
    return int(((ais > 0.0) & ~state.adopted_row(user)).sum())


def scalar_adoption_likelihood(state, model, users):
    """The pre-vectorization reference implementation (the oracle)."""
    total = 0.0
    for user in users:
        preference = state.preference(user)
        adopted = state.adopted[user]
        for item in range(state.n_items):
            if item in adopted:
                continue
            ais = aggregated_influence(state, model, user, item)
            if ais > 0.0:
                total += ais * preference[item]
    return total


def _states(instance=None):
    """A spread of perception states: empty, sparse, dense adoption."""
    adoption_patterns = [
        {},
        {0: [0]},
        {0: [0], 5: [0]},
        {0: [0, 1], 2: [3], 4: [2]},
        {u: [0, 1, 2, 3] for u in range(6)},
    ]
    instance = instance or build_tiny_instance()
    for pattern in adoption_patterns:
        state = instance.new_state()
        if pattern:
            state.apply_step_adoptions(pattern)
        yield pattern, state


def _directed_instance():
    """The tiny instance on a directed graph where user 0 has no in-arcs."""
    network = SocialNetwork(6, directed=True)
    for source, target, strength in [
        (0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.7),
        (4, 5, 0.5), (5, 1, 0.3), (1, 4, 0.2),
    ]:
        network.add_edge(source, target, strength)
    instance = replace(build_tiny_instance(), network=network)
    assert not network.csr.in_row(0)[0].size
    return instance


@pytest.fixture(scope="module")
def yelp_final_states():
    """Final states of dynamic ``yelp`` replications, both models.

    A seed on every fourth user spreads far enough that a user's
    not-yet-adopted item has several adopting in-neighbours, so the
    per-(user, item) accumulation order is exercised.
    """
    instance = load_dataset("yelp")
    assert not instance.dynamics.is_frozen
    group = SeedGroup(
        Seed(user, user * 7 % instance.n_items, 1 + user % instance.n_promotions)
        for user in range(0, instance.n_users, 4)
    )
    states = {}
    for model in MODELS:
        simulator = CampaignSimulator(instance, model=model)
        states[model] = [
            simulator.run(group, spawn_rng(4, "likelihood", i)).state
            for i in range(3)
        ]
    return instance, states


@pytest.mark.parametrize("model", MODELS)
class TestAisVector:
    def test_matches_scalar_exactly(self, model):
        """Elementwise float equality — same operations, same order."""
        for pattern, state in _states():
            for user in range(state.n_users):
                vector = aggregated_influence_vector(state, model, user)
                scalar = np.array([
                    aggregated_influence(state, model, user, item)
                    for item in range(state.n_items)
                ])
                assert np.array_equal(vector, scalar), (pattern, user)

    def test_range_and_shape(self, model):
        for _, state in _states():
            vector = aggregated_influence_vector(state, model, 1)
            assert vector.shape == (state.n_items,)
            assert (vector >= 0.0).all() and (vector <= 1.0).all()


@pytest.mark.parametrize("model", MODELS)
class TestLikelihoodVector:
    def test_matches_per_user_reference_on_tiny_states(self, model):
        for instance in (build_tiny_instance(), _directed_instance()):
            for pattern, state in _states(instance):
                # {2} and {0} on the directed graph: in-neighbours
                # that adopted nothing / no in-arcs at all.
                for users in (set(), {0}, {2}, {1, 4}, set(range(6))):
                    fast = adoption_likelihood(state, model, users)
                    slow = per_user_adoption_likelihood(state, model, users)
                    assert fast == slow, (pattern, users)

    def test_matches_per_user_reference_on_yelp(
        self, model, yelp_final_states
    ):
        instance, states = yelp_final_states
        everyone = set(range(instance.n_users))
        # Singletons keep a one-ulp AIS difference from vanishing in a
        # market-wide sum.
        markets = [everyone, set(range(0, instance.n_users, 3)), set()]
        markets += [{user} for user in range(instance.n_users)]
        for state in states[model]:
            assert state.adopted_matrix(np.arange(state.n_users)).any()
            for users in markets:
                fast = adoption_likelihood(state, model, users)
                slow = per_user_adoption_likelihood(state, model, users)
                assert fast == slow, len(users)
            assert adoption_likelihood(state, model, everyone) > 0.0

    def test_matches_scalar_oracle(self, model):
        """Exact wherever the two sum in the same order.

        The oracle adds one term per (user, item) to a running total;
        the one-pass path sums each user's terms first.  With at most
        one term per user the orders coincide and the floats must too.
        """
        exact = 0
        for pattern, state in _states():
            for users in ({0}, {1, 4}, set(range(6))):
                fast = adoption_likelihood(state, model, users)
                slow = scalar_adoption_likelihood(state, model, users)
                if max(_terms(state, model, user) for user in users) <= 1:
                    exact += 1
                    assert fast == slow, (pattern, users)
                else:
                    assert fast == pytest.approx(slow, rel=1e-12), (
                        pattern,
                        users,
                    )
        assert exact >= 10

    def test_zero_without_adoptions(self, model):
        state = build_tiny_instance().new_state()
        assert adoption_likelihood(state, model, set(range(6))) == 0.0
        assert adoption_likelihood(state, model, set()) == 0.0


class TestAdoptedRow:
    def test_mask_mirrors_sets(self):
        for _, state in _states():
            for user in range(state.n_users):
                row = state.adopted_row(user)
                assert set(np.flatnonzero(row)) == state.adopted[user]

    def test_copy_detaches_mask(self):
        state = build_tiny_instance().new_state()
        state.apply_step_adoptions({0: [0]})
        clone = state.copy()
        clone.apply_step_adoptions({0: [1]})
        assert not state.adopted_row(0)[1]
        assert clone.adopted_row(0)[1]
