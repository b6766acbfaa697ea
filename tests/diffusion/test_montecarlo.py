"""Tests for the Monte-Carlo sigma estimator and Eq. (13) likelihood."""

import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator, adoption_likelihood
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance
from tests.reference import aggregated_influence


@pytest.fixture
def instance():
    return build_tiny_instance()


@pytest.fixture
def estimator(instance):
    return SigmaEstimator(instance, n_samples=15, rng_factory=RngFactory(4))


class TestEstimator:
    def test_empty_group_zero(self, estimator):
        assert estimator.sigma(SeedGroup()) == 0.0

    def test_deterministic(self, instance):
        a = SigmaEstimator(instance, n_samples=10, rng_factory=RngFactory(1))
        b = SigmaEstimator(instance, n_samples=10, rng_factory=RngFactory(1))
        group = SeedGroup([Seed(0, 0, 1)])
        assert a.sigma(group) == b.sigma(group)

    def test_cache_hit(self, estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        estimator.sigma(group)
        evaluations = estimator.n_evaluations
        estimator.sigma(group)
        assert estimator.n_evaluations == evaluations

    def test_cache_keyed_by_options(self, estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        estimator.estimate(group)
        before = estimator.n_evaluations
        estimator.estimate(group, restrict_users={0, 1})
        assert estimator.n_evaluations > before

    def test_seed_at_least_counts_itself(self, estimator, instance):
        sigma = estimator.sigma(SeedGroup([Seed(0, 0, 1)]))
        assert sigma >= instance.importance[0] - 1e-9

    def test_restricted_leq_full(self, estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        estimate = estimator.estimate(group, restrict_users={0, 1})
        assert estimate.sigma_restricted <= estimate.sigma + 1e-9

    def test_collect_weights_shape(self, estimator, instance):
        group = SeedGroup([Seed(0, 0, 1)])
        estimate = estimator.estimate(group, collect_weights=True)
        assert estimate.mean_weights.shape == instance.initial_weights.shape

    def test_clear_cache(self, estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        estimator.sigma(group)
        estimator.clear_cache()
        before = estimator.n_evaluations
        estimator.sigma(group)
        assert estimator.n_evaluations > before


class TestLikelihood:
    def test_likelihood_zero_without_adoptions(self, instance):
        state = instance.new_state()
        value = adoption_likelihood(
            state, DiffusionModel.INDEPENDENT_CASCADE, set(range(6))
        )
        assert value == 0.0  # nobody adopted, AIS is 0 everywhere

    def test_likelihood_positive_after_adoption(self, instance):
        state = instance.new_state()
        state.apply_step_adoptions({0: [0]})
        value = adoption_likelihood(
            state, DiffusionModel.INDEPENDENT_CASCADE, set(range(6))
        )
        assert value > 0.0

    def test_ais_ic_formula(self, instance):
        state = instance.new_state()
        state.apply_step_adoptions({0: [0], 5: [0]})
        # user 5's in-neighbours adopting item 0: users 0 (0.3) and 4.
        expected_user1 = 1.0 - (1.0 - state.influence(0, 1))
        assert aggregated_influence(
            state, DiffusionModel.INDEPENDENT_CASCADE, 1, 0
        ) == pytest.approx(expected_user1)

    def test_ais_lt_sums(self, instance):
        state = instance.new_state()
        state.apply_step_adoptions({0: [0], 2: [0]})
        value = aggregated_influence(
            state, DiffusionModel.LINEAR_THRESHOLD, 1, 0
        )
        expected = state.influence(0, 1) + state.influence(2, 1)
        assert value == pytest.approx(min(1.0, expected))

    def test_ais_ignores_non_adopters(self, instance):
        state = instance.new_state()
        assert aggregated_influence(
            state, DiffusionModel.INDEPENDENT_CASCADE, 1, 0
        ) == 0.0
