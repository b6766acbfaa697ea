"""Tests for the Dysim phases: nominees, clustering, markets, DR, SI."""

import numpy as np
import pytest

from repro.core.dysim.clustering import (
    average_relevance_matrices,
    cluster_nominees,
)
from repro.core.dysim.markets import (
    MARKET_ORDERS,
    TargetMarket,
    antagonistic_extent,
    group_markets,
    identify_markets,
    order_group,
)
from repro.core.dysim.nominees import rank_candidates, select_nominees
from repro.core.dysim.reachability import ReachabilityTable
from repro.core.dysim.timing import best_timed_seed, substantial_influence
from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.errors import AlgorithmError
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance


@pytest.fixture
def instance():
    return build_tiny_instance(budget=20.0, n_promotions=3)


@pytest.fixture
def frozen_estimator(instance):
    return SigmaEstimator(
        instance.frozen(), n_samples=8, rng_factory=RngFactory(0)
    )


@pytest.fixture
def dynamic_estimator(instance):
    return SigmaEstimator(instance, n_samples=8, rng_factory=RngFactory(1))


class TestNominees:
    def test_rank_candidates_affordable_only(self, instance):
        expensive = instance.with_budget(1.0)
        assert rank_candidates(expensive, None) == []

    def test_rank_candidates_pool_cap(self, instance):
        assert len(rank_candidates(instance, 5)) == 5

    def test_selection_respects_budget(self, instance, frozen_estimator):
        selection = select_nominees(instance, frozen_estimator, 20)
        assert selection.total_cost <= instance.budget
        assert len(selection.nominees) <= 4  # 20 / 5 per seed

    def test_selection_nonempty_and_scored(self, instance, frozen_estimator):
        selection = select_nominees(instance, frozen_estimator, 20)
        assert selection.nominees
        assert selection.frozen_value > 0
        assert selection.best_singleton is not None
        assert selection.best_singleton_value > 0


class TestClustering:
    def test_average_relevance_uses_initial_weights(self, instance):
        avg_c, avg_s = average_relevance_matrices(instance)
        assert avg_c[0, 1] > 0
        assert avg_s[0, 3] > 0
        assert avg_c.shape == (4, 4)

    def test_user_subset(self, instance):
        full_c, _ = average_relevance_matrices(instance)
        sub_c, _ = average_relevance_matrices(instance, users=[0, 1])
        assert sub_c.shape == full_c.shape

    def test_empty_nominees(self, instance):
        assert cluster_nominees(instance, []) == []

    def test_affinity_groups_complementary_close_nominees(self, instance):
        # Users 0 and 1 are adjacent; items 0 and 1 are complementary.
        clusters = cluster_nominees(
            instance, [(0, 0), (1, 1)], hop_threshold=2
        )
        assert len(clusters) == 1

    def test_affinity_separates_substitutes(self, instance):
        # Items 0 and 3 are substitutable (net relevance < 0).
        clusters = cluster_nominees(
            instance, [(0, 0), (1, 3)], hop_threshold=2
        )
        assert len(clusters) == 2


class TestMarkets:
    def test_identify_markets_contains_sources(self, instance):
        markets = identify_markets(instance, [[(0, 0)], [(3, 1)]])
        assert 0 in markets[0].users
        assert 3 in markets[1].users
        assert markets[0].diameter >= 1

    def test_group_by_common_users(self):
        m0 = TargetMarket(0, [(0, 0)], {0, 1, 2}, 1)
        m1 = TargetMarket(1, [(1, 1)], {1, 2, 3}, 1)
        m2 = TargetMarket(2, [(5, 2)], {7, 8}, 1)
        groups = group_markets([m0, m1, m2], theta=1)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 2]

    def test_theta_strictness(self):
        m0 = TargetMarket(0, [(0, 0)], {0, 1}, 1)
        m1 = TargetMarket(1, [(1, 1)], {1, 2}, 1)
        # one common user, theta=1 -> NOT grouped (strictly more needed)
        assert len(group_markets([m0, m1], theta=1)) == 2
        assert len(group_markets([m0, m1], theta=0)) == 1

    def test_antagonistic_extent(self, instance):
        _, avg_s = average_relevance_matrices(instance)
        m0 = TargetMarket(0, [(0, 0)], {0}, 1)   # promotes item 0
        m1 = TargetMarket(1, [(1, 3)], {1}, 1)   # promotes item 3
        group = [m0, m1]
        ae0 = antagonistic_extent(m0, group, avg_s)
        assert ae0 == pytest.approx(float(avg_s[0, 3]))
        assert antagonistic_extent(m0, [m0], avg_s) == 0.0

    def test_order_group_all_metrics(self, instance, frozen_estimator):
        _, avg_s = average_relevance_matrices(instance)
        markets = identify_markets(instance, [[(0, 0)], [(1, 3)], [(4, 1)]])
        group = markets
        for order in MARKET_ORDERS:
            ordered = order_group(
                group,
                instance,
                avg_s,
                order=order,
                estimator=frozen_estimator,
                rng=np.random.default_rng(0),
            )
            assert sorted(m.market_id for m in ordered) == [0, 1, 2]

    def test_order_group_rejects_unknown(self, instance):
        _, avg_s = average_relevance_matrices(instance)
        with pytest.raises(AlgorithmError):
            order_group([], instance, avg_s, order="XX")

    def test_pf_requires_estimator(self, instance):
        _, avg_s = average_relevance_matrices(instance)
        with pytest.raises(AlgorithmError):
            order_group([], instance, avg_s, order="PF", estimator=None)


class TestReachability:
    @pytest.fixture
    def table(self, instance):
        avg_c, avg_s = average_relevance_matrices(instance)
        return ReachabilityTable(
            avg_complementary=avg_c,
            avg_substitutable=avg_s,
            importance=instance.importance,
            depth=2,
        )

    def test_likelihoods_partition(self, table):
        mask = (table.avg_complementary + table.avg_substitutable) > 0
        total = table.likelihood_c + table.likelihood_s
        assert np.allclose(total[mask], 1.0)

    def test_depth_zero_is_zero(self, table):
        assert table.proactive_impact(0, depth=0) == 0.0
        assert table.reactive_impact(0, depth=0) == 0.0

    def test_depth_one_matches_formula(self, table):
        item = 0
        expected = 0.0
        for other in table.relevant[item]:
            expected += (
                table.signed_impact[item, other] * table.importance[other]
            )
        assert table.proactive_impact(item, depth=1) == pytest.approx(expected)

    def test_ri_uses_anchor_importance(self, table):
        item = 0
        expected = 0.0
        for other in table.relevant[item]:
            expected += (
                table.signed_impact[other, item] * table.importance[item]
            )
        assert table.reactive_impact(item, depth=1) == pytest.approx(expected)

    def test_dr_is_pi_plus_ri(self, table):
        assert table.dynamic_reachability(1) == pytest.approx(
            table.proactive_impact(1) + table.reactive_impact(1)
        )

    def test_complementary_hub_has_higher_dr(self, table):
        # Item 1 (AirPods) is complementary to both 0 and 2; item 3
        # (iPad) only substitutes item 0 -> DR(1) should exceed DR(3).
        assert table.dynamic_reachability(1) > table.dynamic_reachability(3)


class TestTiming:
    def test_si_finite_and_reproducible(self, instance, dynamic_estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        si_a = substantial_influence(
            dynamic_estimator, set(range(6)), group, Seed(3, 1, 1), 3
        )
        si_b = substantial_influence(
            dynamic_estimator, set(range(6)), group, Seed(3, 1, 1), 3
        )
        assert si_a == si_b
        assert np.isfinite(si_a)

    def test_best_timed_seed_within_window(self, instance, dynamic_estimator):
        group = SeedGroup([Seed(0, 0, 1)])
        decision = best_timed_seed(
            instance, dynamic_estimator, set(range(6)), group,
            [(3, 1), (4, 2)], promotion_ceiling=3,
        )
        assert decision is not None
        assert decision.seed.promotion in (1, 2)
        assert decision.seed.nominee in {(3, 1), (4, 2)}

    def test_best_timed_seed_respects_ceiling(self, instance, dynamic_estimator):
        group = SeedGroup([Seed(0, 0, 2)])
        decision = best_timed_seed(
            instance, dynamic_estimator, set(range(6)), group,
            [(3, 1)], promotion_ceiling=2,
        )
        assert decision.seed.promotion == 2

    def test_no_nominees_returns_none(self, instance, dynamic_estimator):
        assert (
            best_timed_seed(
                instance, dynamic_estimator, set(range(6)), SeedGroup(),
                [], promotion_ceiling=3,
            )
            is None
        )
