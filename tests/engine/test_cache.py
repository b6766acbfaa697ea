"""Tests for SigmaCache memoization, counters and invalidation."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import SigmaCache
from repro.utils.rng import RngFactory

GROUP = SeedGroup([Seed(0, 0, 1)])
OTHER_GROUP = SeedGroup([Seed(1, 1, 1)])


@pytest.fixture
def estimator(tiny_instance):
    return SigmaEstimator(tiny_instance, n_samples=6, rng_factory=RngFactory(4))


class TestCounters:
    def test_miss_then_hit(self, estimator):
        estimator.sigma(GROUP)
        assert (estimator.cache_hits, estimator.cache_misses) == (0, 1)
        estimator.sigma(GROUP)
        assert (estimator.cache_hits, estimator.cache_misses) == (1, 1)

    def test_distinct_options_are_distinct_entries(self, estimator):
        estimator.estimate(GROUP)
        estimator.estimate(GROUP, restrict_users={0, 1})
        estimator.estimate(GROUP, until_promotion=1)
        assert estimator.cache_misses == 3
        assert len(estimator.cache) == 3

    def test_hit_returns_same_object(self, estimator):
        first = estimator.estimate(GROUP)
        assert estimator.estimate(GROUP) is first

    def test_stats_snapshot(self, estimator):
        estimator.sigma(GROUP)
        estimator.sigma(GROUP)
        stats = estimator.cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 1
        assert stats.hit_rate == 0.5

    def test_empty_cache_hit_rate(self):
        assert SigmaCache().stats().hit_rate == 0.0

    def test_a_repeat_in_a_block_is_a_hit(self, estimator, tiny_instance, monkeypatch):
        """``estimate_block([g, h, g])`` counts like three ``estimate``
        calls: the repeat is a hit on the entry its first request
        stored, and only the two distinct groups play."""
        played = []
        run = estimator.backend.run

        def spy(task):
            played.append(len(task.seed_groups))
            return run(task)

        monkeypatch.setattr(estimator.backend, "run", spy)
        values = estimator.estimate_block([GROUP, OTHER_GROUP, GROUP])
        sequential = SigmaEstimator(
            tiny_instance, n_samples=6, rng_factory=RngFactory(4)
        )
        expected = [sequential.sigma(g) for g in (GROUP, OTHER_GROUP, GROUP)]
        assert values.tolist() == expected
        assert played == [2]
        for counted in (estimator, sequential):
            assert (counted.cache_hits, counted.cache_misses) == (1, 2)
            assert counted.n_evaluations == 12


class TestInvalidation:
    def test_clear_forces_recomputation(self, estimator):
        estimator.sigma(GROUP)
        estimator.clear_cache()
        before = estimator.n_evaluations
        estimator.sigma(GROUP)
        assert estimator.n_evaluations > before
        assert estimator.cache_misses == 2

    def test_clear_preserves_counters(self, estimator):
        estimator.sigma(GROUP)
        estimator.sigma(GROUP)
        estimator.clear_cache()
        assert estimator.cache_hits == 1
        assert len(estimator.cache) == 0

    def test_entries_are_never_evicted(self, estimator, tiny_instance):
        """The cache is unbounded: every estimate it took is served
        again, the same object, without a replication."""
        requests = [
            (SeedGroup([Seed(user, user % tiny_instance.n_items, 1)]), horizon)
            for user in range(tiny_instance.n_users)
            for horizon in (1, 2)
        ]
        first = [
            estimator.estimate(group, until_promotion=horizon)
            for group, horizon in requests
        ]
        assert len(estimator.cache) == len(requests)
        before = estimator.n_evaluations
        for (group, horizon), estimate in zip(requests, first):
            assert estimator.estimate(group, until_promotion=horizon) is estimate
        assert estimator.n_evaluations == before
        assert estimator.cache_hits == len(requests)


class TestSharedCache:
    def test_shared_across_estimators_no_collision(self, tiny_instance):
        """Config is part of the key: same group, different samples."""
        cache = SigmaCache()
        a = SigmaEstimator(
            tiny_instance,
            n_samples=5,
            rng_factory=RngFactory(1),
            cache=cache,
        )
        b = SigmaEstimator(
            tiny_instance,
            n_samples=9,
            rng_factory=RngFactory(1),
            cache=cache,
        )
        ea = a.estimate(GROUP)
        eb = b.estimate(GROUP)
        assert ea.n_samples == 5 and eb.n_samples == 9
        assert cache.misses == 2 and len(cache) == 2

    def test_shared_same_config_hits(self, tiny_instance):
        cache = SigmaCache()
        kwargs = dict(n_samples=5, rng_factory=RngFactory(1), cache=cache)
        a = SigmaEstimator(tiny_instance, **kwargs)
        b = SigmaEstimator(tiny_instance, **kwargs)
        a.sigma(GROUP)
        b.sigma(GROUP)
        assert cache.hits == 1 and cache.misses == 1

    def test_oracle_kind_is_part_of_the_key(self, frozen_instance):
        """mc and sketch estimators sharing a cache must never alias.

        The two oracles return different estimates for the same query
        (one simulates, one replays sketched worlds); before
        ``oracle_kind`` entered the key an otherwise-identical pair
        would have served each other's entries.
        """
        from repro.sketch import SketchSigmaEstimator

        cache = SigmaCache()
        kwargs = dict(n_samples=6, rng_factory=RngFactory(3), cache=cache)
        mc = SigmaEstimator(frozen_instance, **kwargs)
        sketch = SketchSigmaEstimator(frozen_instance, **kwargs)
        assert (mc.oracle_kind, sketch.oracle_kind) == ("mc", "sketch")

        first_mc = mc.estimate(GROUP, until_promotion=1)
        first_sketch = sketch.estimate(GROUP, until_promotion=1)
        # both were computed fresh, not served from each other
        assert cache.misses == 2 and cache.hits == 0 and len(cache) == 2
        # and each estimator keeps hitting its own entry
        assert mc.estimate(GROUP, until_promotion=1) is first_mc
        assert sketch.estimate(GROUP, until_promotion=1) is first_sketch
        assert cache.hits == 2

    def test_n_samples_validation(self, tiny_instance):
        with pytest.raises(ValueError):
            SigmaEstimator(tiny_instance, n_samples=0)


def _assert_same_fields(a, b):
    """Every estimate field equal, ``None``-ness included."""
    assert (a.sigma, a.sigma_std, a.n_samples) == (b.sigma, b.sigma_std, b.n_samples)
    assert a.sigma_restricted == b.sigma_restricted
    assert a.likelihood == b.likelihood
    assert (a.mean_weights is None) == (b.mean_weights is None)
    if a.mean_weights is not None:
        assert np.array_equal(a.mean_weights, b.mean_weights)


class TestRealizationSharing:
    """Requests of one (group, horizon) share a single simulation."""

    MARKET = {0, 1, 2}

    def _fresh(self, tiny_instance, **request):
        return SigmaEstimator(
            tiny_instance, n_samples=6, rng_factory=RngFactory(4)
        ).estimate(GROUP, **request)

    def test_weights_served_from_a_likelihood_estimate(self, estimator, tiny_instance):
        estimator.estimate(
            GROUP,
            until_promotion=2,
            restrict_users=self.MARKET,
            compute_likelihood=True,
        )
        evaluations, hits = estimator.n_evaluations, estimator.cache_hits
        served = estimator.estimate(GROUP, until_promotion=2, collect_weights=True)
        assert estimator.n_evaluations == evaluations
        assert estimator.cache_hits == hits + 1
        _assert_same_fields(
            served,
            self._fresh(tiny_instance, until_promotion=2, collect_weights=True),
        )
        # the view carries only what was asked for
        assert served.sigma_restricted is None and served.likelihood is None
        assert estimator.estimate(
            GROUP, until_promotion=2, collect_weights=True
        ) is served

    @pytest.mark.parametrize(
        "same, other",
        [
            ({"restrict_users": MARKET}, {"restrict_users": {3, 4}}),
            (
                {
                    "restrict_users": MARKET,
                    "compute_likelihood": True,
                    "collect_weights": True,
                },
                {"compute_likelihood": True},  # over every user
            ),
        ],
        ids=["restricted", "likelihood"],
    )
    def test_only_the_same_user_set_is_shared(
        self, estimator, tiny_instance, same, other
    ):
        estimator.estimate(GROUP, restrict_users=self.MARKET, compute_likelihood=True)
        before = estimator.n_evaluations
        served = estimator.estimate(GROUP, **same)
        assert estimator.n_evaluations == before
        _assert_same_fields(served, self._fresh(tiny_instance, **same))
        simulated = estimator.estimate(GROUP, **other)
        assert estimator.n_evaluations == before + 6
        _assert_same_fields(simulated, self._fresh(tiny_instance, **other))

    def test_no_horizon_is_the_last_promotion(self, estimator, tiny_instance):
        last = tiny_instance.n_promotions
        estimator.estimate(GROUP, restrict_users=self.MARKET)
        before = estimator.n_evaluations
        served = estimator.estimate(
            GROUP, until_promotion=last, restrict_users=self.MARKET
        )
        assert estimator.n_evaluations == before
        _assert_same_fields(
            served,
            self._fresh(
                tiny_instance, until_promotion=last, restrict_users=self.MARKET
            ),
        )

    def test_clear_drops_the_realization_index(self, estimator):
        estimator.estimate(GROUP, compute_likelihood=True)
        before = estimator.n_evaluations
        estimator.estimate(GROUP, collect_weights=True)
        assert estimator.n_evaluations == before
        estimator.clear_cache()
        assert estimator._cache_key(GROUP, None) not in estimator.cache
        estimator.estimate(GROUP, collect_weights=True)
        assert estimator.n_evaluations == before + 6


class TestSpareWeights:
    """A likelihood run's unasked weights stay on the newest likelihood
    estimate of its horizon only."""

    def _likelihood(self, estimator, group, horizon):
        estimator.estimate(group, until_promotion=horizon, compute_likelihood=True)

    def _weights_cost(self, estimator, group, horizon):
        """Replications a weights request of ``group`` runs."""
        before = estimator.n_evaluations
        estimator.estimate(group, until_promotion=horizon, collect_weights=True)
        return estimator.n_evaluations - before

    def test_a_newer_estimate_of_the_horizon_sheds_them(self, estimator):
        self._likelihood(estimator, GROUP, 2)
        self._likelihood(estimator, GROUP, 1)  # another horizon keeps both
        self._likelihood(estimator, OTHER_GROUP, 2)
        assert self._weights_cost(estimator, GROUP, 1) == 0
        assert self._weights_cost(estimator, OTHER_GROUP, 2) == 0
        assert self._weights_cost(estimator, GROUP, 2) == 6
        # what was asked stays: the likelihood estimate is still a hit
        before = estimator.n_evaluations
        self._likelihood(estimator, GROUP, 2)
        assert estimator.n_evaluations == before

    def test_served_spares_stay(self, estimator):
        self._likelihood(estimator, GROUP, 2)
        assert self._weights_cost(estimator, GROUP, 2) == 0
        self._likelihood(estimator, OTHER_GROUP, 2)
        assert self._weights_cost(estimator, GROUP, 2) == 0

    def test_shed_weights_are_released(self, estimator):
        self._likelihood(estimator, GROUP, 2)
        (entry,) = estimator.cache._entries.values()
        spare = weakref.ref(entry.estimate.mean_weights)
        self._likelihood(estimator, OTHER_GROUP, 2)
        gc.collect()
        assert spare() is None

    def test_only_likelihood_runs_fold_weights(self, estimator, monkeypatch):
        """Restricted sigma on dynamic perceptions runs per replication
        but folds no weights, so a weights request still simulates."""
        folded = []
        run = estimator.backend.run

        def spy(task):
            result = run(task)
            folded.append(result.weights is not None)
            return result

        monkeypatch.setattr(estimator.backend, "run", spy)
        estimator.estimate(GROUP, restrict_users={0, 1})
        estimator.estimate(OTHER_GROUP, compute_likelihood=True)
        assert folded == [False, True]
        assert self._weights_cost(estimator, GROUP, None) == 6


def test_golden_dysim_dre_replays_no_tdsi_realization(monkeypatch):
    """On the golden yelp x 0.35 Dysim scenario every DRE estimate
    (the only caller collecting mean weights) whose group and horizon a
    TDSI estimate already played runs no replications."""
    from repro.core.dysim import Dysim, DysimConfig
    from repro.data import load_dataset

    played: set[tuple] = set()
    dre: list[tuple[bool, int]] = []
    estimate = SigmaEstimator.estimate

    def spy(self, group, until_promotion=None, **request):
        before = self.n_evaluations
        result = estimate(self, group, until_promotion, **request)
        realization = (
            tuple(sorted((s.user, s.item, s.promotion) for s in group)),
            until_promotion or self.instance.n_promotions,
        )
        if request.get("compute_likelihood"):
            played.add(realization)
        elif request.get("collect_weights"):
            dre.append((realization in played, self.n_evaluations - before))
        return result

    monkeypatch.setattr(SigmaEstimator, "estimate", spy)
    config = DysimConfig(
        n_samples_selection=6,
        n_samples_inner=4,
        candidate_pool=60,
        oracle="mc",
        seed=7,
    )
    Dysim(load_dataset("yelp", scale=0.35), config).run()
    shared = [replications for was_played, replications in dre if was_played]
    assert shared, "the scenario must exercise DRE after TDSI"
    assert shared == [0] * len(shared)
