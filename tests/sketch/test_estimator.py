"""Coverage estimators (sketch bank, RR sets): routing, compatibility,
caching, fallback."""

import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import SigmaCache
from repro.sketch import (
    RRSetSigmaEstimator,
    SketchSigmaEstimator,
    make_sigma_estimator,
)
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance

GROUP = SeedGroup([Seed(0, 0, 1), Seed(3, 2, 2)])

#: The two coverage families behind ``--oracle``.
KINDS = ["sketch", "rrset"]


@pytest.fixture
def frozen():
    return build_tiny_instance().frozen()


@pytest.fixture
def estimator(frozen, kind):
    return make_sigma_estimator(
        kind, frozen, n_samples=8, rng_factory=RngFactory(7)
    )


@pytest.mark.parametrize("kind", KINDS)
class TestSketchPath:
    def test_answers_without_simulation(self, estimator):
        estimate = estimator.estimate(GROUP)
        assert estimate.n_samples == 8
        assert estimator.coverage_queries == 1
        assert estimator.fallback_queries == 0
        assert estimator.n_evaluations == 8

    def test_timing_variants_share_cache_entry(self, estimator):
        """Coverage spreads are timing-independent — and so are keys."""
        early = SeedGroup([Seed(0, 0, 1), Seed(3, 2, 1)])
        late = SeedGroup([Seed(0, 0, 2), Seed(3, 2, 2)])
        first = estimator.estimate(early)
        assert estimator.estimate(late) is first
        assert estimator.cache_hits == 1

    def test_restricted_sigma(self, estimator):
        estimate = estimator.estimate(GROUP, restrict_users={0, 1})
        assert estimate.sigma_restricted is not None
        assert estimate.sigma_restricted <= estimate.sigma + 1e-12

    def test_until_promotion_cutoff(self, estimator):
        full = estimator.estimate(GROUP).sigma
        only_first = estimator.estimate(GROUP, until_promotion=1).sigma
        assert only_first <= full + 1e-12

    def test_common_random_numbers_exact(self, frozen, kind):
        a, b = (
            make_sigma_estimator(
                kind, frozen, n_samples=8, rng_factory=RngFactory(7)
            )
            for _ in range(2)
        )
        assert a.sigma(GROUP) == b.sigma(GROUP)

    def test_monotone_marginals(self, estimator):
        """Coverage gains are non-negative: sigma is monotone."""
        base = estimator.sigma(GROUP)
        extended = estimator.sigma(GROUP.with_seed(Seed(5, 1, 1)))
        assert extended >= base - 1e-12

    def test_clear_cache_drops_family(self, estimator):
        estimator.sigma(GROUP)
        family = estimator.family
        estimator.clear_cache()
        assert estimator._family is None
        estimator.sigma(GROUP)
        assert estimator.family is not family


@pytest.mark.parametrize("kind", KINDS)
class TestFallback:
    def test_likelihood_query_delegates(self, estimator):
        estimate = estimator.estimate(GROUP, compute_likelihood=True)
        assert estimate.likelihood is not None
        assert estimator.fallback_queries == 1
        assert estimator.coverage_queries == 0
        # MC replications are accounted in n_evaluations
        assert estimator.n_evaluations == 8

    def test_weight_collection_delegates(self, estimator):
        estimate = estimator.estimate(GROUP, collect_weights=True)
        assert estimate.mean_weights is not None
        assert estimator.fallback_queries == 1

    def test_dynamic_instance_delegates(self, kind):
        dynamic = build_tiny_instance()  # dynamics on
        estimator = make_sigma_estimator(
            kind, dynamic, n_samples=6, rng_factory=RngFactory(1)
        )
        assert not estimator.supports_coverage_selection
        estimator.sigma(GROUP)
        assert estimator.fallback_queries == 1

    def test_lt_model_delegates(self, frozen, kind):
        estimator = make_sigma_estimator(
            kind,
            frozen,
            model=DiffusionModel.LINEAR_THRESHOLD,
            n_samples=6,
            rng_factory=RngFactory(1),
        )
        assert not estimator.supports_coverage_selection
        estimator.sigma(GROUP)
        assert estimator.fallback_queries == 1

    def test_fallback_matches_plain_mc(self, frozen, kind):
        """Delegated queries are bit-identical to a plain MC estimator."""
        cache = SigmaCache()
        coverage = make_sigma_estimator(
            kind, frozen, n_samples=6, rng_factory=RngFactory(2), cache=cache
        )
        mc = SigmaEstimator(
            frozen, n_samples=6, rng_factory=RngFactory(2), cache=cache
        )
        ours = coverage.estimate(GROUP, compute_likelihood=True)
        theirs = mc.estimate(GROUP, compute_likelihood=True)
        # the shared cache even serves the same object: the fallback
        # keys as "mc", exactly like the twin estimator
        assert ours is theirs


class TestFactory:
    def test_mc_kind(self, frozen):
        est = make_sigma_estimator("mc", frozen, n_samples=4)
        assert type(est) is SigmaEstimator

    def test_none_defaults_to_mc(self, frozen):
        est = make_sigma_estimator(None, frozen, n_samples=4)
        assert type(est) is SigmaEstimator

    def test_sketch_kind(self, frozen):
        est = make_sigma_estimator("sketch", frozen, n_samples=4)
        assert isinstance(est, SketchSigmaEstimator)

    def test_rrset_kind(self, frozen):
        est = make_sigma_estimator("rrset", frozen, n_samples=4)
        assert isinstance(est, RRSetSigmaEstimator)
        assert est.n_samples == 4

    def test_unknown_kind(self, frozen):
        with pytest.raises(ValueError, match="oracle"):
            make_sigma_estimator("magic", frozen)
