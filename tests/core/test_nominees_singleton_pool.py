"""The best-singleton fallback pool cap is an explicit, honest knob.

Nominee selection used to prime the Theorem-5 best-singleton fallback
from a silent hard-coded ``universe[:50]``.  The quality heuristic that
orders the universe is deliberately cheap, so the true sigma-argmax
singleton can rank arbitrarily deep — on the tiny fixture it sits past
rank 20 — and a cap silently weakens the approximation bound the
fallback exists to guarantee.  The cap is now
``DysimConfig.singleton_pool`` / ``select_nominees(singleton_pool=)``,
default *full universe*.
"""

from repro.core.dysim.nominees import rank_candidates, select_nominees
from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance


def _estimator(frozen):
    return SigmaEstimator(frozen, n_samples=8, rng_factory=RngFactory(3))


class TestSingletonPool:
    def test_default_is_full_universe_argmax(self):
        base = build_tiny_instance()
        frozen = base.frozen()
        selection = select_nominees(
            base, _estimator(frozen), pool_size=None
        )
        universe = rank_candidates(base, None)
        values = _estimator(frozen).estimate_block(
            [SeedGroup([Seed(u, x, 1)]) for u, x in universe],
            until_promotion=1,
        )
        best = universe[int(values.argmax())]
        assert selection.best_singleton == best
        assert selection.best_singleton_value == float(values.max())

    def test_cap_changes_the_result(self):
        """Regression: the old hard-coded cap altered the fallback.

        The heuristically top-ranked candidate is *not* the sigma
        argmax on this fixture, so restricting the pool must surface a
        different (worse) singleton than the full-universe default —
        exactly the silent distortion the knob makes visible.
        """
        base = build_tiny_instance()
        frozen = base.frozen()
        full = select_nominees(base, _estimator(frozen), pool_size=None)
        capped = select_nominees(
            base, _estimator(frozen), pool_size=None, singleton_pool=8
        )
        assert capped.best_singleton != full.best_singleton
        assert capped.best_singleton_value < full.best_singleton_value
        # the capped winner is still the argmax *within* its pool
        universe = rank_candidates(base, None)
        assert capped.best_singleton in universe[:8]
