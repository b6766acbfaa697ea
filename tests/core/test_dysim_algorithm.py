"""Tests for the Dysim driver and the adaptive variant."""

import pytest

from repro.core.dysim import AdaptiveDysim, Dysim, DysimConfig

from tests.conftest import build_tiny_instance


FAST = dict(n_samples_selection=5, n_samples_inner=5, candidate_pool=16)


@pytest.fixture
def instance():
    return build_tiny_instance(budget=20.0, n_promotions=3)


class TestDysim:
    def test_budget_feasible(self, instance):
        result = Dysim(instance, DysimConfig(**FAST)).run()
        instance.check_budget(result.seed_group)

    def test_timings_within_horizon(self, instance):
        result = Dysim(instance, DysimConfig(**FAST)).run()
        for seed in result.seed_group:
            assert 1 <= seed.promotion <= instance.n_promotions

    def test_deterministic(self, instance):
        a = Dysim(instance, DysimConfig(**FAST, seed=3)).run()
        b = Dysim(instance, DysimConfig(**FAST, seed=3)).run()
        assert list(a.seed_group) == list(b.seed_group)
        assert a.sigma == b.sigma

    def test_produces_positive_sigma(self, instance):
        result = Dysim(instance, DysimConfig(**FAST)).run()
        assert result.sigma > 0
        assert len(result.seed_group) >= 1

    def test_fallback_labels(self, instance):
        result = Dysim(instance, DysimConfig(**FAST)).run()
        assert result.fallback_used in (
            "dysim", "nominees-first-promotion", "best-singleton",
        )

    def test_ablation_without_target_markets(self, instance):
        config = DysimConfig(**FAST, use_target_markets=False)
        result = Dysim(instance, config).run()
        assert len(result.markets) <= 1
        instance.check_budget(result.seed_group)

    def test_ablation_without_item_priority(self, instance):
        config = DysimConfig(**FAST, use_item_priority=False)
        result = Dysim(instance, config).run()
        instance.check_budget(result.seed_group)

    def test_market_orders_all_run(self, instance):
        for order in ("AE", "PF", "SZ", "RMS", "RD"):
            config = DysimConfig(**FAST, market_order=order)
            result = Dysim(instance, config).run()
            instance.check_budget(result.seed_group)

    def test_single_promotion_instance(self):
        instance = build_tiny_instance(budget=20.0, n_promotions=1)
        result = Dysim(instance, DysimConfig(**FAST)).run()
        for seed in result.seed_group:
            assert seed.promotion == 1

    def test_tiny_budget_gives_empty_or_single(self):
        instance = build_tiny_instance(budget=5.0, n_promotions=2)
        result = Dysim(instance, DysimConfig(**FAST)).run()
        assert len(result.seed_group) <= 1
        instance.check_budget(result.seed_group)

    def test_fallbacks_can_be_disabled(self, instance):
        config = DysimConfig(**FAST, use_fallbacks=False)
        result = Dysim(instance, config).run()
        assert result.fallback_used == "dysim"
        instance.check_budget(result.seed_group)

    def test_lt_model_end_to_end(self, instance):
        from repro.diffusion.models import DiffusionModel

        config = DysimConfig(
            **FAST, model=DiffusionModel.LINEAR_THRESHOLD
        )
        result = Dysim(instance, config).run()
        instance.check_budget(result.seed_group)
        assert result.sigma >= 0.0


class TestAdaptiveDysim:
    def test_runs_and_respects_budget(self, instance):
        adaptive = AdaptiveDysim(instance, DysimConfig(**FAST))
        result = adaptive.run(world_seed=0)
        assert result.spent <= instance.budget + 1e-9
        assert len(result.rounds) == instance.n_promotions
        assert result.sigma_realized >= 0

    def test_observes_world_deterministically(self, instance):
        adaptive = AdaptiveDysim(instance, DysimConfig(**FAST))
        a = adaptive.run(world_seed=1)
        b = AdaptiveDysim(instance, DysimConfig(**FAST)).run(world_seed=1)
        assert a.sigma_realized == b.sigma_realized

    def test_seed_promotions_match_rounds(self, instance):
        result = AdaptiveDysim(instance, DysimConfig(**FAST)).run(0)
        for round_index, seeds in enumerate(result.rounds, start=1):
            for seed in seeds:
                assert seed.promotion == round_index
