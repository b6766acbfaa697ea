"""Tests for the trigger-model module beyond AIS (covered elsewhere)."""


from repro.diffusion.models import DiffusionModel

from tests.conftest import build_tiny_instance
from tests.reference import aggregated_influence


class TestDiffusionModelEnum:
    def test_values(self):
        assert DiffusionModel.INDEPENDENT_CASCADE.value == "IC"
        assert DiffusionModel.LINEAR_THRESHOLD.value == "LT"


class TestAisEdgeCases:
    def test_ic_capped_at_one(self):
        instance = build_tiny_instance()
        state = instance.new_state()
        # every in-neighbour of user 1 adopts item 0
        state.apply_step_adoptions({0: [0], 2: [0], 4: [0]})
        value = aggregated_influence(
            state, DiffusionModel.INDEPENDENT_CASCADE, 1, 0
        )
        assert 0.0 <= value <= 1.0

    def test_lt_capped_at_one(self):
        instance = build_tiny_instance()
        state = instance.new_state()
        state.apply_step_adoptions({u: [0] for u in range(6) if u != 1})
        value = aggregated_influence(
            state, DiffusionModel.LINEAR_THRESHOLD, 1, 0
        )
        assert value <= 1.0

    def test_adopter_of_other_item_ignored(self):
        instance = build_tiny_instance()
        state = instance.new_state()
        state.apply_step_adoptions({0: [2]})
        assert aggregated_influence(
            state, DiffusionModel.INDEPENDENT_CASCADE, 1, 0
        ) == 0.0
