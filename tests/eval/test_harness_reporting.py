"""Tests for the experiment harness and reporting."""


from repro.eval.harness import (
    ALGORITHMS,
    SweepRow,
    evaluate_group,
    run_algorithm,
)
from repro.eval.reporting import format_series, format_table
from repro.core.problem import Seed, SeedGroup

from tests.conftest import build_tiny_instance


class TestHarness:
    def test_registry_contents(self):
        for name in ("Dysim", "BGRD", "HAG", "PS", "DRHGA", "OPT"):
            assert name in ALGORITHMS

    def test_run_algorithm_by_name(self):
        instance = build_tiny_instance(budget=15.0)
        result = run_algorithm("PS", instance, n_samples=5, seed=0)
        assert result.name == "PS"

    def test_evaluate_group_deterministic(self):
        instance = build_tiny_instance()
        group = SeedGroup([Seed(0, 0, 1)])
        assert evaluate_group(instance, group, n_samples=10) == (
            evaluate_group(instance, group, n_samples=10)
        )


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_series_layout(self):
        rows = [
            SweepRow("Dysim", 50, 10.0, 0.1, 2),
            SweepRow("Dysim", 100, 20.0, 0.1, 3),
            SweepRow("PS", 50, 5.0, 0.1, 2),
            SweepRow("PS", 100, 8.0, 0.1, 3),
        ]
        text = format_series("Fig X", "b", rows)
        assert "Dysim" in text and "PS" in text
        assert "10.0" in text and "8.0" in text

    def test_format_series_missing_cell(self):
        rows = [SweepRow("Dysim", 50, 10.0, 0.1, 2)]
        text = format_series("Fig X", "b", rows + [
            SweepRow("PS", 100, 8.0, 0.1, 3)
        ])
        assert "-" in text
