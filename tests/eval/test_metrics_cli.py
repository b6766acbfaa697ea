"""Tests for campaign metrics and the CLI."""

import numpy as np
import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.core.problem import Seed, SeedGroup
from repro.eval.harness import evaluate_group, run_algorithm
from repro.eval.metrics import campaign_report
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance, own_shm_exports
from tests.reference import ScalarCampaignSimulator

RUN_PS = [
    "run", "--dataset", "yelp", "--scale", "0.2",
    "--budget", "30", "--promotions", "2",
    "--algorithm", "PS", "--samples", "4",
]


def _seed_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("  user=")]


class TestCampaignReport:
    @pytest.fixture
    def report(self):
        instance = build_tiny_instance()
        group = SeedGroup([Seed(0, 0, 1), Seed(3, 1, 2)])
        return campaign_report(instance, group, n_samples=15, seed=1), instance

    def test_sigma_positive(self, report):
        rep, _ = report
        assert rep.sigma > 0

    def test_budget_efficiency(self, report):
        rep, instance = report
        assert rep.spent == pytest.approx(10.0)
        assert rep.sigma_per_budget == pytest.approx(rep.sigma / 10.0)

    def test_adopters_per_item_shape(self, report):
        rep, instance = report
        assert rep.adopters_per_item.shape == (instance.n_items,)
        # the two seeded items always have at least their seeds
        assert rep.adopters_per_item[0] >= 1.0
        assert rep.adopters_per_item[1] >= 1.0

    def test_promotion_split_sums_to_sigma(self, report):
        rep, _ = report
        assert sum(rep.sigma_by_promotion) == pytest.approx(rep.sigma)

    def test_bounds(self, report):
        rep, instance = report
        assert 0 <= rep.unique_adopters <= instance.n_users
        assert 0 <= rep.items_covered <= instance.n_items

    def test_summary_lines(self, report):
        rep, _ = report
        lines = rep.summary_lines()
        assert any("sigma" in line for line in lines)

    def test_empty_group(self):
        instance = build_tiny_instance()
        rep = campaign_report(instance, SeedGroup(), n_samples=5)
        assert rep.sigma == 0.0
        assert rep.sigma_per_budget == 0.0

    def test_matches_reference_samples(self):
        """Every field equals the aggregate of per-sample scalar
        reference runs on the report's streams, exactly."""
        group = SeedGroup([Seed(0, 0, 1), Seed(3, 1, 2)])
        n_samples = 15
        dynamic = build_tiny_instance()
        for instance in (dynamic, dynamic.frozen()):
            rep = campaign_report(instance, group, n_samples=n_samples, seed=1)
            simulator = ScalarCampaignSimulator(instance)
            factory = RngFactory(1)
            outcomes = [
                simulator.run(group, factory.stream("report", i))
                for i in range(n_samples)
            ]
            adopters = np.zeros(instance.n_items)
            by_promotion = np.zeros(instance.n_promotions)
            for outcome in outcomes:
                adopters += outcome.new_adoptions.sum(axis=0)
                by_promotion += outcome.sigma_by_promotion
            sigma = float(np.mean([outcome.sigma for outcome in outcomes]))
            spent = instance.group_cost(group)
            unique = [
                float(outcome.new_adoptions.any(axis=1).sum())
                for outcome in outcomes
            ]
            covered = [
                float(outcome.new_adoptions.any(axis=0).sum())
                for outcome in outcomes
            ]
            assert sigma > 0.0
            assert rep.sigma == sigma
            assert rep.spent == spent
            assert rep.sigma_per_budget == sigma / spent
            assert np.array_equal(rep.adopters_per_item, adopters / n_samples)
            assert rep.sigma_by_promotion == list(by_promotion / n_samples)
            assert rep.unique_adopters == float(np.mean(unique))
            assert rep.items_covered == float(np.mean(covered))


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["stats", "--dataset", "yelp"])
        assert args.command == "stats"

    def test_stats_command(self, capsys):
        code = main(["stats", "--dataset", "yelp", "--scale", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_initial_influence" in out

    def test_run_command(self, capsys):
        code = main(RUN_PS)
        assert code == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "sigma" in out

    def test_run_owns_and_closes_its_backend(self, capsys, monkeypatch):
        """``run`` builds one backend from its flags, hands it to the
        algorithm and closes it when the command ends; the pool picks
        the serial seeds."""
        assert main(RUN_PS) == 0
        serial = _seed_lines(capsys.readouterr().out)
        received, workers = [], []

        def spy(*args, backend, **kwargs):
            result = run_algorithm(*args, backend=backend, **kwargs)
            received.append(backend)
            workers.extend(backend.executor._processes.values())
            return result

        monkeypatch.setattr(cli, "run_algorithm", spy)
        exports = own_shm_exports()
        code = main(RUN_PS + [
            "--backend", "process", "--workers", "2",
            "--retries", "3", "--chunk-timeout", "60",
        ])
        assert code == 0
        assert _seed_lines(capsys.readouterr().out) == serial
        [backend] = received
        assert backend.name == "process"
        assert backend.retry_policy.max_retries == 3
        assert backend.retry_policy.chunk_timeout == 60.0
        assert backend.closed
        assert workers and not any(worker.is_alive() for worker in workers)
        assert own_shm_exports() == exports

    def test_compare_runs_and_rescores_on_one_backend(self, monkeypatch):
        received = []

        def spy_run(*args, backend, **kwargs):
            received.append(backend)
            return run_algorithm(*args, backend=backend, **kwargs)

        def spy_evaluate(*args, backend, **kwargs):
            received.append(backend)
            return evaluate_group(*args, backend=backend, **kwargs)

        monkeypatch.setattr(cli, "run_algorithm", spy_run)
        monkeypatch.setattr(cli, "evaluate_group", spy_evaluate)
        code = main([
            "compare", "--dataset", "yelp", "--scale", "0.2",
            "--budget", "30", "--promotions", "2", "--samples", "3",
            "--skip", "OPT", "Dysim", "HAG", "BGRD", "DRHGA",
            "--backend", "thread", "--workers", "2",
        ])
        assert code == 0
        backend = received[0]
        assert len(received) == 4  # two algorithms, each re-scored
        assert all(other is backend for other in received)
        assert backend.name == "thread"
        assert backend.closed

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--dataset", "yelp", "--scale", "0.2",
            "--budget", "30", "--promotions", "2", "--samples", "3",
            "--skip", "OPT", "Dysim", "HAG", "BGRD",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "PS" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["stats", "--dataset", "netflix"])
