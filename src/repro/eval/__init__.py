"""Experiment harness and reporting for the paper's tables/figures."""

from repro.eval.harness import ALGORITHMS, evaluate_group, run_algorithm
from repro.eval.metrics import CampaignReport, campaign_report
from repro.eval.reporting import format_series, format_table

__all__ = [
    "ALGORITHMS",
    "CampaignReport",
    "campaign_report",
    "evaluate_group",
    "run_algorithm",
    "format_series",
    "format_table",
]
