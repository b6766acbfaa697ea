"""Campaign metrics beyond the headline sigma.

The influence spread (Definition 1) is the optimization target, but a
practitioner inspecting a campaign plan also wants: how the spread
splits across promotions and items, how concentrated the seeds are,
and how efficiently the budget converts into adoptions.  These helpers
compute all of that from Monte-Carlo outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.campaign import run_campaigns_lockstep
from repro.diffusion.models import DiffusionModel
from repro.utils.rng import RngFactory

__all__ = ["CampaignReport", "campaign_report"]


@dataclass
class CampaignReport:
    """Aggregated Monte-Carlo metrics for one seed group.

    Attributes
    ----------
    sigma:
        Importance-aware influence spread (Definition 1).
    sigma_per_budget:
        Spread per unit of budget actually spent.
    adopters_per_item:
        Expected adopter count per item.
    sigma_by_promotion:
        Expected importance-weighted adoptions per promotion.
    unique_adopters:
        Expected number of distinct users adopting anything.
    items_covered:
        Expected number of items with at least one adopter.
    spent:
        Total seed cost.
    """

    sigma: float
    sigma_per_budget: float
    adopters_per_item: np.ndarray
    sigma_by_promotion: list[float]
    unique_adopters: float
    items_covered: float
    spent: float

    def summary_lines(self) -> list[str]:
        """Human-readable one-liners (used by the examples)."""
        return [
            f"sigma = {self.sigma:.1f}",
            f"spent = {self.spent:.1f} "
            f"(sigma/budget = {self.sigma_per_budget:.2f})",
            f"unique adopters = {self.unique_adopters:.1f}",
            f"items covered = {self.items_covered:.1f}",
            "sigma by promotion = "
            + ", ".join(f"{s:.1f}" for s in self.sigma_by_promotion),
        ]


def campaign_report(
    instance: IMDPPInstance,
    seed_group: SeedGroup,
    n_samples: int = 30,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
) -> CampaignReport:
    """Simulate a campaign ``n_samples`` times and aggregate metrics.

    Sample ``i`` replays the stream ``("report", i)`` of ``seed``; all
    samples play in one lockstep pass.
    """
    factory = RngFactory(seed)
    outcomes = run_campaigns_lockstep(
        instance,
        [seed_group] * n_samples,
        [factory.stream("report", i) for i in range(n_samples)],
        model=model,
    )
    sigmas = np.zeros(n_samples)
    adopters = np.zeros(instance.n_items)
    unique = np.zeros(n_samples)
    covered = np.zeros(n_samples)
    by_promotion = np.zeros(instance.n_promotions)
    for i, outcome in enumerate(outcomes):
        sigmas[i] = outcome.sigma
        adoptions = outcome.new_adoptions
        adopters += adoptions.sum(axis=0)
        unique[i] = float(adoptions.any(axis=1).sum())
        covered[i] = float(adoptions.any(axis=0).sum())
        padded = np.zeros(instance.n_promotions)
        padded[: len(outcome.sigma_by_promotion)] = outcome.sigma_by_promotion
        by_promotion += padded
    spent = instance.group_cost(seed_group)
    sigma = float(sigmas.mean())
    return CampaignReport(
        sigma=sigma,
        sigma_per_budget=sigma / spent if spent > 0 else 0.0,
        adopters_per_item=adopters / n_samples,
        sigma_by_promotion=list(by_promotion / n_samples),
        unique_adopters=float(unique.mean()),
        items_covered=float(covered.mean()),
        spent=spent,
    )
