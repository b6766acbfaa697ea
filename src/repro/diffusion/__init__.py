"""Multi-promotion diffusion: trigger models, simulator, Monte Carlo."""

from repro.diffusion.models import (
    DiffusionModel,
    adoption_likelihood,
    aggregated_influence,
)
from repro.diffusion.campaign import (
    CampaignOutcome,
    CampaignSimulator,
    run_campaigns_lockstep,
)
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
    "aggregated_influence",
    "CampaignOutcome",
    "CampaignSimulator",
    "MonteCarloEstimate",
    "SigmaEstimator",
    "run_campaigns_lockstep",
]
