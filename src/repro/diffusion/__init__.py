"""Multi-promotion diffusion: trigger models, simulator, Monte Carlo."""

from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.diffusion.campaign import (
    CampaignOutcome,
    CampaignSimulator,
    run_campaigns_lockstep,
)
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
    "CampaignOutcome",
    "CampaignSimulator",
    "MonteCarloEstimate",
    "SigmaEstimator",
    "run_campaigns_lockstep",
]
