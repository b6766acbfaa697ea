"""Multi-promotion diffusion: trigger models, simulator, Monte Carlo."""

from repro.diffusion.models import (
    DiffusionModel,
    adoption_likelihood,
    aggregated_influence,
)
from repro.diffusion.campaign import CampaignOutcome, CampaignSimulator
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.diffusion.repkernel import (
    LockstepOutcome,
    ReplicationLayout,
    run_campaigns_lockstep,
)

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
    "aggregated_influence",
    "CampaignOutcome",
    "CampaignSimulator",
    "MonteCarloEstimate",
    "SigmaEstimator",
    "LockstepOutcome",
    "ReplicationLayout",
    "run_campaigns_lockstep",
]
