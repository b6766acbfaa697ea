"""Multi-promotion diffusion: trigger models, simulator, Monte Carlo."""

from repro.diffusion.models import (
    DiffusionModel,
    adoption_likelihood,
    aggregated_influence,
)
from repro.diffusion.campaign import CampaignOutcome, CampaignSimulator
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.diffusion.repkernel import (
    LOCKSTEP_KERNELS,
    STEP_KERNEL_NAMES,
    LockstepOutcome,
    ReplicationLayout,
    get_default_step_kernel,
    lockstep_supported,
    resolve_step_kernel,
    run_campaigns_lockstep,
    set_default_step_kernel,
)

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
    "aggregated_influence",
    "CampaignOutcome",
    "CampaignSimulator",
    "MonteCarloEstimate",
    "SigmaEstimator",
    "LOCKSTEP_KERNELS",
    "STEP_KERNEL_NAMES",
    "LockstepOutcome",
    "ReplicationLayout",
    "get_default_step_kernel",
    "lockstep_supported",
    "resolve_step_kernel",
    "run_campaigns_lockstep",
    "set_default_step_kernel",
]
