"""Replication reference: one canonical chunk per call, merged in order.

The straightforward reduction the engine's matrix sums must reproduce
wherever the samples ran: every ``chunk_indices(n, 4)`` chunk
replays its samples with :meth:`CampaignSimulator.run` and folds their
final weights from zero, and the chunk folds then add up in chunk
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import adoption_likelihood
from repro.engine import ReplicationTask, chunk_indices
from repro.utils.rng import spawn_rng

__all__ = ["ChunkFold", "canonical_fold"]


@dataclass
class ChunkFold:
    """Per-sample scalars and matrix sums of a run (or one chunk)."""

    sigmas: np.ndarray
    restricted: np.ndarray
    likelihoods: np.ndarray
    weights_sum: np.ndarray

    @classmethod
    def merge(cls, parts: list["ChunkFold"]) -> "ChunkFold":
        """Concatenate the scalars and add the sums in chunk order."""
        weights_sum = parts[0].weights_sum.copy()
        for part in parts[1:]:
            weights_sum += part.weights_sum
        return cls(
            sigmas=np.concatenate([p.sigmas for p in parts]),
            restricted=np.concatenate([p.restricted for p in parts]),
            likelihoods=np.concatenate([p.likelihoods for p in parts]),
            weights_sum=weights_sum,
        )


def _fold_chunk(task: ReplicationTask, indices: list[int]) -> ChunkFold:
    simulator = CampaignSimulator(task.instance, model=task.model)
    n = len(indices)
    fold = ChunkFold(
        sigmas=np.zeros(n),
        restricted=np.zeros(n),
        likelihoods=np.zeros(n),
        weights_sum=np.zeros(task.instance.initial_weights.shape),
    )
    users = set(task.restrict_users or range(task.instance.n_users))
    for j, i in enumerate(indices):
        outcome = simulator.run(
            task.seed_group,
            spawn_rng(task.rng_seed, *task.rng_context, i),
            until_promotion=task.until_promotion,
        )
        fold.sigmas[j] = outcome.sigma
        fold.restricted[j] = outcome.sigma_restricted(users)
        fold.likelihoods[j] = adoption_likelihood(outcome.state, task.model, users)
        fold.weights_sum += outcome.state.weights
    return fold


def canonical_fold(task: ReplicationTask, n_samples: int) -> ChunkFold:
    """``n_samples`` replications of ``task``, one fold per canonical
    4-sample chunk, merged in chunk order."""
    return ChunkFold.merge(
        [_fold_chunk(task, chunk) for chunk in chunk_indices(n_samples, 4)]
    )
