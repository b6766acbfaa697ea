"""Replication references: per-replication ranges and canonical folds.

* :func:`run_chunk_per_replication` — ``run_chunk`` as one
  :class:`ScalarCampaignSimulator` run per replication, the oracle the
  packed lockstep pass must reproduce bit for bit, for every recipe;
* :func:`disable_packed_pass` — routes every realization a whole
  pipeline plays, Monte-Carlo ranges and single runs alike, through
  the scalar reference;
* :func:`canonical_fold` — the straightforward reduction the engine's
  matrix sums must reproduce wherever the samples ran: every chunk of
  4 consecutive samples replays its samples with the scalar reference
  and folds their final weights from zero, and the chunk folds then
  add up in chunk order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import adoption_likelihood
from repro.engine import ReplicationTask, replication
from repro.engine.replication import ChunkResult
from repro.utils.rng import spawn_rng

from tests.reference.diffusion import ScalarCampaignSimulator

__all__ = [
    "ChunkFold",
    "canonical_fold",
    "disable_packed_pass",
    "run_chunk_per_replication",
]


def run_chunk_per_replication(
    task: ReplicationTask, indices: Sequence[int]
) -> ChunkResult:
    """``run_chunk`` replaying the scalar reference per replication.

    Index ``i`` plays group ``i // n_samples`` on sample
    ``i % n_samples``: same groups, same substreams, same collectors,
    same per-replication outputs as the packed pass — only the
    simulation differs.
    """
    simulator = ScalarCampaignSimulator(task.instance, model=task.model)
    n = len(indices)
    sigmas = np.zeros(n)
    restricted = np.zeros(n)
    likelihoods = np.zeros(n)
    weights: list[np.ndarray] | None = [] if task.collect_weights else None
    restrict = None
    if task.restrict_users is not None:
        restrict = set(task.restrict_users)

    for j, i in enumerate(indices):
        group, sample = divmod(i, task.n_samples)
        rng = spawn_rng(task.rng_seed, *task.rng_context, sample)
        outcome = simulator.run(
            task.seed_groups[group],
            rng,
            until_promotion=task.until_promotion,
            initial_state=task.initial_state,
            start_promotion=task.start_promotion,
        )
        sigmas[j] = outcome.sigma
        if restrict is not None:
            restricted[j] = outcome.sigma_restricted(restrict)
        if task.compute_likelihood:
            users = restrict
            if users is None:
                users = set(range(task.instance.n_users))
            likelihoods[j] = adoption_likelihood(outcome.state, task.model, users)
        if weights is not None:
            weights.append(outcome.state.weights)

    return ChunkResult(
        sigmas=sigmas,
        restricted=restricted,
        likelihoods=likelihoods,
        weights=weights,
    )


def disable_packed_pass(monkeypatch) -> list:
    """Send every realization a pipeline plays through the scalar reference.

    Rebinds ``run_chunk`` in every ``repro`` module that imported it
    (the engine's backends and the estimators dispatch it by name) to
    :func:`run_chunk_per_replication`, and
    :meth:`CampaignSimulator.run` (adaptive observation) to
    :class:`ScalarCampaignSimulator`, and wraps every binding of the
    packed pass in a spy.  Returns the spy's call list, which stays
    empty while the patch holds.  In-process only: pool workers forked
    or spawned earlier keep their own module state.
    """
    original = replication.run_chunk
    packed = replication.run_campaigns_lockstep
    packed_calls: list = []

    def spy(*args, **kwargs):
        packed_calls.append(args)
        return packed(*args, **kwargs)

    def scalar_run(simulator, *args, **kwargs):
        reference = ScalarCampaignSimulator(simulator.instance, simulator.model)
        return reference.run(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attribute, run_chunk_per_replication)
            elif value is packed:
                monkeypatch.setattr(module, attribute, spy)
    monkeypatch.setattr(CampaignSimulator, "run", scalar_run)
    return packed_calls


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
    simulator = ScalarCampaignSimulator(task.instance, model=task.model)
    n = len(indices)
    fold = ChunkFold(
        sigmas=np.zeros(n),
        restricted=np.zeros(n),
        likelihoods=np.zeros(n),
        weights_sum=np.zeros(task.instance.initial_weights.shape),
    )
    users = set(task.restrict_users or range(task.instance.n_users))
    (group,) = task.seed_groups
    for j, i in enumerate(indices):
        outcome = simulator.run(
            group,
            spawn_rng(task.rng_seed, *task.rng_context, i),
            until_promotion=task.until_promotion,
        )
        fold.sigmas[j] = outcome.sigma
        fold.restricted[j] = outcome.sigma_restricted(users)
        fold.likelihoods[j] = adoption_likelihood(outcome.state, task.model, users)
        fold.weights_sum += outcome.state.weights
    return fold


def canonical_fold(task: ReplicationTask) -> ChunkFold:
    """The ``n_samples`` replications of a one-group ``task``, one fold
    per canonical 4-sample chunk, merged in chunk order."""
    n = task.n_samples
    return ChunkFold.merge(
        [
            _fold_chunk(task, list(range(start, min(start + 4, n))))
            for start in range(0, n, 4)
        ]
    )
