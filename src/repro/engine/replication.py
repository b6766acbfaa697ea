"""The unit of parallel work: one range of Monte-Carlo replications.

A task plays ``n_samples`` samples of each of its seed groups; every
execution backend — serial, threaded or multi-process — runs the same
function, :func:`run_chunk`, over one balanced range of the
``groups x samples`` replications per worker
(:func:`~repro.engine.backends.worker_chunks`).  Two properties follow:

* **Common random numbers.**  Sample ``s`` of every group replays the
  random substream ``spawn_rng(rng_seed, *rng_context, s)`` no matter
  which worker executes it, so greedy marginal-gain comparisons stay
  correlated across seed groups and every backend sees the same worlds.
* **Bit-identical aggregation.**  A range returns its per-replication
  outputs — scalars and, when collected, final weights — and ranges
  merge in replication order (:class:`ChunkResult`), so the parent
  reduces the same values in the same order wherever they ran
  (:func:`~repro.diffusion.montecarlo.replicated_sigma_stats`).
  ``SerialBackend`` and ``ProcessPoolBackend`` therefore produce
  floating-point-identical estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.campaign import run_campaigns_lockstep
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.perception.state import PerceptionState
from repro.utils.rng import spawn_rng

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ReplicationTask",
    "ChunkResult",
    "run_chunk",
]

#: Canonical chunk size of the final-weights sum: each group's weights
#: fold per chunk of this many consecutive samples and the folds add up
#: in chunk order (:func:`~repro.diffusion.montecarlo.
#: replicated_sigma_stats`).  Dispatch does not depend on it: every
#: task runs as one balanced range per worker.  A realization bank
#: fills blocks this small in process.
DEFAULT_CHUNK_SIZE = 4


@dataclass
class ReplicationTask:
    """Everything a worker needs to replay a block of Monte-Carlo samples.

    The task is picklable: process backends ship it to workers once per
    range.  It plays ``n_samples`` samples of each of ``seed_groups``:
    replication ``i`` plays group ``i // n_samples`` on sample
    ``i % n_samples``.  ``rng_seed``/``rng_context`` identify the
    common-random-numbers substream family; sample ``s`` of every group
    draws from ``spawn_rng(rng_seed, *rng_context, s)``.  The
    collectors (``restrict_users``, ``compute_likelihood``,
    ``collect_weights``) read every replication's final state.
    """

    instance: IMDPPInstance
    model: DiffusionModel
    rng_seed: int
    rng_context: tuple
    seed_groups: Sequence[SeedGroup]
    n_samples: int
    until_promotion: int | None = None
    restrict_users: frozenset[int] | None = None
    compute_likelihood: bool = False
    collect_weights: bool = False
    initial_state: PerceptionState | None = None
    start_promotion: int = 1


@dataclass
class ChunkResult:
    """Per-replication outputs of one range (or a merge of several),
    in replication order."""

    sigmas: np.ndarray
    restricted: np.ndarray
    likelihoods: np.ndarray
    #: Each replication's final weights, when the task collects them.
    weights: list[np.ndarray] | None = None

    @property
    def n_samples(self) -> int:
        return int(self.sigmas.size)

    @classmethod
    def merge(cls, parts: Sequence["ChunkResult"]) -> "ChunkResult":
        """Concatenate range results *in replication order*."""
        parts = list(parts)
        if not parts:
            empty = np.zeros(0)
            return cls(
                sigmas=empty,
                restricted=empty.copy(),
                likelihoods=empty.copy(),
            )
        return cls(
            sigmas=np.concatenate([p.sigmas for p in parts]),
            restricted=np.concatenate([p.restricted for p in parts]),
            likelihoods=np.concatenate([p.likelihoods for p in parts]),
            weights=(
                [w for p in parts for w in p.weights]
                if parts[0].weights is not None
                else None
            ),
        )


def run_chunk(task: ReplicationTask, indices: Sequence[int]) -> ChunkResult:
    """Run the replications ``indices`` of ``task`` in one packed pass.

    Every recipe — frozen or learning dynamics, resumed states, the
    restricted-sigma, likelihood and final-weights collectors, any mix
    of seed groups — plays the whole range in one
    :func:`~repro.diffusion.campaign.run_campaigns_lockstep` call,
    bit-identical per replication to one scalar reference run
    (``tests.reference.run_chunk_per_replication``).  The collectors
    then read each replication's final state, one outcome at a time:
    an outcome, with the state it materialized, is released before the
    next is read.  This is the single entry point every backend
    dispatches — it must stay a module-level function so process pools
    can pickle it by qualified name.
    """
    n_samples = task.n_samples
    outcomes = run_campaigns_lockstep(
        task.instance,
        [task.seed_groups[i // n_samples] for i in indices],
        [
            spawn_rng(task.rng_seed, *task.rng_context, i % n_samples)
            for i in indices
        ],
        model=task.model,
        until_promotion=task.until_promotion,
        initial_state=task.initial_state,
        start_promotion=task.start_promotion,
    )
    n = len(indices)
    sigmas = np.zeros(n)
    restricted = np.zeros(n)
    likelihoods = np.zeros(n)
    weights: list[np.ndarray] | None = [] if task.collect_weights else None
    restrict = None
    if task.restrict_users is not None:
        restrict = set(task.restrict_users)

    for j in range(n):
        outcome, outcomes[j] = outcomes[j], None
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
