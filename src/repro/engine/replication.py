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
* **Bit-identical aggregation.**  Per-replication scalars are gathered
  in index order, and the final-weights sum reduces over the canonical
  ``DEFAULT_CHUNK_SIZE``-sample chunks wherever the samples ran: each
  canonical chunk is folded sample by sample from its first index, and
  the chunk folds are summed in chunk order (:class:`ChunkResult`).
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

#: Canonical chunk size of the matrix reduction tree.  Final weights are
#: folded per chunk of this many consecutive samples and the folds
#: summed in chunk order, so this constant — not the worker count or the
#: ranges the samples ran in — fixes their floating-point result.
#: Dispatch does not depend on it: every task runs as one balanced range
#: per worker.  A realization bank fills blocks this small in process.
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
    ``collect_weights``) read a one-group task.
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

    def __post_init__(self):
        if len(self.seed_groups) != 1 and (
            self.restrict_users is not None
            or self.compute_likelihood
            or self.collect_weights
        ):
            raise ValueError("the collectors read a one-group task")


#: Matrix partial sums of one range, in sample order: ``(opens, matrix)``
#: pairs.  ``opens`` marks the fold of a canonical chunk from its first
#: sample on; any other matrix is one sample continuing the chunk the
#: pair before it opened (see :func:`_fold_sample`).
Folds = list[tuple[bool, np.ndarray]]


def _fold_sample(folds: Folds, sample: int, matrix: np.ndarray) -> None:
    """Add the next sample's matrix of a range to its folds.

    A sample that starts a canonical chunk opens a fold; the samples
    after it in the same chunk join that fold.  A range that starts
    inside a chunk cannot fold those samples — the chunk's fold began
    in the range before — so it ships them one by one for the parent
    to continue the fold with, in index order.
    """
    if sample % DEFAULT_CHUNK_SIZE == 0:
        fold = np.zeros(matrix.shape)
        fold += matrix
        folds.append((True, fold))
    elif folds and folds[-1][0]:
        fold = folds[-1][1]
        fold += matrix
    else:
        folds.append((False, matrix))


def _reduce_folds(folds: Folds | None) -> np.ndarray | None:
    """Sum a run's folds over the canonical tree.

    Each chunk's fold continues with the single samples that follow
    it, then the chunk folds add up in chunk order — the reduction one
    canonical chunk per call would compute, whatever ranges the
    samples ran in.
    """
    if not folds:
        return None
    chunks: list[np.ndarray] = []
    for opens, matrix in folds:
        if opens or not chunks:
            chunks.append(np.array(matrix, dtype=float))
        else:
            chunks[-1] += matrix
    total = chunks[0]
    for chunk in chunks[1:]:
        total += chunk
    return total


@dataclass
class ChunkResult:
    """Aggregates from one range (or a merge of several ranges)."""

    sigmas: np.ndarray
    restricted: np.ndarray
    likelihoods: np.ndarray
    weight_folds: Folds | None = None

    @property
    def n_samples(self) -> int:
        return int(self.sigmas.size)

    @property
    def weights_sum(self) -> np.ndarray | None:
        """Sum of the final weights over the canonical tree."""
        return _reduce_folds(self.weight_folds)

    @classmethod
    def merge(cls, parts: Sequence["ChunkResult"]) -> "ChunkResult":
        """Combine range results *in sample order*.

        Scalars and folds concatenate; the folds reduce only when a sum
        is read, so a merge of any split of the samples reads the same
        sums as one run over all of them.
        """
        parts = list(parts)
        if not parts:
            empty = np.zeros(0)
            return cls(
                sigmas=empty,
                restricted=empty.copy(),
                likelihoods=empty.copy(),
            )

        folds = [p.weight_folds for p in parts if p.weight_folds is not None]
        return cls(
            sigmas=np.concatenate([p.sigmas for p in parts]),
            restricted=np.concatenate([p.restricted for p in parts]),
            likelihoods=np.concatenate([p.likelihoods for p in parts]),
            weight_folds=[pair for f in folds for pair in f] if folds else None,
        )


def run_chunk(task: ReplicationTask, indices: Sequence[int]) -> ChunkResult:
    """Run the replications ``indices`` of ``task`` in one packed pass.

    Every recipe — frozen or learning dynamics, resumed states, the
    likelihood and final-weights collectors, any mix of seed groups —
    plays the whole range in one
    :func:`~repro.diffusion.campaign.run_campaigns_lockstep` call,
    bit-identical per replication to one scalar reference run
    (``tests.reference.run_chunk_per_replication``).  The collectors
    then read each replication's final state, and the final weights
    fold over the canonical chunks.  This is the single entry point
    every backend dispatches — it must stay a module-level function so
    process pools can pickle it by qualified name.
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
    weight_folds: Folds | None = [] if task.collect_weights else None
    restrict = None
    if task.restrict_users is not None:
        restrict = set(task.restrict_users)

    for j, (i, outcome) in enumerate(zip(indices, outcomes)):
        sigmas[j] = outcome.sigma
        if restrict is not None:
            restricted[j] = outcome.sigma_restricted(restrict)
        if task.compute_likelihood:
            users = restrict
            if users is None:
                users = set(range(task.instance.n_users))
            likelihoods[j] = adoption_likelihood(outcome.state, task.model, users)
        if weight_folds is not None:
            _fold_sample(weight_folds, i, outcome.state.weights)

    return ChunkResult(
        sigmas=sigmas,
        restricted=restricted,
        likelihoods=likelihoods,
        weight_folds=weight_folds,
    )
