"""The unit of parallel work: one chunk of Monte-Carlo replications.

Every execution backend — serial, threaded or multi-process — runs the
same function, :func:`run_chunk`, over the same canonical partition of
sample indices (:func:`chunk_indices`).  Two properties follow:

* **Common random numbers.**  Sample ``i`` always replays the random
  substream ``spawn_rng(rng_seed, *rng_context, i)`` no matter which
  worker executes it, so greedy marginal-gain comparisons stay
  correlated across seed groups and every backend sees the same worlds.
* **Bit-identical aggregation.**  Per-sample scalars are gathered in
  index order, and matrix accumulators (mean weights, adoption
  frequencies) are reduced chunk-by-chunk in the same canonical order
  on every backend, so ``SerialBackend`` and ``ProcessPoolBackend``
  produce floating-point-identical :class:`MonteCarloEstimate`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.diffusion.repkernel import run_campaigns_lockstep
from repro.perception.state import PerceptionState
from repro.utils.rng import spawn_rng

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ReplicationTask",
    "ChunkResult",
    "chunk_indices",
    "lockstep_applicable",
    "run_chunk",
]

#: Canonical chunk size shared by every backend.  It bounds the work
#: shipped per inter-process round trip and — because matrix
#: accumulators are reduced chunk-by-chunk — fixes the floating-point
#: reduction tree, which is what makes backends bit-identical.
#: It also caps usable parallelism at ceil(n_samples / chunk_size)
#: workers; bit-identity only needs the chunking to be *backend-
#: independent*, so callers comparing backends may pass any matching
#: ``chunk_size`` (e.g. 1 to parallelize very small sample counts).
DEFAULT_CHUNK_SIZE = 4


@dataclass
class ReplicationTask:
    """Everything a worker needs to replay one Monte-Carlo sample.

    The task is picklable: process backends ship it to workers once per
    chunk.  ``rng_seed``/``rng_context`` identify the common-random-
    numbers substream family; sample ``i`` draws from
    ``spawn_rng(rng_seed, *rng_context, i)``.
    """

    instance: IMDPPInstance
    model: DiffusionModel
    rng_seed: int
    rng_context: tuple
    seed_group: SeedGroup
    until_promotion: int | None = None
    restrict_users: frozenset[int] | None = None
    compute_likelihood: bool = False
    collect_weights: bool = False
    collect_adoptions: bool = False
    initial_state: PerceptionState | None = None
    start_promotion: int = 1


@dataclass
class ChunkResult:
    """Aggregates from one chunk (or a merge of several chunks)."""

    sigmas: np.ndarray
    restricted: np.ndarray
    likelihoods: np.ndarray
    weights_sum: np.ndarray | None = None
    adoption_sum: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return int(self.sigmas.size)

    @classmethod
    def merge(cls, parts: Sequence["ChunkResult"]) -> "ChunkResult":
        """Combine chunk results *in chunk order*.

        The sequential chunk-by-chunk reduction mirrors what
        ``SerialBackend`` computes, so parallel backends that merge
        their (ordered) chunk outputs here are bit-identical to serial.
        """
        parts = list(parts)
        if not parts:
            empty = np.zeros(0)
            return cls(
                sigmas=empty,
                restricted=empty.copy(),
                likelihoods=empty.copy(),
            )
        sigmas = np.concatenate([p.sigmas for p in parts])
        restricted = np.concatenate([p.restricted for p in parts])
        likelihoods = np.concatenate([p.likelihoods for p in parts])
        weights_sum: np.ndarray | None = None
        adoption_sum: np.ndarray | None = None
        for part in parts:
            if part.weights_sum is not None:
                if weights_sum is None:
                    weights_sum = part.weights_sum.copy()
                else:
                    weights_sum += part.weights_sum
            if part.adoption_sum is not None:
                if adoption_sum is None:
                    adoption_sum = part.adoption_sum.copy()
                else:
                    adoption_sum += part.adoption_sum
        return cls(
            sigmas=sigmas,
            restricted=restricted,
            likelihoods=likelihoods,
            weights_sum=weights_sum,
            adoption_sum=adoption_sum,
        )


def chunk_indices(
    n_samples: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> list[list[int]]:
    """Partition ``range(n_samples)`` into the canonical chunks.

    ``n_samples`` must be positive: a zero-sample "estimate" would
    silently average an empty array into NaN, so it is rejected here —
    the one choke point every backend goes through.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    size = max(1, int(chunk_size))
    return [
        list(range(start, min(start + size, n_samples)))
        for start in range(0, n_samples, size)
    ]


def lockstep_applicable(task: ReplicationTask) -> bool:
    """Will ``run_chunk`` play this task in one packed lockstep pass?

    True iff the recipe fits the packed pass: frozen dynamics (per-event
    probabilities must not depend on per-replication perception state),
    no resumed state, and none of the state-materializing collectors
    (likelihood, mean weights, adoption frequencies) — only the
    per-replication step materializes a final
    :class:`~repro.perception.state.PerceptionState`.  Backends consult
    this to coarsen the chunk partition: the lockstep outputs
    (per-sample sigmas, in index order) are partition-invariant, so one
    chunk per worker is safe and amortizes best.
    """
    return (
        task.instance.dynamics.is_frozen
        and task.initial_state is None
        and not task.compute_likelihood
        and not task.collect_weights
        and not task.collect_adoptions
    )


def _run_chunk_lockstep(task: ReplicationTask, indices: Sequence[int]) -> ChunkResult:
    """One packed kernel call covering every replication of the chunk."""
    rngs = [
        spawn_rng(task.rng_seed, *task.rng_context, i) for i in indices
    ]
    outcomes = run_campaigns_lockstep(
        task.instance,
        task.seed_group,
        rngs,
        model=task.model,
        until_promotion=task.until_promotion,
        start_promotion=task.start_promotion,
    )
    n = len(indices)
    sigmas = np.zeros(n)
    restricted = np.zeros(n)
    restrict = None
    if task.restrict_users is not None:
        restrict = set(task.restrict_users)
    for j, outcome in enumerate(outcomes):
        sigmas[j] = outcome.sigma
        if restrict is not None:
            restricted[j] = outcome.sigma_restricted(restrict)
    return ChunkResult(
        sigmas=sigmas,
        restricted=restricted,
        likelihoods=np.zeros(n),
    )


def run_chunk(task: ReplicationTask, indices: Sequence[int]) -> ChunkResult:
    """Run the replications ``indices`` of ``task`` sequentially.

    Frozen recipes play in one packed lockstep pass
    (:func:`lockstep_applicable`); dynamic perceptions, resumed states
    and state collectors replay :meth:`CampaignSimulator.run` per
    replication.  Both are bit-identical per sample.  This is the single
    entry point every backend dispatches — it must stay a module-level
    function so process pools can pickle it by qualified name.
    """
    if lockstep_applicable(task):
        return _run_chunk_lockstep(task, indices)
    simulator = CampaignSimulator(task.instance, model=task.model)
    n = len(indices)
    sigmas = np.zeros(n)
    restricted = np.zeros(n)
    likelihoods = np.zeros(n)
    weights_sum: np.ndarray | None = None
    adoption_sum: np.ndarray | None = None
    restrict = None
    if task.restrict_users is not None:
        restrict = set(task.restrict_users)

    for j, i in enumerate(indices):
        rng = spawn_rng(task.rng_seed, *task.rng_context, i)
        outcome = simulator.run(
            task.seed_group,
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
        if task.collect_weights:
            if weights_sum is None:
                weights_sum = np.zeros_like(outcome.state.weights)
            weights_sum += outcome.state.weights
        if task.collect_adoptions:
            if adoption_sum is None:
                adoption_sum = np.zeros(outcome.new_adoptions.shape, dtype=float)
            adoption_sum += outcome.new_adoptions

    return ChunkResult(
        sigmas=sigmas,
        restricted=restricted,
        likelihoods=likelihoods,
        weights_sum=weights_sum,
        adoption_sum=adoption_sum,
    )
