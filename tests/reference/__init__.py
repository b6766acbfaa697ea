"""Bit-identity references: the slow, obviously-correct kernels.

Production (``src/repro``) runs one implementation per kernel.  The
straightforward implementations those kernels were derived from live
here instead, where the property suites, the goldens and the scaling
benchmarks (``benchmarks/``) compare against them bit for bit:

* :class:`ScalarCampaignSimulator` — the per-arc scalar diffusion step
  (one Python loop over frontier out-arcs, LT decisions by explicit
  in-neighbour accumulation);
* :func:`run_chunk_per_replication` — ``run_chunk`` as one
  ``CampaignSimulator.run`` per replication, the oracle of the packed
  lockstep pass for every recipe;
* :func:`disable_packed_pass` — routes every Monte-Carlo range through
  it, so whole pipelines can be replayed without the packed pass;
* :func:`canonical_fold` — one fold per canonical chunk, merged in
  chunk order: the reduction tree matrix sums must keep wherever the
  samples ran;
* :class:`ReachabilitySketch` / :class:`PerWorldBank` /
  :func:`stacked_reach` — one Python BFS per realized world, and the
  boolean form of a stack;
* :class:`CoverageEvaluator` — one-candidate-at-a-time boolean
  coverage gains.
"""

from tests.reference.coverage import CoverageEvaluator
from tests.reference.diffusion import ScalarCampaignSimulator
from tests.reference.reach import PerWorldBank, ReachabilitySketch, stacked_reach
from tests.reference.replication import (
    canonical_fold,
    disable_packed_pass,
    run_chunk_per_replication,
)

__all__ = [
    "CoverageEvaluator",
    "PerWorldBank",
    "ReachabilitySketch",
    "ScalarCampaignSimulator",
    "canonical_fold",
    "disable_packed_pass",
    "run_chunk_per_replication",
    "stacked_reach",
]
