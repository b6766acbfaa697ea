"""Bit-identity references: the slow, obviously-correct kernels.

Production (``src/repro``) runs one implementation per kernel.  The
straightforward implementations those kernels were derived from live
here instead, where the property suites, the goldens and the scaling
benchmarks (``benchmarks/``) compare against them bit for bit:

* :class:`ScalarCampaignSimulator` — the campaign process one
  promotion, step and arc at a time (LT decisions by explicit
  in-neighbour accumulation), the oracle of the packed lockstep pass
  that plays every production realization;
* :func:`aggregated_influence` — the scalar AIS of one (user, item),
  the oracle of the one-pass Eq. (13) likelihood;
* :func:`run_chunk_per_replication` — ``run_chunk`` as one scalar
  reference run per replication, for every recipe;
* :func:`disable_packed_pass` — routes every realization a pipeline
  plays (Monte-Carlo ranges and ``CampaignSimulator.run``) through the
  scalar reference, so whole pipelines can be replayed without the
  packed pass;
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
from tests.reference.diffusion import ScalarCampaignSimulator, aggregated_influence
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
    "aggregated_influence",
    "canonical_fold",
    "disable_packed_pass",
    "run_chunk_per_replication",
    "stacked_reach",
]
