"""Bit-identity references: the slow, obviously-correct kernels.

Production (``src/repro``) runs one implementation per kernel.  The
straightforward implementations those kernels were derived from live
here instead, where the property suites, the goldens and the scaling
benchmarks (``benchmarks/``) compare against them bit for bit:

* :class:`ScalarCampaignSimulator` — the per-arc scalar diffusion step
  (one Python loop over frontier out-arcs, LT decisions by explicit
  in-neighbour accumulation);
* :func:`disable_packed_pass` — routes every Monte-Carlo chunk through
  the per-replication step, so whole pipelines can be replayed without
  the packed lockstep pass;
* :class:`ReachabilitySketch` / :class:`PerWorldBank` /
  :func:`stacked_reach` — one Python BFS per realized world, and the
  boolean form of a stack;
* :class:`CoverageEvaluator` — one-candidate-at-a-time boolean
  coverage gains.
"""

from tests.reference.coverage import CoverageEvaluator
from tests.reference.diffusion import ScalarCampaignSimulator, disable_packed_pass
from tests.reference.reach import PerWorldBank, ReachabilitySketch, stacked_reach

__all__ = [
    "CoverageEvaluator",
    "PerWorldBank",
    "ReachabilitySketch",
    "ScalarCampaignSimulator",
    "disable_packed_pass",
    "stacked_reach",
]
