"""Coverage sigma oracles: realization bank, RR sets, one estimator.

Under frozen dynamics the diffusion's coins can be flipped up-front
(Lemma 1), turning every sigma / marginal-gain query into a coverage
count over pre-realized samples — orders of magnitude cheaper than
Monte-Carlo re-simulation, and *noise-free* between queries that share
the same samples.  This package provides:

* :class:`RealizationBank` — samples and holds the common-random-number
  forward worlds once per (instance, seed-stream, world count),
  building them in parallel over the :mod:`repro.engine` backends;
* :mod:`repro.sketch.reachkernel` — the bit-parallel multi-world BFS
  computing all M worlds' reachability in one vectorized pass;
* :mod:`repro.sketch.rrset` — the RIS/IMM-style reverse-reachable-set
  family (:class:`RRSetIndex`): sample RR sets once per (instance,
  seed-stream, R), then sigma of *any* candidate set is a coverage
  count — selection cost independent of graph size, the million-node
  path;
* :class:`CoverageSigmaEstimator` — the one drop-in
  :class:`~repro.diffusion.montecarlo.SigmaEstimator` replacement over
  either family, with transparent Monte-Carlo fallback for queries
  coverage cannot answer and a CELF coverage greedy
  (``select_budgeted``, nominee selection's fast path);
  :class:`SketchSigmaEstimator` (bank) and :class:`RRSetSigmaEstimator`
  (RR sets) are its two families;
* :func:`make_sigma_estimator` — the ``--oracle mc|sketch|rrset``
  factory.
"""

from repro.sketch.bank import (
    DEFAULT_REACH_BUDGET_BYTES,
    ProbabilitySkeleton,
    ReachCacheStats,
    RealizationBank,
    SketchBuildTask,
    build_skeleton,
    build_worlds_chunk,
)
from repro.sketch.estimator import CoverageSigmaEstimator, SketchSigmaEstimator
from repro.sketch.oracle import ORACLE_NAMES, make_sigma_estimator
from repro.sketch.reachkernel import WorldLayout
from repro.sketch.rrset import (
    RRSampleTask,
    RRSetIndex,
    RRSetSigmaEstimator,
    sample_rrsets_chunk,
    suggest_sample_count,
)

__all__ = [
    "CoverageSigmaEstimator",
    "DEFAULT_REACH_BUDGET_BYTES",
    "ORACLE_NAMES",
    "ProbabilitySkeleton",
    "RRSampleTask",
    "RRSetIndex",
    "RRSetSigmaEstimator",
    "ReachCacheStats",
    "RealizationBank",
    "SketchBuildTask",
    "SketchSigmaEstimator",
    "WorldLayout",
    "build_skeleton",
    "build_worlds_chunk",
    "make_sigma_estimator",
    "sample_rrsets_chunk",
    "suggest_sample_count",
]
