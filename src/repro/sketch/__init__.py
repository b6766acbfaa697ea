"""Sketch-based sigma oracle: realization bank + reachability sketches.

Under frozen dynamics the diffusion's coins can be flipped up-front
(Lemma 1), turning every sigma / marginal-gain query into a reachability
union over pre-realized worlds — orders of magnitude cheaper than
Monte-Carlo re-simulation, and *noise-free* between queries that share
the same worlds.  This package provides:

* :class:`RealizationBank` — samples and holds the common-random-number
  worlds once per (instance, seed-stream, world count), building them
  in parallel over the :mod:`repro.engine` backends;
* :class:`SketchSigmaEstimator` — a drop-in
  :class:`~repro.diffusion.montecarlo.SigmaEstimator` replacement with
  transparent Monte-Carlo fallback for queries sketches cannot answer;
* :func:`budgeted_coverage_greedy` — the CELF-style lazy greedy whose
  marginal gains are incremental bitmask lookups (nominee selection's
  fast path);
* :mod:`repro.sketch.reachkernel` — the bit-parallel multi-world BFS
  computing all M worlds' reachability in one vectorized pass;
* :mod:`repro.sketch.rrset` — the RIS/IMM-style reverse-reachable-set
  oracle (:class:`RRSetIndex` + :class:`RRSetSigmaEstimator`): sample
  RR sets once per (instance, seed-stream, R), then sigma of *any*
  candidate set is a coverage count — selection cost independent of
  graph size, the million-node path;
* :func:`make_sigma_estimator` — the ``--oracle mc|sketch|rrset``
  factory.
"""

from repro.sketch.bank import (
    DEFAULT_EXTRA_ADOPTION_FLOOR,
    DEFAULT_REACH_BUDGET_BYTES,
    ProbabilitySkeleton,
    ReachCacheStats,
    RealizationBank,
    SketchBuildTask,
    build_skeleton,
    build_worlds_chunk,
)
from repro.sketch.estimator import SketchSigmaEstimator
from repro.sketch.greedy import budgeted_coverage_greedy
from repro.sketch.oracle import ORACLE_NAMES, make_sigma_estimator
from repro.sketch.reachkernel import HAVE_NUMBA, WorldLayout
from repro.sketch.rrset import (
    RRSampleTask,
    RRSetIndex,
    RRSetSigmaEstimator,
    sample_rrsets_chunk,
    suggest_sample_count,
)

__all__ = [
    "DEFAULT_EXTRA_ADOPTION_FLOOR",
    "DEFAULT_REACH_BUDGET_BYTES",
    "HAVE_NUMBA",
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
    "budgeted_coverage_greedy",
    "build_skeleton",
    "build_worlds_chunk",
    "make_sigma_estimator",
    "sample_rrsets_chunk",
    "suggest_sample_count",
]
