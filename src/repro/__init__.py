"""repro — Influence Maximization based on Dynamic Personal Perception.

A from-scratch reproduction of Teng et al., *"Influence Maximization
Based on Dynamic Personal Perception in Knowledge Graph"* (ICDE 2021):
the IMDPP problem, the Dysim approximation algorithm, the dynamic-
perception diffusion substrate, the compared baselines, and synthetic
analogues of the paper's datasets.

Typical usage::

    from repro import Dysim, DysimConfig, load_dataset

    instance = load_dataset("yelp", budget=80.0, n_promotions=3)
    result = Dysim(instance, DysimConfig()).run()
    print(result.seed_group, result.sigma)

Execution backends
------------------
All Monte-Carlo sigma estimation runs through the pluggable
:mod:`repro.engine` execution backends.  Build one, pass it to every
component that should run on it, and close it when done::

    from repro import ProcessPoolBackend, SigmaEstimator
    with ProcessPoolBackend(workers=4) as backend:
        est = SigmaEstimator(instance, backend=backend)
        result = Dysim(instance, DysimConfig(), backend=backend).run()

A component given no backend runs on a private serial one;
``make_backend("process", workers=4)`` builds one from a name (what
the CLI's ``--backend/--workers`` flags do).

**Common random numbers guarantee:** Monte-Carlo sample ``i`` always
replays the random substream derived from ``(root seed, context, i)``
no matter which backend — or which worker inside a backend — executes
it, and chunked reductions follow one canonical order.  Estimates are
therefore bit-identical across ``serial``, ``thread`` and ``process``
backends, and greedy marginal-gain comparisons stay correlated.

Sigma oracles
-------------
Frozen-dynamics selection phases can swap Monte-Carlo re-simulation
for the sketch oracle (``repro.sketch``): a realization bank samples
the common-random-number worlds once and answers every sigma /
marginal-gain query by reachability-bitmask lookups — noise-free
between queries and several times faster at equal replication counts.
Select it per algorithm (``DysimConfig(oracle="sketch")``, baselines'
``oracle="sketch"``) or from the CLI (``--oracle sketch``)::

    from repro import SketchSigmaEstimator
    est = SketchSigmaEstimator(instance.frozen(), n_samples=32)

Queries sketches cannot represent (dynamic perceptions, the LT model,
likelihood / weight collection) transparently fall back to Monte-Carlo.

**Worker-count tuning:** ``workers`` defaults to ``min(8, cpu_count)``.
The ``process`` backend pays one task pickle per chunk plus a one-off
pool start-up, so it wins once replications are expensive (large
instances or high sample counts); ``thread`` is GIL-bound and only
helps when the NumPy share of a step dominates; ``serial`` is fastest
for the small instances used in tests.
"""

from repro.core.dysim import AdaptiveDysim, Dysim, DysimConfig, DysimResult
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.data import (
    DATASET_NAMES,
    build_course_classes,
    dataset_statistics,
    load_dataset,
)
from repro.diffusion import (
    CampaignOutcome,
    CampaignSimulator,
    DiffusionModel,
    SigmaEstimator,
)
from repro.engine import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SigmaCache,
    ThreadBackend,
    make_backend,
)
from repro.errors import ReproError
from repro.kg import KnowledgeGraph, MetaGraph, RelevanceEngine, Relationship
from repro.perception import DynamicsParams, PerceptionState
from repro.sketch import (
    ORACLE_NAMES,
    RealizationBank,
    SketchSigmaEstimator,
    make_sigma_estimator,
)
from repro.social import SocialNetwork

__version__ = "1.0.0"

__all__ = [
    "AdaptiveDysim",
    "CampaignOutcome",
    "CampaignSimulator",
    "DATASET_NAMES",
    "DiffusionModel",
    "Dysim",
    "DysimConfig",
    "DysimResult",
    "DynamicsParams",
    "ExecutionBackend",
    "IMDPPInstance",
    "KnowledgeGraph",
    "MetaGraph",
    "ORACLE_NAMES",
    "PerceptionState",
    "ProcessPoolBackend",
    "RealizationBank",
    "Relationship",
    "RelevanceEngine",
    "ReproError",
    "Seed",
    "SeedGroup",
    "SerialBackend",
    "SigmaCache",
    "SigmaEstimator",
    "SketchSigmaEstimator",
    "SocialNetwork",
    "ThreadBackend",
    "make_backend",
    "make_sigma_estimator",
    "build_course_classes",
    "dataset_statistics",
    "load_dataset",
    "__version__",
]
