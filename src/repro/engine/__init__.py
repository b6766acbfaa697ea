"""Parallel Monte-Carlo execution engine.

``repro.engine`` turns sigma estimation — the hottest path in the
reproduction — into a pluggable service with three moving parts:

* **Backends** (:mod:`repro.engine.backends`): serial, thread-pool and
  process-pool executors that fan the Monte-Carlo replications of one
  seed group or a block of them out as one balanced range per worker.
  Sample ``i`` replays the same random substream on every backend and
  for every group (common random numbers), and matrix sums reduce over
  the canonical chunk tree whatever the ranges, so all backends return
  bit-identical estimates.
* **Replication** (:mod:`repro.engine.replication`): the picklable task
  description and the chunk runner every backend dispatches.
* **Cache** (:mod:`repro.engine.cache`): memoization of estimates
  with hit/miss counters, keyed by the realization they played (seed
  group, horizon, estimator config) and the fields they hold, so
  requests of one realization share one simulation.
* **Resilience** (:mod:`repro.engine.resilience`): supervised chunk
  retry with CRN-exact recovery — crashed/raising/hung chunks are
  re-dispatched bit-identically on a rebuilt pool, a degradation
  ladder (process → thread → serial) catches exhausted retries, and a
  deterministic :class:`FaultPlan` injects faults for testing.

Backend selection: build one backend, hand it to every consumer that
should run on it, and close it when done::

    from repro import Dysim, ProcessPoolBackend, SigmaEstimator
    with ProcessPoolBackend(workers=4) as backend:
        est = SigmaEstimator(instance, backend=backend)
        result = Dysim(instance, backend=backend).run()

A consumer given no backend runs on a private serial one.
:func:`make_backend` builds a backend from a name (``"serial"``,
``"thread"``, ``"process"``), which is what the CLI's
``--backend/--workers`` flags do.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    worker_chunks,
)
from repro.engine.cache import CacheStats, SigmaCache
from repro.engine.replication import (
    DEFAULT_CHUNK_SIZE,
    ChunkResult,
    ReplicationTask,
    run_chunk,
)
from repro.engine.resilience import (
    FaultPlan,
    FaultSpec,
    FaultStats,
    InjectedFault,
    RetryPolicy,
)
from repro.engine.shm import (
    SharedArrayHandle,
    SharedCSRHandle,
    attach_csr,
    release_csr,
    release_task_arrays,
    share_csr,
    share_for_backend,
    share_task_arrays,
    sweep_stale_shm,
)

__all__ = [
    "BACKEND_NAMES",
    "CacheStats",
    "ChunkResult",
    "DEFAULT_CHUNK_SIZE",
    "ExecutionBackend",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "InjectedFault",
    "ProcessPoolBackend",
    "ReplicationTask",
    "RetryPolicy",
    "SerialBackend",
    "SharedArrayHandle",
    "SharedCSRHandle",
    "SigmaCache",
    "ThreadBackend",
    "attach_csr",
    "make_backend",
    "release_csr",
    "release_task_arrays",
    "run_chunk",
    "share_csr",
    "share_for_backend",
    "share_task_arrays",
    "sweep_stale_shm",
    "worker_chunks",
]
