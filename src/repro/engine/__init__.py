"""Parallel Monte-Carlo execution engine.

``repro.engine`` turns sigma estimation — the hottest path in the
reproduction — into a pluggable service with three moving parts:

* **Backends** (:mod:`repro.engine.backends`): serial, thread-pool and
  process-pool executors that fan Monte-Carlo replications out in
  canonical chunks.  Sample ``i`` replays the same random substream on
  every backend (common random numbers), and chunked reductions follow
  a fixed order, so all backends return bit-identical estimates.
* **Replication** (:mod:`repro.engine.replication`): the picklable task
  description and the chunk runner every backend dispatches.
* **Cache** (:mod:`repro.engine.cache`): LRU memoization of estimates
  with hit/miss counters, keyed by seed group + estimator config.
* **Resilience** (:mod:`repro.engine.resilience`): supervised chunk
  retry with CRN-exact recovery — crashed/raising/hung chunks are
  re-dispatched bit-identically on a rebuilt pool, a degradation
  ladder (process → thread → serial) catches exhausted retries, and a
  deterministic :class:`FaultPlan` injects faults for testing.

Backend selection::

    from repro import SigmaEstimator
    est = SigmaEstimator(instance, backend="process", workers=4)

or process-wide (what the CLI's ``--backend/--workers`` flags do)::

    from repro.engine import set_default_backend
    set_default_backend("process", workers=4)
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    worker_chunks,
)
from repro.engine.cache import CacheStats, SigmaCache
from repro.engine.replication import (
    DEFAULT_CHUNK_SIZE,
    ChunkResult,
    ReplicationTask,
    chunk_indices,
    run_chunk,
)
from repro.engine.resilience import (
    FaultPlan,
    FaultSpec,
    FaultStats,
    InjectedFault,
    RetryPolicy,
    default_retry_policy,
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
    "chunk_indices",
    "default_retry_policy",
    "get_default_backend",
    "release_csr",
    "release_task_arrays",
    "resolve_backend",
    "run_chunk",
    "set_default_backend",
    "share_csr",
    "share_for_backend",
    "share_task_arrays",
    "sweep_stale_shm",
    "worker_chunks",
]
