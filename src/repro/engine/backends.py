"""Execution backends: where Monte-Carlo replications actually run.

The estimator hands a :class:`~repro.engine.replication.ReplicationTask`
— one seed group or a block of them — to a backend; the backend fans
one balanced range of its ``groups x samples`` replications per worker
out (:func:`worker_chunks`) and merges the results in replication
order.
Every backend dispatches the same
:func:`~repro.engine.replication.run_chunk`, whose outputs are
per-replication, so results are bit-identical across backends — see
the ``repro.engine.replication`` module docstring for why.

Choosing a backend
------------------
``serial``
    No concurrency, no overhead.  What a consumer given no backend
    builds for itself, and the fastest option for the small instances
    used in tests.
``thread``
    A shared ``ThreadPoolExecutor``.  Replications are largely pure
    Python, so the GIL caps the speedup; threads pay off only when the
    NumPy share of a step dominates.  Cheap to spin up, useful for
    overlapping many small estimates.
``process``
    A ``ProcessPoolExecutor``.  True parallelism; pays one pickle of
    the task per chunk plus a one-off pool start-up, so it wins once
    replications are expensive (large instances or high sample counts).

Whoever builds a backend owns it and closes it (``with backend:``);
estimators, algorithms and sweeps only borrow the one they are given.
:func:`make_backend` turns a spelled-out name into a backend where
names enter the program: the CLI and sweep specs.

Fault tolerance
---------------
Pool backends supervise every dispatch through
:mod:`repro.engine.resilience`: a dead worker, a raising chunk or a
chunk past its deadline is re-dispatched (only the failed chunks, with
capped backoff, rebuilding the pool when it broke), and exhausted
retries degrade to thread and then serial execution with a one-time
``RuntimeWarning`` instead of aborting the run.  Recovery is
bit-identical — chunks are pure functions of ``(task, chunk)`` — and
accounted in :attr:`fault_stats` (``retries=``/``chunk_timeout=``
tune the policy; ``fault_plan=`` or ``REPRO_FAULT_PLAN`` injects
deterministic faults for testing).
"""

from __future__ import annotations

import concurrent.futures
import logging
import os

from repro.engine.replication import (
    ChunkResult,
    ReplicationTask,
    run_chunk,
)
from repro.engine.resilience import (
    DEFAULT_MAX_RETRIES,
    FaultPlan,
    FaultStats,
    RetryPolicy,
    supervise_map_chunks,
    supervise_serial,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "worker_chunks",
]


def worker_chunks(n_items: int, backend: "ExecutionBackend") -> list[list[int]]:
    """Balanced contiguous index chunks, one per available worker.

    Splits ``n_items`` into at most ``backend.workers`` contiguous
    chunks (a single chunk on the serial backend), sized within one
    item of each other.  The one partition every dispatch uses, because
    one chunk per worker keeps the pool saturated at the least
    pickling: Monte-Carlo replications (:meth:`ExecutionBackend.run`),
    realization-bank world flips and reach fills, RR-set sampling,
    sweep runs.
    """
    if n_items <= 0:
        return []
    n_chunks = max(1, min(backend.workers, n_items))
    quotient, remainder = divmod(n_items, n_chunks)
    chunks: list[list[int]] = []
    start = 0
    for index in range(n_chunks):
        size = quotient + (1 if index < remainder else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


class ExecutionBackend:
    """Where replications run: the base every backend extends.

    Holds the retry policy, the (optional) fault-injection plan, the
    cumulative :class:`FaultStats` accumulator and the per-backend
    dispatch counters the plan's ``(call, chunk)`` coordinates are
    resolved against.  Subclasses supply :meth:`map_chunks`; pools
    also override :attr:`workers`, :attr:`closed` and :meth:`close`.
    """

    #: Spelled-out kind (:data:`BACKEND_NAMES`), recorded in results.
    name: str
    #: Chunks that can run at once.
    workers = 1

    def __init__(
        self,
        retries: int = DEFAULT_MAX_RETRIES,
        chunk_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.retry_policy = RetryPolicy(
            max_retries=retries, chunk_timeout=chunk_timeout
        )
        #: Active fault-injection plan (explicit kwarg wins over the
        #: ``REPRO_FAULT_PLAN`` environment variable; pass an empty
        #: ``FaultPlan()`` to mask the environment).
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        #: Cumulative fault-handling record over the backend's life.
        self.fault_stats = FaultStats()
        self._supervised_calls = 0
        self._chunks_dispatched = 0
        self._degrade_warned = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran — ``run``/``map_chunks`` raise.

        Long-lived consumers that may outlive the backend they were
        built with (e.g. a :class:`~repro.sketch.RealizationBank`
        constructed inside a ``with backend:`` block) probe this to
        fall back to in-process execution instead of raising.  Serial
        execution holds no resources, so it is never closed.
        """
        return False

    def _next_supervised_call(self, n_chunks: int) -> tuple[int, int]:
        """Allocate (call index, global chunk base) for one dispatch."""
        call = self._supervised_calls
        base = self._chunks_dispatched
        self._supervised_calls += 1
        self._chunks_dispatched += n_chunks
        return call, base

    def map_chunks(self, fn, task, chunks: list[list[int]]) -> list:
        """Run ``fn(task, chunk)`` per chunk, results in chunk order."""
        raise NotImplementedError

    def run(self, task: ReplicationTask) -> ChunkResult:
        """Play every replication of ``task``, merged in replication order.

        One balanced range of the ``groups x samples`` replications per
        worker, whatever the block: a range boundary may split a group,
        since every output is per replication and gathers in index
        order (:class:`~repro.engine.replication.ChunkResult`).
        ``n_samples`` must be positive: a zero-sample "estimate" would
        silently average an empty array into NaN.
        """
        if task.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {task.n_samples}")
        n_replications = len(task.seed_groups) * task.n_samples
        return ChunkResult.merge(
            self.map_chunks(run_chunk, task, worker_chunks(n_replications, self))
        )

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialBackend(ExecutionBackend):
    """Run every chunk in the calling thread (the reference backend)."""

    name = "serial"

    def __init__(
        self,
        retries: int = DEFAULT_MAX_RETRIES,
        fault_plan: FaultPlan | None = None,
    ):
        super().__init__(retries, None, fault_plan)

    def map_chunks(self, fn, task, chunks: list[list[int]]) -> list:
        """Run ``fn(task, chunk)`` per chunk, results in chunk order.

        The generic fan-out primitive behind both Monte-Carlo
        replication (:func:`~repro.engine.replication.run_chunk`) and
        sketch construction (``repro.sketch``): any module-level
        ``fn(task, indices)`` over an index partition can be
        dispatched, and results always come back in chunk order so
        reductions stay backend-independent.

        With an active fault plan the serial supervisor wraps each
        chunk (injection + retry with backoff); without one the plain
        loop runs — an in-process exception is deterministic, so
        retrying it uninjected is pointless.
        """
        if self.fault_plan is not None:
            return supervise_serial(self, fn, task, chunks)
        return [fn(task, chunk) for chunk in chunks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class _PoolBackend(ExecutionBackend):
    """Shared executor plumbing for thread / process backends."""

    name = "pool"

    #: Cap the effective worker count at the machine's core count?
    #: Process pools do (an oversubscribed pool only adds pickling and
    #: scheduling overhead — the BENCH_v7 ``engine_scaling`` regression
    #: was ``workers=4`` on a 1-core runner); thread pools don't, since
    #: threads legitimately oversubscribe to overlap GIL-released
    #: numpy sections and blocking waits.
    cap_workers_at_cpu_count = False

    def __init__(
        self,
        workers: int | None = None,
        retries: int = DEFAULT_MAX_RETRIES,
        chunk_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(retries, chunk_timeout, fault_plan)
        #: What the caller asked for, before the CPU cap — bench
        #: context records both so scaling numbers are interpretable.
        self.requested_workers = workers
        cpu_count = os.cpu_count() or 1
        effective = workers or min(8, cpu_count)
        if self.cap_workers_at_cpu_count:
            effective = min(effective, cpu_count)
        self.workers = effective
        self._executor: concurrent.futures.Executor | None = None
        self._closed = False
        self._cleanups: list = []

    def _make_executor(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def executor(self) -> concurrent.futures.Executor:
        """The lazily-created, reused worker pool."""
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def _rebuild_pool(self, kill: bool = False) -> None:
        """Tear down a broken/hung executor; the next access respawns.

        Crucially does NOT run cleanup callbacks: shared-memory files
        must outlive the pool that broke — fresh workers re-attach the
        same handles when they unpickle the next task.  With ``kill``
        the surviving worker processes are terminated first (a hung
        pool never joins on its own; its workers may sleep forever).
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            for process in getattr(executor, "_processes", {}).values():
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def map_chunks(self, fn, task, chunks: list[list[int]]) -> list:
        """Fan ``fn(task, chunk)`` out to the pool, results in order.

        ``fn`` must be a module-level function (process pools pickle it
        by qualified name).  Dispatch is supervised (see the module
        docstring): failed/hung chunks are retried on a rebuilt pool,
        results return in chunk order either way.  A single
        chunk skips the executor — and, for process pools, the
        pickling round trip — entirely, unless a fault plan or chunk
        deadline is active (the supervisor needs the future).
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if (
            len(chunks) <= 1
            and self.fault_plan is None
            and self.retry_policy.chunk_timeout is None
        ):
            return [fn(task, chunk) for chunk in chunks]
        return supervise_map_chunks(self, fn, task, chunks)

    def add_cleanup(self, callback) -> None:
        """Register a resource-release callback for :meth:`close`.

        The shared-memory layer (:mod:`repro.engine.shm`) ties exported
        CSR blocks to the backend that ships their handles: unlinking
        must happen exactly when the pool dies — earlier and in-flight
        workers lose their files, later and the blocks leak.  Callbacks
        run after the executor has shut down (workers joined), in
        registration order; a failing callback is logged (with its
        name) and cannot block the callbacks after it or mask the
        close.  Pool *rebuilds* after a crash deliberately skip
        cleanups — only :meth:`close` releases resources.
        """
        self._cleanups.append(callback)

    def _run_cleanups(self) -> None:
        cleanups, self._cleanups = self._cleanups, []
        for callback in cleanups:
            try:
                callback()
            except Exception as exc:
                name = (
                    getattr(callback, "__qualname__", None)
                    or getattr(callback, "__name__", None)
                    or repr(callback)
                )
                try:
                    logger.warning(
                        "%s cleanup callback %s failed: %s",
                        type(self).__name__,
                        name,
                        exc,
                    )
                except Exception:  # pragma: no cover - interp shutdown
                    pass

    def close(self) -> None:
        # Terminal: further run()/executor access raises rather than
        # silently resurrecting an orphan pool nothing would close.
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._run_cleanups()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        # Safety net: an owner that never calls close() (a script that
        # builds a pool and exits without ``with``) still releases its
        # workers and shared-memory files when the backend is collected.
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._run_cleanups()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class ThreadBackend(_PoolBackend):
    """Fan chunks out to a thread pool (GIL-bound; low overhead)."""

    name = "thread"

    def _make_executor(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-engine",
        )


class ProcessPoolBackend(_PoolBackend):
    """Fan chunks out to worker processes (true parallelism).

    Requested workers beyond ``os.cpu_count()`` are capped (see
    :attr:`requested_workers` for the original ask): extra processes
    cannot run anywhere, and on a single-core host a 4-worker pool
    *lost* time to pickling (``engine_scaling`` 0.79x in BENCH_v7).
    On ``cpu_count() == 1`` the pool degenerates to one worker — the
    bank's compute paths then prefer their serial shapes outright.
    """

    name = "process"
    cap_workers_at_cpu_count = True

    def _make_executor(self) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)


#: Constructors for the spelled-out backend names (CLI / sweep specs).
BACKEND_NAMES = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessPoolBackend,
}


def make_backend(
    name: str,
    workers: int | None = None,
    retries: int = DEFAULT_MAX_RETRIES,
    chunk_timeout: float | None = None,
) -> ExecutionBackend:
    """Build the backend a spelled-out name stands for.

    Where names enter the program — the CLI's ``--backend`` flags and a
    sweep spec's ``backend`` param — this is the one step that turns
    them into a backend.  The caller owns the result and closes it
    (``with make_backend(...) as backend:``).  ``workers`` and
    ``chunk_timeout`` reach pool backends only: the serial backend runs
    every chunk in the calling thread.
    """
    try:
        factory = BACKEND_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKEND_NAMES)}"
        ) from None
    if factory is SerialBackend:
        return SerialBackend(retries=retries)
    return factory(workers=workers, retries=retries, chunk_timeout=chunk_timeout)
