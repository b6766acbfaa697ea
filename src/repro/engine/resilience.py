"""Fault-tolerant chunk execution: supervised retry with CRN-exact recovery.

Every pool-backed ``map_chunks``/``run`` call routes through
:func:`supervise_map_chunks`: chunks are dispatched as individual
futures, and the supervisor detects the three failure modes a
long-lived campaign service must survive —

* **worker death** (``BrokenProcessPool``/``BrokenThreadPool``: OOM
  kill, segfault, hard ``os._exit``),
* **per-chunk exceptions** (a chunk body that raises), and
* **hung chunks** (a configurable per-dispatch deadline,
  ``RetryPolicy.chunk_timeout``).

Recovery is *exact*, not best-effort: the engine's canonical chunking
plus common random numbers (``repro.engine.replication``) make every
chunk a pure function of ``(task, chunk)`` — sample ``i`` replays the
substream ``spawn_rng(seed, *context, i)`` no matter which worker, or
which *attempt*, runs it.  The supervisor therefore re-dispatches only
the failed/unfinished chunks (rebuilding the pool first when it broke
or hung, with capped exponential backoff between rounds) and slots the
results back at their canonical chunk positions, so merged outputs —
sigma estimates, bank stacks, RR indexes, sweep rows — are
bit-identical to a fault-free run.  Shared-memory exports
(:mod:`repro.engine.shm`) survive rebuilds untouched: the parent owns
the files, and fresh workers re-attach them on the first task
unpickle; unlinking still happens only at ``backend.close()``.

When a chunk exhausts its retries at the pool level, execution
degrades down a ladder — process pool -> in-parent thread (still
deadline-supervised) -> plain serial call — with a one-time
``RuntimeWarning`` per backend.  Only the serial rung lets
exceptions propagate: a fault that survives every level is a real bug,
not an infrastructure hiccup.

Deterministic fault injection
-----------------------------
:class:`FaultPlan` describes *when* to inject *what*: explicit
``(call, chunk)`` coordinates (:class:`FaultSpec`), an
``every_nth_chunk`` modulo rule, or a seeded per-chunk probability
(``rate``) — all decided parent-side per dispatch attempt, so plans
are deterministic across runs and backends.  Plans serialize to JSON
and activate through the ``fault_plan=`` backend kwarg or the
``REPRO_FAULT_PLAN`` environment variable (inline JSON or a file
path), which is how the CI chaos leg runs whole suites with every Nth
chunk crashing once.  Injection happens *before* the chunk body runs,
so a faulted attempt performs no partial work.

Every recovery is accounted in a :class:`FaultStats` record (retries,
pool rebuilds, degradations, wall-clock lost) surfaced on
``ChunkResult``/``DysimResult``, harness diagnostics and sweep store
rows.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import os
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "InjectedFault",
    "InjectedWorkerCrash",
    "RetryPolicy",
    "supervise_map_chunks",
    "supervise_serial",
]

logger = logging.getLogger(__name__)

#: Re-dispatches allowed per chunk per ladder level before degrading
#: (total attempts per level = retries + 1).  Overridable per backend
#: (``retries=``, which the CLI's ``--retries`` sets).
DEFAULT_MAX_RETRIES = 2

#: Exit code an injected crash kills the worker process with — chosen
#: to be recognizable in pool post-mortems.
CRASH_EXIT_CODE = 86

#: The degradation ladder, in order.  ``""`` is the healthy pool level.
DEGRADATION_LADDER = ("", "thread", "serial")

_FAULT_KINDS = ("crash", "exception", "hang")


class InjectedFault(RuntimeError):
    """An exception deliberately raised by a :class:`FaultPlan`."""


class InjectedWorkerCrash(InjectedFault):
    """A planned worker crash, simulated in-process.

    Raised instead of ``os._exit`` when the faulted attempt runs in
    the parent process (serial backends, thread pools, the thread rung
    of the degradation ladder) — killing the parent would end the test
    session, not simulate a worker loss.
    """


# ---------------------------------------------------------------------------
# Accounting


@dataclass
class FaultStats:
    """What the supervisor had to do to complete the calls it saw.

    Mutable and cumulative: each backend owns one instance and merges
    every supervised call into it.  Per-run deltas (``DysimResult``,
    ``ChunkResult``) are taken with :meth:`copy` + :meth:`delta`.
    """

    #: Chunk re-dispatches (one per failed chunk per retry round).
    retries: int = 0
    #: Chunks lost to worker death (broken pool or injected crash).
    crashed_chunks: int = 0
    #: Chunks that exceeded the per-dispatch deadline.
    hung_chunks: int = 0
    #: Chunks whose body raised an ordinary exception.
    chunk_errors: int = 0
    #: Times a broken/hung worker pool was torn down and respawned.
    pool_rebuilds: int = 0
    #: Times the degradation ladder engaged (retries exhausted).
    degradations: int = 0
    #: Lowest ladder level ever used ("" = never degraded).
    degraded_to: str = ""
    #: Approximate wall-clock spent on failed rounds and backoff.
    wall_seconds_lost: float = 0.0

    @property
    def total_faults(self) -> int:
        return self.crashed_chunks + self.hung_chunks + self.chunk_errors

    @property
    def activity(self) -> bool:
        """Did any fault handling happen at all?"""
        return bool(
            self.total_faults
            or self.retries
            or self.pool_rebuilds
            or self.degradations
        )

    def note_degraded(self, level: str) -> None:
        """Record a ladder step (keeps the lowest level reached)."""
        self.degradations += 1
        if DEGRADATION_LADDER.index(level) > DEGRADATION_LADDER.index(
            self.degraded_to
        ):
            self.degraded_to = level

    def copy(self) -> "FaultStats":
        return replace(self)

    def delta(self, since: "FaultStats | None") -> "FaultStats":
        """The activity recorded after the ``since`` snapshot."""
        if since is None:
            return self.copy()
        return FaultStats(
            retries=self.retries - since.retries,
            crashed_chunks=self.crashed_chunks - since.crashed_chunks,
            hung_chunks=self.hung_chunks - since.hung_chunks,
            chunk_errors=self.chunk_errors - since.chunk_errors,
            pool_rebuilds=self.pool_rebuilds - since.pool_rebuilds,
            degradations=self.degradations - since.degradations,
            degraded_to=(
                self.degraded_to
                if self.degradations > since.degradations
                else ""
            ),
            wall_seconds_lost=(
                self.wall_seconds_lost - since.wall_seconds_lost
            ),
        )

    def combine(self, other: "FaultStats") -> "FaultStats":
        """Sum of two records (for merging chunk-level attachments)."""
        merged = FaultStats(
            retries=self.retries + other.retries,
            crashed_chunks=self.crashed_chunks + other.crashed_chunks,
            hung_chunks=self.hung_chunks + other.hung_chunks,
            chunk_errors=self.chunk_errors + other.chunk_errors,
            pool_rebuilds=self.pool_rebuilds + other.pool_rebuilds,
            degradations=self.degradations + other.degradations,
            degraded_to=self.degraded_to,
            wall_seconds_lost=(
                self.wall_seconds_lost + other.wall_seconds_lost
            ),
        )
        if DEGRADATION_LADDER.index(other.degraded_to) > (
            DEGRADATION_LADDER.index(merged.degraded_to)
        ):
            merged.degraded_to = other.degraded_to
        return merged

    def as_dict(self) -> dict:
        """JSON-ready projection (diagnostics / sweep store rows)."""
        data = asdict(self)
        data["wall_seconds_lost"] = round(self.wall_seconds_lost, 4)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultStats":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# Policy


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/deadline/backoff knobs of one backend's supervisor."""

    #: Re-dispatches allowed per chunk per ladder level.
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Seconds a dispatched cohort may run before unfinished chunks are
    #: declared hung (None = no deadline; hang detection off).
    chunk_timeout: float | None = None
    #: Backoff before retry round ``k`` is ``min(cap, base * factor**k)``.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )

    def backoff_delay(self, round_no: int) -> float:
        if self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor**round_no,
        )


# ---------------------------------------------------------------------------
# Fault plans


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at explicit coordinates.

    ``call`` is the backend's supervised-call index (``None`` = any
    call), ``chunk`` the chunk index within the call.  The fault fires
    on the first ``times`` dispatch attempts of that chunk (``-1`` =
    every attempt — survives all retries, for exercising the ladder).
    """

    kind: str
    chunk: int
    call: int | None = None
    times: int = 1

    def __post_init__(self):
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {_FAULT_KINDS}"
            )

    def matches(self, call: int, chunk: int, attempt: int) -> bool:
        if self.chunk != chunk:
            return False
        if self.call is not None and self.call != call:
            return False
        return self.times < 0 or attempt < self.times


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection schedule (serializable, seeded).

    Three trigger families, all decided in the parent per dispatch so
    the schedule is independent of worker scheduling:

    * ``faults`` — explicit :class:`FaultSpec` coordinates;
    * ``every_nth_chunk`` — every Nth chunk the backend ever
      dispatches gets one ``every_kind`` fault on its first attempt
      (the CI chaos leg's knob);
    * ``rate`` — each (call, chunk) independently faults on its first
      attempt with this probability, drawn from
      ``default_rng((seed, call, chunk))`` so the schedule is
      reproducible for a fixed seed.

    ``hang_seconds`` is how long an injected hang sleeps before the
    chunk proceeds normally — pair it with a smaller
    ``chunk_timeout`` to exercise hung-chunk recovery, or leave the
    deadline off to model a slow straggler.
    """

    faults: tuple[FaultSpec, ...] = ()
    every_nth_chunk: int | None = None
    every_kind: str = "crash"
    rate: float = 0.0
    seed: int = 0
    hang_seconds: float = 2.0

    def __post_init__(self):
        if self.every_kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.every_kind!r}; "
                f"expected one of {_FAULT_KINDS}"
            )
        if self.every_nth_chunk is not None and self.every_nth_chunk < 1:
            raise ValueError(
                f"every_nth_chunk must be >= 1, "
                f"got {self.every_nth_chunk}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def fault_for(
        self, call: int, chunk: int, global_chunk: int, attempt: int
    ) -> str | None:
        """The fault kind to inject for this dispatch, if any."""
        for spec in self.faults:
            if spec.matches(call, chunk, attempt):
                return spec.kind
        if attempt == 0:
            if (
                self.every_nth_chunk
                and (global_chunk + 1) % self.every_nth_chunk == 0
            ):
                return self.every_kind
            if self.rate > 0:
                draw = np.random.default_rng(
                    (self.seed, call, chunk)
                ).random()
                if draw < self.rate:
                    return self.every_kind
        return None

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        data = asdict(self)
        data["faults"] = [asdict(spec) for spec in self.faults]
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        faults = tuple(
            FaultSpec(**spec) for spec in data.get("faults", ())
        )
        known = {f for f in cls.__dataclass_fields__} - {"faults"}
        kwargs = {k: v for k, v in data.items() if k in known}
        return cls(faults=faults, **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"invalid fault plan JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan ``REPRO_FAULT_PLAN`` declares, if any.

        Inline JSON (starts with ``{``) or a path to a JSON file.
        """
        raw = os.environ.get("REPRO_FAULT_PLAN", "").strip()
        if not raw:
            return None
        if not raw.startswith("{"):
            with open(raw, "r", encoding="utf-8") as handle:
                raw = handle.read()
        return cls.from_json(raw)


# ---------------------------------------------------------------------------
# Worker-side injection


@dataclass(frozen=True)
class _ChunkCall:
    """Picklable dispatch envelope: the chunk fn plus its planned fault."""

    fn: object
    fault_kind: str | None
    hang_seconds: float
    parent_pid: int


def _trigger_fault(
    kind: str, hang_seconds: float, parent_pid: int
) -> None:
    if kind == "hang":
        # A stall, not a loss: the chunk proceeds normally afterwards.
        # With a chunk_timeout the parent declares it hung and
        # re-dispatches; without one it is just a slow chunk.
        time.sleep(hang_seconds)
        return
    if kind == "crash":
        if os.getpid() != parent_pid:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash(
            "planned worker crash (simulated in-process)"
        )
    raise InjectedFault("planned chunk exception")


def _resilient_chunk(call: _ChunkCall, task, chunk):
    """The function every supervised dispatch actually runs.

    Module-level so process pools can pickle it by qualified name;
    injection happens before the chunk body, so a faulted attempt
    performs no partial work (important for chunk bodies with side
    effects, e.g. sweep workers appending result rows).
    """
    if call.fault_kind is not None:
        _trigger_fault(call.fault_kind, call.hang_seconds, call.parent_pid)
    return call.fn(task, chunk)


# ---------------------------------------------------------------------------
# The supervisor


@dataclass
class _ChunkState:
    index: int
    chunk: object
    attempts: int = 0
    done: bool = False


def _warn_degraded(backend, level: str, reason: str) -> None:
    """One-time RuntimeWarning per backend."""
    if backend._degrade_warned:
        return
    backend._degrade_warned = True
    warnings.warn(
        f"{type(backend).__name__}: chunk retries exhausted ({reason}); "
        f"degrading failed chunks to {level} execution. Results remain "
        f"bit-identical — only where they run changes.",
        RuntimeWarning,
        stacklevel=4,
    )


def _plan_fault(plan, call_index, st, base):
    if plan is None:
        return None
    return plan.fault_for(
        call_index, st.index, base + st.index, st.attempts
    )


def _run_pool_round(
    backend, fn, task, cohort, plan, call_index, base, stats, results
):
    """Dispatch one cohort to the pool; classify what came back.

    Returns ``(failed_states, pool_broken, pool_hung)``.
    """
    policy = backend.retry_policy
    started = time.monotonic()
    futures: dict = {}
    failed: list[_ChunkState] = []
    broken = False
    hung = False
    for st in cohort:
        kind = _plan_fault(plan, call_index, st, base)
        call = _ChunkCall(
            fn=fn,
            fault_kind=kind,
            hang_seconds=plan.hang_seconds if plan is not None else 0.0,
            parent_pid=os.getpid(),
        )
        st.attempts += 1
        try:
            future = backend.executor.submit(
                _resilient_chunk, call, task, st.chunk
            )
        except BrokenExecutor:
            # The pool died between calls (e.g. externally killed
            # worker): everything in this cohort needs a fresh pool.
            broken = True
            stats.crashed_chunks += 1
            failed.append(st)
            continue
        futures[future] = st
    pending = set(futures)
    deadline = (
        None
        if policy.chunk_timeout is None
        else started + policy.chunk_timeout
    )
    while pending:
        if deadline is not None and time.monotonic() >= deadline:
            hung = True
            break
        timeout = (
            None
            if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        done, pending = concurrent.futures.wait(pending, timeout=timeout)
        for future in done:
            st = futures[future]
            try:
                results[st.index] = future.result()
                st.done = True
            except BrokenExecutor:
                broken = True
                stats.crashed_chunks += 1
                failed.append(st)
            except InjectedWorkerCrash:
                stats.crashed_chunks += 1
                failed.append(st)
            except Exception:
                stats.chunk_errors += 1
                failed.append(st)
        if broken:
            break
    # Whatever is still pending was lost with the pool or blew the
    # deadline; the chunks are simply abandoned here and re-dispatched
    # on the rebuilt pool.  Do NOT cancel the futures from this thread:
    # a broken ProcessPoolExecutor's management thread set_exception()s
    # the same futures in terminate_broken(), and hitting one we
    # already cancelled raises InvalidStateError there — which kills
    # that thread before it releases the executor's queue threads and
    # then deadlocks interpreter shutdown.  The coordinated
    # shutdown(cancel_futures=True) in _rebuild_pool cancels safely.
    for future in pending:
        st = futures[future]
        if broken:
            stats.crashed_chunks += 1
        else:
            stats.hung_chunks += 1
        failed.append(st)
    if failed:
        stats.wall_seconds_lost += time.monotonic() - started
    return failed, broken, hung


def _run_thread_rung(
    backend, fn, task, st, plan, call_index, base, stats
):
    """Retry one exhausted chunk in an in-parent supervised thread.

    Returns True when the chunk completed (result stored by the
    caller via ``st``); False when this rung is exhausted too.
    """
    policy = backend.retry_policy
    for round_no in range(policy.max_retries + 1):
        kind = _plan_fault(plan, call_index, st, base)
        st.attempts += 1
        box: dict = {}

        def body(kind=kind):
            try:
                if kind is not None:
                    _trigger_fault(
                        kind,
                        plan.hang_seconds if plan is not None else 0.0,
                        os.getpid(),
                    )
                box["result"] = fn(task, st.chunk)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box["error"] = exc

        started = time.monotonic()
        thread = threading.Thread(
            target=body, daemon=True, name="repro-degraded"
        )
        thread.start()
        thread.join(policy.chunk_timeout)
        if thread.is_alive():
            stats.hung_chunks += 1
            stats.wall_seconds_lost += time.monotonic() - started
        else:
            error = box.get("error")
            if error is None:
                st.result = box["result"]
                st.done = True
                return True
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise error
            if isinstance(error, InjectedWorkerCrash):
                stats.crashed_chunks += 1
            else:
                stats.chunk_errors += 1
            stats.wall_seconds_lost += time.monotonic() - started
        if round_no < policy.max_retries:
            stats.retries += 1
            delay = policy.backoff_delay(round_no)
            if delay > 0:
                time.sleep(delay)
                stats.wall_seconds_lost += delay
    return False


def _run_degraded(
    backend, fn, task, states, plan, call_index, base, stats, results
):
    """Walk exhausted chunks down the ladder: thread, then serial."""
    _warn_degraded(backend, "thread", "pool-level retries exhausted")
    stats.note_degraded("thread")
    serial_states = []
    for st in states:
        if _run_thread_rung(
            backend, fn, task, st, plan, call_index, base, stats
        ):
            results[st.index] = st.result
        else:
            serial_states.append(st)
    if not serial_states:
        return
    stats.note_degraded("serial")
    for st in serial_states:
        # The ladder's bottom: no supervision, exceptions propagate —
        # a fault that survives process, thread AND serial execution
        # is a real bug, not an infrastructure hiccup.
        kind = _plan_fault(plan, call_index, st, base)
        st.attempts += 1
        if kind is not None:
            _trigger_fault(
                kind,
                plan.hang_seconds if plan is not None else 0.0,
                os.getpid(),
            )
        results[st.index] = fn(task, st.chunk)
        st.done = True


def supervise_map_chunks(backend, fn, task, chunks) -> list:
    """Run ``fn(task, chunk)`` per chunk under supervision.

    The drop-in body of a pool backend's ``map_chunks``: results come
    back in canonical chunk order exactly as the unsupervised path
    produced them, no matter how many retries, pool rebuilds or ladder
    degradations happened along the way.
    """
    policy = backend.retry_policy
    plan = backend.fault_plan
    stats = backend.fault_stats
    call_index, base = backend._next_supervised_call(len(chunks))
    results: list = [None] * len(chunks)
    states = [_ChunkState(i, chunk) for i, chunk in enumerate(chunks)]
    cohort = states
    exhausted: list[_ChunkState] = []
    round_no = 0
    while cohort:
        failed, broken, hung = _run_pool_round(
            backend, fn, task, cohort, plan, call_index, base, stats,
            results,
        )
        if broken or hung:
            stats.pool_rebuilds += 1
            backend._rebuild_pool(kill=hung)
        if not failed:
            break
        retry = [st for st in failed if st.attempts <= policy.max_retries]
        exhausted.extend(
            st for st in failed if st.attempts > policy.max_retries
        )
        if retry:
            stats.retries += len(retry)
            delay = policy.backoff_delay(round_no)
            if delay > 0:
                time.sleep(delay)
                stats.wall_seconds_lost += delay
        cohort = retry
        round_no += 1
    if exhausted:
        _run_degraded(
            backend, fn, task, exhausted, plan, call_index, base, stats,
            results,
        )
    return results


def supervise_serial(backend, fn, task, chunks) -> list:
    """Serial sibling of :func:`supervise_map_chunks`.

    Engaged only when a fault plan is active (an in-process exception
    is deterministic — retrying it without injection is pointless).
    Serial execution is already the ladder's bottom, so exhausted
    retries re-raise instead of degrading further.
    """
    policy = backend.retry_policy
    plan = backend.fault_plan
    stats = backend.fault_stats
    call_index, base = backend._next_supervised_call(len(chunks))
    results = []
    for index, chunk in enumerate(chunks):
        attempts = 0
        while True:
            kind = (
                plan.fault_for(call_index, index, base + index, attempts)
                if plan is not None
                else None
            )
            attempts += 1
            started = time.monotonic()
            try:
                if kind is not None:
                    _trigger_fault(kind, plan.hang_seconds, os.getpid())
                results.append(fn(task, chunk))
                break
            except InjectedWorkerCrash:
                stats.crashed_chunks += 1
                stats.wall_seconds_lost += time.monotonic() - started
                if attempts > policy.max_retries:
                    raise
            except Exception:
                stats.chunk_errors += 1
                stats.wall_seconds_lost += time.monotonic() - started
                if attempts > policy.max_retries:
                    raise
            stats.retries += 1
            delay = policy.backoff_delay(attempts - 1)
            if delay > 0:
                time.sleep(delay)
                stats.wall_seconds_lost += delay
    return results
