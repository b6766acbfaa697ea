"""Sweep runner: fan pending runs out through an execution backend.

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec`, drops
every (config, seed) pair that already has a store row (*resume — rerun
the spec*), and fans the remaining runs out through
:meth:`ExecutionBackend.map_chunks` — one contiguous chunk per worker
(:func:`~repro.engine.backends.worker_chunks`), the same primitive the
Monte-Carlo engine and the realization bank dispatch through.  Workers
append each row to the store *as it completes* (the append is atomic,
see :mod:`repro.sweep.store`), so an interrupted sweep loses at most
the runs in flight; relaunching performs only the missing ones.

A run that raises records a **tombstone** row (status ``failed`` with
the captured traceback tail) and the sweep continues — one bad config
never crashes a campaign.  ``KeyboardInterrupt``/``SystemExit`` still
propagate: aborting a sweep is not a run failure.

Two retry layers compose here.  *Chunk-level* faults (worker death,
hangs) are handled transparently below ``map_chunks`` by the engine's
supervisor (:mod:`repro.engine.resilience`) — a crashed sweep chunk is
re-dispatched and its completed runs are superseded last-wins by the
identical re-appended rows.  *Run-level* failures (the run itself
raised and left a tombstone) are retried by ``run_sweep`` itself when
``max_retries`` allows: failed runs are re-dispatched with capped
exponential backoff, each attempt stamped into the row payload, the
fresh row superseding the tombstone.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.engine import (
    ExecutionBackend,
    SerialBackend,
    make_backend,
    worker_chunks,
)
from repro.errors import SweepError
from repro.sweep.spec import SweepSpec, canonical_json
from repro.sweep.store import (
    STATUS_FAILED,
    STATUS_OK,
    ResultRow,
    ResultStore,
)

__all__ = ["SweepReport", "execute_run", "run_sweep"]

#: Ceiling on the run-level retry backoff (seconds): attempt ``k``
#: sleeps ``min(retry_backoff * 2**(k-1), RETRY_BACKOFF_CAP)``.
RETRY_BACKOFF_CAP = 30.0

#: Algorithm name reserved for dataset-statistics runs (Tables 2-3):
#: the payload is the Table-II row plus structural counts, no seeding
#: algorithm is invoked.
STATS_ALGORITHM = "stats"

#: Bounded memo of built dataset instances, keyed by the canonical
#: dataset-parameter JSON.  Sweeps revisit the same instance for every
#: algorithm/axis point; rebuilding it per run would dominate small
#: campaigns.  Per-process (workers each hold their own).
_INSTANCE_CACHE: OrderedDict[str, object] = OrderedDict()
_INSTANCE_CACHE_LIMIT = 32

#: Keys of ``params`` that select/shape the dataset instance.  They are
#: split off before algorithm keywords are derived, and they key the
#: instance memo.
_DATASET_KEYS = (
    "dataset",
    "scale",
    "budget",
    "n_promotions",
    "cost_scale",
    "dataset_kwargs",
)


def _build_instance(dataset_params: dict):
    from repro.data import build_course_classes, load_dataset

    params = dict(dataset_params)
    name = params.pop("dataset")
    extra = params.pop("dataset_kwargs", {})
    if name.startswith("courses/"):
        class_id = name.split("/", 1)[1]
        builder_kwargs = {}
        if "budget" in params:
            builder_kwargs["budget"] = params.pop("budget")
        if "n_promotions" in params:
            builder_kwargs["n_promotions"] = params.pop("n_promotions")
        leftovers = {k: v for k, v in params.items() if v is not None}
        if leftovers or extra:
            raise SweepError(
                f"course dataset {name!r} does not accept "
                f"{sorted(leftovers) + sorted(extra)}"
            )
        classes = build_course_classes(**builder_kwargs)
        try:
            return classes[class_id]
        except KeyError:
            raise SweepError(
                f"unknown course class {class_id!r}; "
                f"available: {sorted(classes)}"
            ) from None
    overrides = {k: v for k, v in params.items() if v is not None}
    scale = overrides.pop("scale", 1.0)
    return load_dataset(name, scale=scale, **overrides, **extra)


def _instance_for(params: dict):
    dataset_params = {
        key: params[key] for key in _DATASET_KEYS if key in params
    }
    key = canonical_json(dataset_params)
    if key in _INSTANCE_CACHE:
        _INSTANCE_CACHE.move_to_end(key)
        return _INSTANCE_CACHE[key]
    instance = _build_instance(dataset_params)
    _INSTANCE_CACHE[key] = instance
    while len(_INSTANCE_CACHE) > _INSTANCE_CACHE_LIMIT:
        _INSTANCE_CACHE.popitem(last=False)
    return instance


def _jsonable(value):
    """Best-effort JSON projection for free-form diagnostics."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonable(item())
    return str(value)


def _stats_payload(instance) -> dict:
    from repro.data import dataset_statistics

    return {
        "stats": _jsonable(dataset_statistics(instance)),
        "n_users": int(instance.n_users),
        "n_items": int(instance.n_items),
        "n_arcs": int(instance.network.n_arcs),
    }


def _algorithm_payload(params: dict, seed: int) -> dict:
    from repro.eval.harness import evaluate_group, run_algorithm

    instance = _instance_for(params)
    algorithm = params["algorithm"]
    kwargs = dict(params.get("algorithm_kwargs", {}))
    if params.get("oracle") is not None:
        kwargs["oracle"] = params["oracle"]
    n_samples = params.get("n_samples", 10)
    eval_samples = params.get("eval_samples", 0)

    # Each run owns its backend (the spec's pinned one, else serial)
    # and closes it before the row is returned: no pool outlives it.
    with make_backend(
        params.get("backend") or "serial", params.get("workers")
    ) as backend:
        result = run_algorithm(
            algorithm,
            instance,
            n_samples=n_samples,
            seed=seed,
            backend=backend,
            **kwargs,
        )
    if eval_samples:
        sigma = evaluate_group(
            instance, result.seed_group, n_samples=eval_samples
        )
    else:
        sigma = result.sigma
    return {
        "sigma": float(sigma),
        "sigma_internal": float(result.sigma),
        "runtime_seconds": float(result.runtime_seconds),
        "n_seeds": len(result.seed_group),
        "n_users": int(instance.n_users),
        "diagnostics": _jsonable(result.diagnostics),
    }


def execute_run(spec_name: str, params: dict, seed: int) -> ResultRow:
    """Execute one (config, seed) run; failures become tombstones."""
    from repro.sweep.spec import RunConfig

    config = RunConfig(spec_name, params)
    started = time.perf_counter()
    try:
        if config.params.get("algorithm") == STATS_ALGORITHM:
            payload = _stats_payload(_instance_for(config.params))
        else:
            payload = _algorithm_payload(config.params, seed)
        payload["elapsed_seconds"] = time.perf_counter() - started
        # Lift the backend's fault accounting (surfaced through the
        # harness diagnostics) into the row's dedicated column, so the
        # store records whether a committed result survived recoveries.
        diagnostics = payload.get("diagnostics")
        fault_stats = None
        if isinstance(diagnostics, dict):
            fault_stats = diagnostics.get("fault_stats") or None
        return ResultRow(
            spec=spec_name,
            config_hash=config.config_hash,
            seed=seed,
            status=STATUS_OK,
            params=config.params,
            payload=payload,
            fault_stats=fault_stats,
        )
    except Exception as exc:
        tail = traceback.format_exc(limit=5)
        return ResultRow(
            spec=spec_name,
            config_hash=config.config_hash,
            seed=seed,
            status=STATUS_FAILED,
            params=config.params,
            payload={"elapsed_seconds": time.perf_counter() - started},
            error=f"{type(exc).__name__}: {exc}\n{tail}",
        )


@dataclass(frozen=True)
class SweepTask:
    """Picklable chunk payload handed to ``map_chunks`` workers."""

    store_root: str
    spec_name: str
    runs: tuple  # of (params-dict, seed) pairs
    #: Run-level retry round these runs belong to (0 = first try);
    #: stamped into each row payload so the store's trajectory shows
    #: which attempt produced the surviving row.
    attempt: int = 0


def _run_chunk(task: SweepTask, indices: list[int]) -> list[dict]:
    """Worker body: execute runs, append each row as it completes."""
    store = ResultStore(task.store_root)
    out = []
    for index in indices:
        params, seed = task.runs[index]
        row = execute_run(task.spec_name, params, seed)
        row.payload["attempt"] = task.attempt
        store.append(row)
        out.append({"key": list(row.key), "status": row.status})
    return out


@dataclass
class SweepReport:
    """Outcome of one ``run_sweep`` invocation."""

    spec: str
    n_total: int
    n_skipped: int
    n_ok: int
    n_failed: int
    #: Run-level retry dispatches performed (0 unless ``max_retries``
    #: was given and some runs tombstoned on their first attempt).
    n_retried: int = 0

    @property
    def n_ran(self) -> int:
        return self.n_ok + self.n_failed

    def summary(self) -> str:
        retried = (
            f", {self.n_retried} retried" if self.n_retried else ""
        )
        return (
            f"{self.spec}: {self.n_total} runs — "
            f"{self.n_skipped} already stored, {self.n_ok} ran ok, "
            f"{self.n_failed} failed{retried}"
        )


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    backend: ExecutionBackend | None = None,
    retry_failed: bool = False,
    max_retries: int = 0,
    retry_backoff: float = 0.5,
    log: Callable[[str], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> SweepReport:
    """Run every pending (config, seed) pair of ``spec`` into ``store``.

    Resume semantics: pairs with a surviving store row are skipped —
    ``retry_failed=True`` additionally re-runs tombstoned pairs (the
    fresh row supersedes the tombstone last-wins).  ``max_retries``
    re-dispatches runs that tombstone *within this invocation* up to
    that many more times, sleeping a capped exponential backoff
    (``retry_backoff * 2**(k-1)``, at most :data:`RETRY_BACKOFF_CAP`)
    before each round — every attempt appends a row, so the store
    trajectory keeps each tombstone the surviving row superseded.
    Runs fan out through ``backend``, which is borrowed (``None`` = a
    private serial backend).  Returns a report; the rows themselves
    live in the store.
    """
    if max_retries < 0:
        raise SweepError(f"max_retries must be >= 0, got {max_retries}")
    backend = backend if backend is not None else SerialBackend()
    keys = spec.run_keys()
    present = store.keys(spec.name)
    pending = []
    for config, seed in keys:
        status = present.get((config.config_hash, seed))
        if status is None or (retry_failed and status == STATUS_FAILED):
            pending.append((config.params, seed))
    if log is not None:
        log(
            f"sweep {spec.name}: {len(keys)} runs declared, "
            f"{len(keys) - len(pending)} stored, {len(pending)} pending"
        )
    if not pending:
        return SweepReport(
            spec=spec.name,
            n_total=len(keys),
            n_skipped=len(keys),
            n_ok=0,
            n_failed=0,
        )

    def dispatch(runs: list, attempt: int) -> list[dict]:
        task = SweepTask(
            store_root=str(store.root),
            spec_name=spec.name,
            runs=tuple(runs),
            attempt=attempt,
        )
        chunks = worker_chunks(len(runs), backend)
        results = backend.map_chunks(_run_chunk, task, chunks)
        # Chunks are contiguous index ranges and come back in chunk
        # order, so the flattened outcomes align with ``runs``.
        return [entry for chunk in results for entry in chunk]

    statuses = [None] * len(pending)
    current = list(range(len(pending)))
    attempt = 0
    n_retried = 0
    while True:
        outcomes = dispatch([pending[i] for i in current], attempt)
        for index, outcome in zip(current, outcomes):
            statuses[index] = outcome["status"]
        failed = [i for i in current if statuses[i] != STATUS_OK]
        if not failed or attempt >= max_retries:
            break
        attempt += 1
        n_retried += len(failed)
        if retry_backoff > 0:
            sleep(min(retry_backoff * 2 ** (attempt - 1), RETRY_BACKOFF_CAP))
        if log is not None:
            log(
                f"sweep {spec.name}: retrying {len(failed)} failed "
                f"runs (attempt {attempt}/{max_retries})"
            )
        current = failed
    n_failed = sum(1 for status in statuses if status != STATUS_OK)
    report = SweepReport(
        spec=spec.name,
        n_total=len(keys),
        n_skipped=len(keys) - len(pending),
        n_ok=len(pending) - n_failed,
        n_failed=n_failed,
        n_retried=n_retried,
    )
    if log is not None:
        log(report.summary())
    return report
