"""Declarative experiment campaigns with a resumable result store.

The SEM-style sweep layer (ROADMAP item 3): declare a parameter space
once (:class:`SweepSpec` — dataset x budget x promotions x theta x
oracle x backend axes with filters and pinned
seed-streams), expand it into content-hashed :class:`RunConfig` runs,
fan the pending ones out through
:meth:`~repro.engine.backends.ExecutionBackend.map_chunks`
(:func:`run_sweep`), persist one row per (config, seed) in an
append-only JSON-lines :class:`ResultStore`, and regenerate any paper
figure/table txt artifact from the store alone
(:func:`~repro.sweep.render.render_spec`).  Killing a sweep and
rerunning the spec resumes it; failed runs leave tombstone rows, never
a crashed campaign.  The scaling benchmarks additionally append to a
``bench`` trajectory that :func:`~repro.sweep.bench.emit_bench`
snapshots into ``BENCH_v<N>.json`` for CI regression gating.

CLI: ``repro sweep run|status|render|bench`` (see ``repro.cli``).
"""

from repro.sweep.bench import (
    BENCH_SPEC,
    BENCH_VERSION,
    TRACKED_SERIES,
    emit_bench,
    load_bench,
    record_bench_series,
)
from repro.sweep.render import render_spec, write_artifacts
from repro.sweep.runner import SweepReport, execute_run, run_sweep
from repro.sweep.spec import (
    SCHEMA_VERSION,
    RunConfig,
    SweepSpec,
    canonical_json,
    canonical_params,
    config_hash,
)
from repro.sweep.specs import (
    SampleScale,
    build_specs,
    get_spec,
    scale_from_env,
    spec_for_artifact,
    spec_names,
)
from repro.sweep.store import ResultRow, ResultStore, StoreStatus

__all__ = [
    "BENCH_SPEC",
    "BENCH_VERSION",
    "RunConfig",
    "ResultRow",
    "ResultStore",
    "SCHEMA_VERSION",
    "SampleScale",
    "StoreStatus",
    "SweepReport",
    "SweepSpec",
    "TRACKED_SERIES",
    "build_specs",
    "canonical_json",
    "canonical_params",
    "config_hash",
    "emit_bench",
    "execute_run",
    "get_spec",
    "load_bench",
    "record_bench_series",
    "render_spec",
    "run_sweep",
    "scale_from_env",
    "spec_for_artifact",
    "spec_names",
    "write_artifacts",
]
