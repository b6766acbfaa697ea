"""Shared benchmark plumbing.

The figure/table benchmarks are thin *spec + render* pairs over
``repro.sweep``: each test resolves its declarative
:class:`~repro.sweep.SweepSpec` (:func:`run_spec`), runs whatever
``(config, seed)`` runs the canonical store under
``benchmarks/results/store/`` does not yet hold — on a fully populated
checkout that is a pure resume hit, zero new runs — and regenerates its
txt artifact from the store (:func:`render_figures`).  Shape assertions
read the stored rows, not ad-hoc return values, so ``repro sweep
run/render`` and the benchmarks can never drift apart.

CI smoke (``REPRO_BENCH_SMOKE=1`` plus the ``REPRO_BENCH_*_SAMPLES``
overrides) lowers the replication counts; those counts participate in
the config hash, so smoke rows are computed fresh and coexist with the
committed full-scale rows instead of superseding them.

The scaling benchmarks additionally append to the ``bench`` perf
trajectory (:func:`record_bench`), which ``repro sweep bench``
snapshots into ``BENCH_v9.json`` for the CI regression gate.  Their
timing tables and bench rows land in the committed tree only under
``REPRO_BENCH_RECORD=1`` (CI's benchmark-smoke job sets it); otherwise
they go to a temporary directory, so a plain run leaves the tree clean.
"""

from __future__ import annotations

import atexit
import os
import pathlib
import shutil
import tempfile

import pytest

from repro.data import load_dataset
from repro.sweep import (
    ResultStore,
    get_spec,
    record_bench_series,
    render_spec,
    run_sweep,
    scale_from_env,
)
from repro.sweep.render import _rows_for
from repro.sweep.specs import FIG9_SCALES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The canonical committed result store (one jsonl per spec).
STORE = ResultStore(RESULTS_DIR / "store")

#: Replication counts with CI smoke overrides applied; part of every
#: run's config hash (see repro.sweep.specs).
SCALE = scale_from_env()


def _env_int(name: str, default: int) -> int:
    """Replication-count override from the environment (CI smoke)."""
    value = os.environ.get(name)
    return int(value) if value else default


#: CI smoke mode: reduced replication counts make the Monte-Carlo
#: estimates noisier, so figure-shape assertions are relaxed to sanity
#: checks; the series are still recorded and uploaded as artifacts.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Write the scaling benchmarks' tables and bench rows into results/.
RECORD = os.environ.get("REPRO_BENCH_RECORD", "") not in ("", "0")

_scratch_dir: pathlib.Path | None = None


def _record_dir() -> pathlib.Path:
    """results/ under RECORD, else a temp dir removed at exit."""
    global _scratch_dir
    if RECORD:
        return RESULTS_DIR
    if _scratch_dir is None:
        _scratch_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-"))
        atexit.register(shutil.rmtree, _scratch_dir, ignore_errors=True)
    return _scratch_dir


def _write_artifact(directory: pathlib.Path, name: str, text: str) -> None:
    """Print a series and persist it as ``<directory>/<name>.txt``."""
    directory.mkdir(exist_ok=True)
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    (directory / f"{name}.txt").write_text(text + "\n")


def record_figure(name: str, text: str) -> None:
    """Print a scaling benchmark's table and persist it (see RECORD)."""
    _write_artifact(_record_dir(), name, text)


def run_spec(name: str):
    """Run a builtin spec's pending runs (resume-aware).

    Returns ``(spec, rows)`` with the ok-rows in canonical expansion
    order; fails the benchmark if any run tombstoned.
    """
    spec = get_spec(name, SCALE)
    report = run_sweep(spec, STORE)
    assert report.n_failed == 0, report.summary()
    return spec, _rows_for(spec, STORE)


def render_figures(spec) -> None:
    """Regenerate the spec's txt artifacts from the store."""
    for artifact, text in render_spec(spec, STORE).items():
        _write_artifact(RESULTS_DIR, artifact, text)


def series(rows, algorithm: str, x_key: str) -> dict:
    """``{params[x_key]: sigma}`` for one algorithm's stored rows."""
    return {
        row.params[x_key]: row.payload["sigma"]
        for row in rows
        if row.params["algorithm"] == algorithm
    }


def record_bench(series_name: str, value_ms: float, speedup: float,
                 **context) -> None:
    """Append one scaling measurement to the bench trajectory (see RECORD)."""
    record_bench_series(
        ResultStore(_record_dir() / "store"), series_name, value_ms, speedup,
        {**context, "smoke": SMOKE},
    )


@pytest.fixture(scope="session")
def dataset_cache():
    """Memoized dataset builds shared across benchmark modules."""
    cache: dict[tuple, object] = {}

    def get(name: str, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in cache:
            scale = overrides.pop("scale", FIG9_SCALES.get(name, 1.0))
            cache[key] = load_dataset(name, scale=scale, **overrides)
        return cache[key]

    return get
