"""Machine-readable perf trajectory: ``BENCH_v<N>.json``.

The scaling benchmarks (bank / engine / selection / frontier / sketch),
when run with ``REPRO_BENCH_RECORD=1``, append one *bench row* per
measurement to the ``bench`` spec of the result store — series name,
measured milliseconds, speedup vs the retained reference kernel, and
the scale context (world counts, sample counts, smoke flag).  The
store file is append-only, so it
accumulates the full perf trajectory across sessions; this module
summarizes it into a versioned JSON snapshot that CI and re-anchors
can gate on instead of eyeballing txt tables.

``emit_bench`` picks, per series, the **latest** recorded measurement
(benchmarks report best-of-rounds medians already — the snapshot is
"current perf", the jsonl is the history).  The committed snapshot
lives at ``benchmarks/results/BENCH_v9.json`` with a mirror copy at
the repository root (``repro sweep bench`` writes both; external
trajectory tooling reads the root one); the regression gate
(``scripts/bench_gate.py``) compares *speedups* — not absolute
milliseconds — between a candidate snapshot and the committed
baseline, because kernel-vs-reference ratios transfer across machines
while wall-clock does not.  ``engine_scaling`` is recorded but not
gated: pool-vs-serial ratios depend on the runner's core count.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import SweepError
from repro.sweep.store import STATUS_OK, ResultRow, ResultStore

__all__ = [
    "BENCH_SPEC",
    "BENCH_VERSION",
    "TRACKED_SERIES",
    "record_bench_series",
    "emit_bench",
    "load_bench",
]

#: Store spec name bench rows live under (``store/bench.jsonl``).
BENCH_SPEC = "bench"

#: Current trajectory snapshot version — bumped per growth PR that
#: re-baselines (v6 == PR 6, which introduced the emitter; v7 added
#: the RR-set oracle and its ``rrset_scaling`` series; v8 added the
#: compiled/world-sharded reach kernel and ``bank_scaling_m1024``; v9
#: added the replication-lockstep campaign kernel and
#: ``mc_diffusion_scaling``).
BENCH_VERSION = 9

#: Series whose speedup the regression gate tracks.  Each is a
#: kernel-vs-reference ratio on one machine, so a >2x degradation is a
#: code regression, not runner noise.
TRACKED_SERIES = (
    "bank_scaling",
    "bank_scaling_m1024",
    "selection_scaling",
    "frontier_scaling",
    "sketch_scaling",
    "rrset_scaling",
    "mc_diffusion_scaling",
)


def record_bench_series(
    store: ResultStore,
    series: str,
    value_ms: float,
    speedup: float,
    context: dict | None = None,
) -> ResultRow:
    """Append one measurement of ``series`` to the bench trajectory."""
    from repro.sweep.spec import RunConfig

    params = {"series": series, "context": dict(context or {})}
    config = RunConfig(BENCH_SPEC, params)
    row = ResultRow(
        spec=BENCH_SPEC,
        config_hash=config.config_hash,
        seed=0,
        status=STATUS_OK,
        params=config.params,
        payload={
            "value_ms": float(value_ms),
            "speedup": float(speedup),
        },
    )
    store.append(row)
    return row


def emit_bench(
    store: ResultStore,
    out_path: str | pathlib.Path | None = None,
    version: int = BENCH_VERSION,
) -> dict:
    """Summarize the latest measurement per series into BENCH JSON."""
    latest: dict[str, ResultRow] = {}
    for row in store.raw_rows(BENCH_SPEC):
        if row.ok and "series" in row.params:
            latest[row.params["series"]] = row
    if not latest:
        raise SweepError(
            "no bench rows recorded; run the scaling benchmarks "
            "(benchmarks/test_*_scaling.py) first"
        )
    document = {
        "bench_schema_version": 1,
        "bench_version": version,
        "tracked": [s for s in TRACKED_SERIES if s in latest],
        "series": {
            name: {
                "value_ms": row.payload["value_ms"],
                "speedup": row.payload["speedup"],
                "context": row.params.get("context", {}),
            }
            for name, row in sorted(latest.items())
        },
    }
    if out_path is not None:
        path = pathlib.Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_bench(path: str | pathlib.Path) -> dict:
    """Load and minimally validate a BENCH snapshot."""
    document = json.loads(pathlib.Path(path).read_text())
    if "series" not in document or "tracked" not in document:
        raise SweepError(f"{path}: not a BENCH_v*.json snapshot")
    return document
