"""Self-tests of the benchmark (tiny problems, about a minute in all).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "dysim-yelp": {"scale": 0.3, "n_samples": 3, "candidate_pool": 20},
    "rrset-100k": {"scale": 0.01, "n_samples": 256, "candidate_pool": 20},
}


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    knobs = TINY[workload.problem]
    return replace(
        workload,
        scale=knobs["scale"],
        n_samples=knobs["n_samples"],
        eval_samples=8,
        algorithm_kwargs={
            **workload.algorithm_kwargs,
            "candidate_pool": knobs["candidate_pool"],
        },
    )


def run_tiny(name: str, trace: bool) -> dict:
    return workloads.run_workload(
        tiny(name), seed=0, seconds=0.0, trace=trace, pin=None
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name):
    record = run_tiny(name, trace=False)
    assert record["correct"], record["ops"]
    assert record["attempted"] == 1 and record["failed"] == 0
    assert set(record["metrics"]) == {
        "setup_s", "run_s", "sigma", "peak_rss_mb"
    }
    assert all(value > 0 for value in record["metrics"].values())
    assert record["info"]["eval_s"]["value"] > 0


@pytest.mark.parametrize("name", ["dysim-yelp-serial", "rrset-100k-proc2"])
def test_traced_run_matches_untraced_and_unwraps(name):
    record = run_tiny(name, trace=True)
    # check_op compared the traced operation's group, algorithm sigma
    # and re-score with the untraced one run just before it.
    assert record["correct"], record["ops"]
    assert record["attempted"] == 2
    first, second = record["ops"]
    assert (first["sigma"], first["algo_sigma"]) == (
        second["sigma"], second["algo_sigma"]
    )
    assert tracing.leftover_wrappers() == []
    for target in tracing.INSTRUMENTS:
        _, _, member = tracing.resolve(target)
        assert not getattr(member, tracing.WRAPPED_MARK, False), target
    layer_names = {
        m["name"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[
            "per_layer"
        ]
    }
    assert set(record["metrics"]) == layer_names
    assert record["metrics"]["selection.celf_s"] > 0


def test_traced_spans_record_and_self_times_are_consistent():
    workload = tiny("dysim-yelp-serial")
    instance, backend, _ = workloads.set_up(workload)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        op = workloads.run_op(workload, instance, backend)
    assert op.ok, op.problems
    assert tracing.leftover_wrappers() == []
    rows = tracer.tree()
    assert {"dysim.nominees", "dysim.tdsi", "engine"} <= {
        row["path"].split("/")[-1] for row in rows
    }
    totals = {row["path"]: row["total_s"] for row in rows}
    for row in rows:
        assert row["self_s"] >= -1e-9, row
        children = [
            total
            for path, total in totals.items()
            if path.rsplit("/", 1)[0] == row["path"] and path != row["path"]
        ]
        assert sum(children) <= row["total_s"] + 1e-9, row


def test_serial_and_pool_return_identical_outputs():
    outputs = []
    for name in ("dysim-yelp-serial", "dysim-yelp-proc2"):
        workload = tiny(name)
        instance, backend, _ = workloads.set_up(workload)
        try:
            op = workloads.run_op(workload, instance, backend)
        finally:
            backend.close()
        assert op.ok, op.problems
        outputs.append(op.outputs())
    assert outputs[0] == outputs[1]


def test_check_catches_a_wrong_output():
    workload = tiny("dysim-yelp-serial")
    instance, backend, _ = workloads.set_up(workload)
    op = workloads.run_op(workload, instance, backend)
    pin = {"group": op.group, "algo_sigma": op.algo_sigma, "sigma": 0.0}
    workloads.check_op(op, pin, reference=None)
    assert op.problems == [f"sigma {op.sigma!r} != pinned 0.0"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "dysim-yelp-serial"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
