"""Whole-pipeline benchmark of the repro package.

Run from the repository root::

    python3 perfbench/run.py --workload dysim-yelp-serial --seed 0 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Each workload runs in a fresh child interpreter (``workloads.py``)
whose environment has every ``REPRO_*`` variable removed, so kernel,
retry and fault-injection settings of the caller cannot leak in.  The
full record of each run (context, per-operation outputs, span tree)
goes to ``perfbench/out/``.  Standard output lists every metric with
its unit and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
TMP_DIR = OUT_DIR / "tmp"
#: A child that outlives this is stopped (the contract allows 180 s).
CHILD_TIMEOUT_S = 170.0


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Shared-memory task files go to the temp dir: keep them in the tree.
    env["TMPDIR"] = str(TMP_DIR)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # A session of its own lets a timeout stop the pool workers too.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=clean_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed no record")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    benchmark = spec()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"]
        for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        try:
            record = run_child(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        metrics = record["metrics"]
        if set(metrics) != set(units):
            print(f"error: {name} reported no metrics", file=sys.stderr)
            return 1
        print(f"# {name}: context {json.dumps(record['context'])}")
        for op in record["ops"]:
            for problem in op["problems"]:
                print(f"# {name}: failed operation: {problem}")
        for metric, unit in units.items():
            print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
        for metric, info in record.get("info", {}).items():
            print(f"{name} {metric} {info['value']:.6g} {info['unit']} (not gated)")
        results.append((name, record))

    if len(results) == 1:
        metrics = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in results[0][1]["metrics"].items()
        }
    else:
        metrics = {
            f"{name}:{metric}": {"value": value, "unit": units[metric]}
            for name, record in results
            for metric, value in record["metrics"].items()
        }
    summary = {
        "correct": all(record["correct"] for _, record in results),
        "attempted": sum(record["attempted"] for _, record in results),
        "failed": sum(record["failed"] for _, record in results),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
