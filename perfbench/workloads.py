"""The benchmark's workloads, run one per fresh interpreter.

``perfbench/run.py`` starts this file as a child process with a clean
environment and reads the JSON record it prints as its last line::

    PYTHONPATH=src python3 perfbench/workloads.py \\
        --workload dysim-yelp-serial --seed 0 --seconds 40 --trace 0

Every workload is a closed loop with one client: each operation (one
algorithm call through ``run_algorithm``, then the fair re-score of the
returned group through ``evaluate_group``) starts when the previous
one has finished, until ``--seconds`` have passed.  Every input is
pinned (dataset, configuration, algorithm seed and re-score seed), so
every operation does the same work and its outputs must equal
``pins.json`` exactly.  ``--seed`` is recorded but selects nothing:
README.md explains why.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.eval.harness import evaluate_group, run_algorithm  # noqa: E402

from tracing import Tracer, layer_metrics, traced  # noqa: E402

#: Algorithm seed of every pinned problem.
PROBLEM_SEED = 0
#: Seed of the fair re-score (``evaluate_group``'s default).
EVAL_SEED = 12345
#: A run repeats set-up at least 3 times and until this many seconds
#: are spent (at most 200 times); ``setup_s`` is the median.  Cheap
#: set-ups need many repeats for a steady median.
SETUP_BUDGET_S = 1.0
PINS_PATH = HERE / "pins.json"


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    dataset: str
    algorithm: str
    n_samples: int
    algorithm_kwargs: dict = field(default_factory=dict)
    #: Process-pool workers; ``None`` runs on ``SerialBackend``.
    workers: int | None = None
    eval_samples: int = 50
    scale: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dysim-yelp-serial",
            problem="dysim-yelp",
            dataset="yelp",
            algorithm="Dysim",
            n_samples=12,
            algorithm_kwargs={"oracle": "mc"},
        ),
        Workload(
            name="dysim-yelp-proc2",
            problem="dysim-yelp",
            dataset="yelp",
            algorithm="Dysim",
            n_samples=12,
            algorithm_kwargs={"oracle": "mc"},
            workers=2,
        ),
        Workload(
            name="rrset-100k-proc2",
            problem="rrset-100k",
            dataset="synth-100k",
            algorithm="DysimSelect",
            n_samples=8192,
            algorithm_kwargs={"oracle": "rrset", "candidate_pool": 200},
            workers=2,
        ),
    )
}


@dataclass
class Op:
    """One operation: algorithm call, re-score and output check."""

    run_s: float = 0.0
    eval_s: float = 0.0
    group: list = field(default_factory=list)
    algo_sigma: float = 0.0
    sigma: float = 0.0
    phase_seconds: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def seconds(self) -> float:
        return self.run_s + self.eval_s

    def outputs(self) -> tuple:
        return (self.group, self.algo_sigma, self.sigma)


# ---------------------------------------------------------------------------
# set-up and one operation
# ---------------------------------------------------------------------------
def make_backend(workload: Workload):
    if workload.workers is None:
        return SerialBackend()
    backend = ProcessPoolBackend(workers=workload.workers)
    # Warm-up: start every worker now, so operations find them running.
    executor = backend.executor
    futures = [executor.submit(os.getpid) for _ in range(backend.workers)]
    for future in futures:
        future.result()
    return backend


def set_up(workload: Workload, tracer: Tracer | None = None):
    """Build the dataset and a warm backend; returns (instance, backend, s).

    With a tracer only the dataset build is traced: the pool starts
    after the wrappers are gone, so its workers never carry them.
    """
    started = time.perf_counter()
    if tracer is None:
        instance = load(workload)
    else:
        with traced(tracer):
            instance = load(workload)
    backend = make_backend(workload)
    return instance, backend, time.perf_counter() - started


def load(workload: Workload):
    # Looked up on the package at call time, so tracing sees the call.
    return repro.load_dataset(workload.dataset, scale=workload.scale)


def run_op(workload: Workload, instance, backend) -> Op:
    op = Op()
    try:
        started = time.perf_counter()
        result = run_algorithm(
            workload.algorithm,
            instance,
            n_samples=workload.n_samples,
            seed=PROBLEM_SEED,
            backend=backend,
            **workload.algorithm_kwargs,
        )
        op.run_s = time.perf_counter() - started
        started = time.perf_counter()
        op.sigma = evaluate_group(
            instance,
            result.seed_group,
            n_samples=workload.eval_samples,
            seed=EVAL_SEED,
            backend=backend,
        )
        op.eval_s = time.perf_counter() - started
    except Exception as exc:  # an operation that raises counts as failed
        op.problems.append(f"{type(exc).__name__}: {exc}")
        return op
    op.group = sorted([s.user, s.item, s.promotion] for s in result.seed_group)
    op.algo_sigma = float(result.sigma)
    op.phase_seconds = dict(result.diagnostics.get("phase_seconds", {}))
    return op


def check_op(op: Op, pin: dict | None, reference: Op | None) -> None:
    """Record every way ``op``'s outputs differ from what they must be.

    The pins were made with the serial backend, so a pool workload
    that matches them also matches serial execution.
    """
    if not op.ok:
        return
    if pin is not None:
        for key, value in zip(("group", "algo_sigma", "sigma"), op.outputs()):
            if value != pin[key]:
                op.problems.append(f"{key} {value!r} != pinned {pin[key]!r}")
    if reference is not None and op.outputs() != reference.outputs():
        op.problems.append("outputs differ from the run's first operation")


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------
def calibration_s() -> float:
    """Median time of a fixed numpy plus pure-Python microbench.

    Sorting, not a matrix product: a multi-threaded BLAS makes the
    latter swing tenfold with whatever else runs on the machine.
    """
    values = np.random.default_rng(0).random(200_000)

    def once() -> float:
        started = time.perf_counter()
        for _ in range(5):
            np.sort(values)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - started

    return statistics.median(once() for _ in range(3))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: Workload, backend, calibration: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "workers_requested": workload.workers,
        "workers_effective": getattr(backend, "workers", 1),
        "calibration_s": calibration,
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its reaped children, in MB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    pin: dict | None,
) -> dict:
    """Set up, run the closed loop for ``seconds`` and return the record."""
    # Calibrate before any worker process exists.
    calibration = calibration_s()
    setup_times = []
    setup_tracer = Tracer() if trace else None
    instance = backend = None
    while len(setup_times) < 3 or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < 200
    ):
        if backend is not None:
            backend.close()
            instance = backend = None
        instance, backend, elapsed = set_up(workload, setup_tracer)
        setup_times.append(elapsed)

    record_context = context(workload, backend, calibration)
    cpu_before = children_cpu_s()
    faults_before = backend.fault_stats.retries
    ops: list[Op] = []
    traced_ops: list[tuple[Op, Tracer]] = []

    def fresh_instance():
        # Dysim fills caches on the instance, worth about a fifth of
        # its first run on yelp.  Every operation gets an unused
        # instance (built untimed), so every operation pays the same
        # cold cost a one-off run pays.
        nonlocal instance
        if ops:
            instance = None
            gc.collect()  # free the old instance before building anew
            instance = load(workload)
        return instance

    started = time.perf_counter()
    deadline = started + seconds
    rounds = 0
    try:
        while True:
            op = run_op(workload, fresh_instance(), backend)
            check_op(op, pin, ops[0] if ops and ops[0].ok else None)
            ops.append(op)
            if trace:
                tracer = Tracer()
                cold = fresh_instance()
                with traced(tracer):
                    traced_op = run_op(workload, cold, backend)
                check_op(traced_op, pin, op if op.ok else None)
                ops.append(traced_op)
                traced_ops.append((traced_op, tracer))
            rounds += 1
            # Issue another round only if it should end by about the
            # deadline (within half a round), so runs last ``seconds``.
            now = time.perf_counter()
            if now + (now - started) / rounds / 2 >= deadline:
                break
        retries = backend.fault_stats.retries - faults_before
    finally:
        # Workers count in RUSAGE_CHILDREN only once reaped.
        backend.close()
    child_cpu = children_cpu_s() - cpu_before

    good = [op for op in ops if op.ok]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "context": record_context,
        "setup_s": setup_times,
        "ops": [
            {
                "run_s": op.run_s,
                "eval_s": op.eval_s,
                "sigma": op.sigma,
                "algo_sigma": op.algo_sigma,
                "problems": op.problems,
            }
            for op in ops
        ],
    }
    if not good:
        record["metrics"] = {}
        return record
    median = statistics.median
    if not trace:
        record["metrics"] = {
            "setup_s": median(setup_times),
            "run_s": median(op.run_s for op in good),
            "sigma": median(op.sigma for op in good),
            "peak_rss_mb": peak_rss_mb(),
        }
        # Reported, not gated: on one CPU this host moves it more than
        # any allowed bound between runs (README.md).
        record["info"] = {
            "eval_s": {"value": median(op.eval_s for op in good), "unit": "s"}
        }
        return record

    per_op = [layer_metrics(tracer) for _, tracer in traced_ops]
    layers = {name: median(m[name] for m in per_op) for name in per_op[0]}
    for phase in ("bank", "final_mc"):
        layers[f"dysim.{phase}_s"] = median(
            op.phase_seconds.get(phase, 0.0) for op, _ in traced_ops
        )
    workers = getattr(backend, "workers", 1)
    pool_ops = len(ops) if workload.workers is not None else 0
    cpu_per_op = child_cpu / pool_ops if pool_ops else 0.0
    busy = layers["engine.busy_s"]
    layers["engine.cpu_child_s"] = cpu_per_op
    layers["engine.parallel_eff"] = (
        cpu_per_op / (busy * workers) if busy else 0.0
    )
    layers["engine.retries"] = retries
    layers["data.build_s"] = setup_tracer.total("data.build") / max(
        1, setup_tracer.calls("data.build")
    )
    # Operations alternate untraced, traced: the pairs do the same work.
    plain = median(op.seconds for op in ops[0::2])
    with_trace = median(op.seconds for op in ops[1::2])
    layers["trace.overhead_ratio"] = with_trace / plain
    record["metrics"] = layers
    record["span_tree"] = traced_ops[-1][1].tree()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = run_workload(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        load_pins()[workload.problem],
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
