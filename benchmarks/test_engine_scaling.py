"""Engine scaling — serial vs. parallel Monte-Carlo wall-clock.

Measures one sigma estimate (the repo's hottest path) on the yelp
instance under every execution backend and records the wall-clock
series to ``benchmarks/results/engine_scaling.txt``.  Two assertions:

* every backend's estimate is **bit-identical** to serial (the
  common-random-numbers + canonical-chunking guarantee), and
* with >= 4 CPU cores, the process backend with 4 workers is at least
  2x faster than serial.  On smaller machines (or in smoke mode) the
  speedup is recorded but not asserted — a process pool cannot beat
  serial without cores to run on.

Environment knobs: ``REPRO_BENCH_ENGINE_SAMPLES`` (default 320) and
``REPRO_BENCH_ENGINE_WORKERS`` (default 4).
"""

import os
import time

import numpy as np

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import ProcessPoolBackend, SerialBackend, ThreadBackend
from repro.eval.reporting import format_table
from repro.utils.rng import RngFactory

from benchmarks.conftest import SMOKE, _env_int, record_bench, record_figure

ENGINE_SAMPLES = _env_int("REPRO_BENCH_ENGINE_SAMPLES", 320)
ENGINE_WORKERS = _env_int("REPRO_BENCH_ENGINE_WORKERS", 4)


def _seed_group(instance) -> SeedGroup:
    """A spread-out ten-seed group touching every promotion."""
    step = max(1, instance.n_users // 10)
    return SeedGroup(
        Seed(user, user % instance.n_items, 1 + user % instance.n_promotions)
        for user in range(0, step * 10, step)
    )


def _timed_estimate(instance, group, backend):
    estimator = SigmaEstimator(
        instance,
        n_samples=ENGINE_SAMPLES,
        rng_factory=RngFactory(7),
        backend=backend,
    )
    started = time.perf_counter()
    estimate = estimator.estimate(group, collect_weights=True)
    return estimate, time.perf_counter() - started


def test_engine_scaling(dataset_cache):
    instance = dataset_cache("yelp")
    group = _seed_group(instance)

    serial, serial_seconds = _timed_estimate(instance, group, SerialBackend())
    rows = [["serial", 1, f"{serial_seconds:.3f}", "1.00"]]

    thread = ThreadBackend(workers=ENGINE_WORKERS)
    # Process workers are capped at the core count (requesting more
    # only added pickling overhead — the BENCH_v7 0.79x regression on a
    # 1-core runner); the *effective* count is what the table and the
    # bench context report.
    process = ProcessPoolBackend(workers=ENGINE_WORKERS)
    # Warm the process pool outside the timed region: pool start-up is
    # a one-off cost, not part of the steady-state throughput story.
    # Workers spawn on demand, so park one overlapping task per worker
    # to force the whole pool up — a single no-op would start just one.
    list(process.executor.map(time.sleep, [0.05] * process.workers))

    results = {}
    try:
        for backend in (thread, process):
            estimate, seconds = _timed_estimate(instance, group, backend)
            results[backend.name] = (estimate, seconds)
            speedup = serial_seconds / seconds if seconds > 0 else 0.0
            rows.append(
                [backend.name, backend.workers, f"{seconds:.3f}", f"{speedup:.2f}"]
            )
    finally:
        thread.close()
        process.close()

    headers = ["backend", "workers", "seconds", "speedup_vs_serial"]
    footer = f"samples={ENGINE_SAMPLES} cpu_count={os.cpu_count()}"
    record_figure("engine_scaling", format_table(headers, rows) + "\n" + footer)
    _, process_recorded = results["process"]
    record_bench(
        # Recorded for the trajectory but NOT gate-tracked: pool-vs-
        # serial ratios depend on the runner's core count.
        "engine_scaling", process_recorded * 1e3,
        serial_seconds / process_recorded if process_recorded > 0 else 0.0,
        workers=process.workers, requested_workers=ENGINE_WORKERS,
        samples=ENGINE_SAMPLES, cpu_count=os.cpu_count() or 1,
    )

    # Bit-identity across backends (the engine's core guarantee).
    for name, (estimate, _) in results.items():
        assert estimate.sigma == serial.sigma, name
        assert estimate.sigma_std == serial.sigma_std, name
        same = np.array_equal(estimate.mean_weights, serial.mean_weights)
        assert same, name

    # Throughput: only meaningful with real cores to fan out to.
    _, process_seconds = results["process"]
    if (os.cpu_count() or 1) >= 4 and not SMOKE:
        assert serial_seconds / process_seconds >= 2.0, (
            f"process backend too slow: serial {serial_seconds:.3f}s vs "
            f"process {process_seconds:.3f}s with {ENGINE_WORKERS} workers"
        )
