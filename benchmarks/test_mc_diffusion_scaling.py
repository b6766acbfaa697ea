"""Monte-Carlo replication throughput — lockstep vs the scalar loop.

Times one *worker range* of campaign replications — the exact unit
``run_chunk`` executes for every sigma estimate — on a large Yelp
community network, comparing the scalar reference loop (one
``tests.reference.ScalarCampaignSimulator`` run per replication,
``tests.reference.run_chunk_per_replication``) against the
replication-lockstep pass that plays the whole range at once.  Both
timings are **cold**: every call builds its simulator or packed state
afresh, so each measured round replays that full cost on both sides.

Two recipes:

* **frozen** — the final-evaluation regime: frozen perceptions,
  association coins live, a whole range of replications per worker.
  Assertions: both kernels produce **bit-identical** per-replication
  sigmas from the same substreams (pinned draw-for-draw by
  ``tests/diffusion/test_step_equivalence.py``), and the lockstep range
  is at least 3x more replication-throughput than the scalar loop at
  >= 10k users.  Under CI smoke (``REPRO_BENCH_SMOKE=1``) the
  scale drops to ~3k users and the floor relaxes to 1.5x — shared
  runners make wall-clock ratios noisy; the full 3x floor is enforced
  by the tier-1 run.
* **dynamic** — learning perceptions with the likelihood and
  final-weights collectors on, 12 replications (the TDSI regime).
  Asserted bit-identical (sigmas, likelihoods, weight sums); its ratio
  is recorded in the table but carries no wall-clock floor.

Environment knobs: ``REPRO_BENCH_MC_SCALE`` (dataset scale factor,
default 90 ~ 10800 users; 25 under smoke) and
``REPRO_BENCH_MC_REPLICATIONS`` (frozen range size, default 64; 32
under smoke).
"""

import time

import numpy as np

from repro.core.problem import Seed, SeedGroup
from repro.data import load_dataset
from repro.diffusion.models import DiffusionModel
from repro.engine import ReplicationTask, run_chunk
from repro.eval.reporting import format_table

from benchmarks.conftest import SMOKE, _env_int, record_bench, record_figure
from tests.reference import run_chunk_per_replication

MC_SCALE = _env_int("REPRO_BENCH_MC_SCALE", 25 if SMOKE else 90)
MC_REPLICATIONS = _env_int("REPRO_BENCH_MC_REPLICATIONS", 32 if SMOKE else 64)
DYNAMIC_REPLICATIONS = 12
MIN_SPEEDUP = 1.5 if SMOKE else 3.0
ROUNDS = 3


def _seed_group(instance) -> SeedGroup:
    """Twenty spread-out seeds touching every promotion.

    Twenty is a representative final-evaluation group size (Dysim
    selects a few dozen seeds at most); it also keeps per-step
    frontiers small enough that the range's fixed per-step costs —
    the regime the lockstep kernel amortizes — stay visible.
    """
    step = max(1, instance.n_users // 20)
    return SeedGroup(
        Seed(user, user % instance.n_items, 1 + user % instance.n_promotions)
        for user in range(0, step * 20, step)
    )


def _run_chunk_timed(chunk, task):
    """Best-of-rounds seconds per replication plus the range's result.

    Every round is one cold ``chunk`` call over all the task's samples
    — exactly what a worker executes — so the reference loop pays its
    per-range simulator construction just as production does.
    Interference only ever adds time; the minimum over identical
    rounds is the robust wall-clock estimator, and the results are
    round-independent.
    """
    n_replications = task.n_samples
    indices = list(range(n_replications))
    best_seconds = float("inf")
    result = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = chunk(task, indices)
        seconds = (time.perf_counter() - started) / n_replications
        best_seconds = min(best_seconds, seconds)
    return best_seconds, result


def _task(instance, n_samples, **collectors):
    return ReplicationTask(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=0,
        rng_context=("mc-bench",),
        seed_groups=[_seed_group(instance)],
        n_samples=n_samples,
        **collectors,
    )


def test_mc_diffusion_scaling():
    dynamic_instance = load_dataset("yelp", scale=float(MC_SCALE))
    instance = dynamic_instance.frozen()

    frozen = _task(instance, MC_REPLICATIONS)
    loop_seconds, loop = _run_chunk_timed(run_chunk_per_replication, frozen)
    packed_seconds, packed = _run_chunk_timed(run_chunk, frozen)
    speedup = loop_seconds / packed_seconds if packed_seconds > 0 else 0.0

    dynamic = _task(
        dynamic_instance,
        DYNAMIC_REPLICATIONS,
        compute_likelihood=True,
        collect_weights=True,
    )
    dynamic_loop_seconds, dynamic_loop = _run_chunk_timed(
        run_chunk_per_replication, dynamic
    )
    dynamic_packed_seconds, dynamic_packed = _run_chunk_timed(
        run_chunk, dynamic
    )
    dynamic_speedup = (
        dynamic_loop_seconds / dynamic_packed_seconds
        if dynamic_packed_seconds > 0
        else 0.0
    )

    rows = [
        ["frozen", "scalar-loop", f"{loop_seconds * 1e3:.2f}", "1.00"],
        ["frozen", "lockstep", f"{packed_seconds * 1e3:.2f}", f"{speedup:.2f}"],
        [
            "dynamic",
            "scalar-loop",
            f"{dynamic_loop_seconds * 1e3:.2f}",
            "1.00",
        ],
        [
            "dynamic",
            "lockstep",
            f"{dynamic_packed_seconds * 1e3:.2f}",
            f"{dynamic_speedup:.2f}",
        ],
    ]
    footer = (
        f"users={instance.n_users} arcs={instance.network.n_arcs} "
        f"replications={MC_REPLICATIONS} "
        f"dynamic_replications={DYNAMIC_REPLICATIONS} smoke={int(SMOKE)}"
    )
    record_figure(
        "mc_diffusion_scaling",
        format_table(
            ["recipe", "kernel", "ms_per_replication", "speedup"], rows
        )
        + "\n"
        + footer,
    )
    record_bench(
        "mc_diffusion_scaling", packed_seconds * 1e3, speedup,
        scale=MC_SCALE, replications=MC_REPLICATIONS,
    )

    # Bit identity: same substreams, same realizations, both kernels.
    assert np.array_equal(loop.sigmas, packed.sigmas)
    assert np.array_equal(dynamic_loop.sigmas, dynamic_packed.sigmas)
    assert np.array_equal(dynamic_loop.likelihoods, dynamic_packed.likelihoods)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(dynamic_loop.weights, dynamic_packed.weights, strict=True)
    )

    assert speedup >= MIN_SPEEDUP, (
        f"lockstep range kernel only {speedup:.2f}x faster than the "
        f"scalar loop ({loop_seconds * 1e3:.2f}ms vs "
        f"{packed_seconds * 1e3:.2f}ms per replication; "
        f"floor {MIN_SPEEDUP}x)"
    )
