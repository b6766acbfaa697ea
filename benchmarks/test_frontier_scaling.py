"""Frontier-kernel scaling — the packed kernel vs scalar campaign steps.

Times one full campaign realization (the innermost unit of every
Monte-Carlo sigma estimate) on a large synthetic community network
under ``CampaignSimulator.run`` — the packed lockstep kernel over one
generator — and under the scalar per-arc reference
(``tests.reference.ScalarCampaignSimulator``), and records the series
to ``benchmarks/results/frontier_scaling.txt``.  Two assertions:

* both produce **bit-identical** realizations (spread and adoption
  matrix) from the same substream — the kernel's core guarantee, also
  pinned draw-for-draw by ``tests/diffusion/test_step_equivalence.py``;
  and
* the packed kernel at one replication is at least 2x faster per
  serial realization.  Under CI smoke (``REPRO_BENCH_SMOKE=1``) the
  floor relaxes to 1.3x — shared, saturated runners make wall-clock
  ratios noisy (cf. ``test_engine_scaling``, which skips its
  absolute-speedup assert under smoke entirely); the full 2x floor is
  enforced by the tier-1 run.

Environment knobs: ``REPRO_BENCH_FRONTIER_SCALE`` (dataset scale
factor, default 25 ~ 3000 users) and ``REPRO_BENCH_FRONTIER_SAMPLES``
(realizations per kernel, default 12).
"""

import time

import numpy as np

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.campaign import CampaignSimulator
from repro.data import load_dataset
from repro.eval.reporting import format_table
from repro.utils.rng import spawn_rng

from benchmarks.conftest import SMOKE, _env_int, record_bench, record_figure
from tests.reference import ScalarCampaignSimulator

FRONTIER_SCALE = _env_int("REPRO_BENCH_FRONTIER_SCALE", 8 if SMOKE else 25)
FRONTIER_SAMPLES = _env_int("REPRO_BENCH_FRONTIER_SAMPLES", 12)
MIN_SPEEDUP = 1.3 if SMOKE else 2.0


def _seed_group(instance) -> SeedGroup:
    """Forty spread-out seeds touching every promotion."""
    step = max(1, instance.n_users // 40)
    return SeedGroup(
        Seed(user, user % instance.n_items, 1 + user % instance.n_promotions)
        for user in range(0, step * 40, step)
    )


def _run_kernel(instance, group, simulator_class, rounds=3):
    """Best-of-rounds seconds per realization plus a fingerprint.

    Interference (GC pauses, suite load when tier-1 runs the full
    benchmark set first) only ever adds time, so the minimum over a
    few identical rounds is the robust wall-clock estimator.  Every
    round replays the same substreams, so the fingerprint is
    round-independent.
    """
    simulator = simulator_class(instance)
    simulator.run(group, spawn_rng(0, "warm"))  # warm caches / freeze
    best_seconds = float("inf")
    for _ in range(rounds):
        sigmas = []
        adoptions = np.zeros((instance.n_users, instance.n_items))
        started = time.perf_counter()
        for i in range(FRONTIER_SAMPLES):
            outcome = simulator.run(group, spawn_rng(0, "frontier", i))
            sigmas.append(outcome.sigma)
            adoptions += outcome.new_adoptions
        seconds = (time.perf_counter() - started) / FRONTIER_SAMPLES
        best_seconds = min(best_seconds, seconds)
    return best_seconds, sigmas, adoptions


def test_frontier_scaling():
    # The Lemma-1 regime every selection phase estimates in: frozen
    # perceptions, association coins live.  This is the hottest path
    # in the repo (greedy runs thousands of these realizations).
    instance = load_dataset("yelp", scale=float(FRONTIER_SCALE)).frozen()
    group = _seed_group(instance)

    scalar_seconds, scalar_sigmas, scalar_adoptions = _run_kernel(
        instance, group, ScalarCampaignSimulator
    )
    fast_seconds, fast_sigmas, fast_adoptions = _run_kernel(
        instance, group, CampaignSimulator
    )
    speedup = scalar_seconds / fast_seconds if fast_seconds > 0 else 0.0

    rows = [
        ["scalar", f"{scalar_seconds * 1e3:.2f}", "1.00"],
        ["lockstep-r1", f"{fast_seconds * 1e3:.2f}", f"{speedup:.2f}"],
    ]
    footer = (
        f"users={instance.n_users} arcs={instance.network.n_arcs} "
        f"samples={FRONTIER_SAMPLES} smoke={int(SMOKE)}"
    )
    record_figure(
        "frontier_scaling",
        format_table(["kernel", "ms_per_realization", "speedup"], rows)
        + "\n"
        + footer,
    )
    record_bench(
        "frontier_scaling", fast_seconds * 1e3, speedup,
        scale=FRONTIER_SCALE, samples=FRONTIER_SAMPLES,
    )

    # Bit identity: same substreams, same realizations, both kernels.
    assert scalar_sigmas == fast_sigmas
    assert np.array_equal(scalar_adoptions, fast_adoptions)

    assert speedup >= MIN_SPEEDUP, (
        f"packed kernel at one replication only {speedup:.2f}x faster than "
        f"the scalar reference ({scalar_seconds * 1e3:.2f}ms vs "
        f"{fast_seconds * 1e3:.2f}ms per realization; "
        f"floor {MIN_SPEEDUP}x)"
    )
