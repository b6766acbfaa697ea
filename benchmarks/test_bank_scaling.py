"""Realization-bank scaling — world-packed BFS vs. per-world BFS.

Times the computation of packed reachability stacks for a nominee-pool
candidate block on the yelp realization bank two ways: the per-world
reference (``tests.reference.PerWorldBank``: one Python BFS per
realized world, M runs per candidate — the pre-PR-5 path) and the
world-packed kernel (``repro.sketch.reachkernel``: one bit-parallel
multi-world BFS whose frontier state covers all M worlds at once,
sparse-event inner loop).
Stacks are bit-identical — reachability on fixed live-edge graphs is
deterministic — so the benchmark compares pure wall-clock and records
the series to ``benchmarks/results/bank_scaling.txt``.

Both one-time representation builds (per-world live-edge adjacencies
vs. the shared CSR + world-major liveness words) happen outside the
timed region, mirroring how a bank serves many selection queries per
construction; the build times are reported in the footer.

Assertions: the packed kernel computes stacks at least 3x faster than
the per-world loop at M=256 (1.5x under CI smoke, where runner
contention makes wall-clock floors flaky — same policy as the other
scaling benchmarks).

Environment knobs: ``REPRO_BENCH_BANK_WORLDS`` (default 256; 64 under
smoke), ``REPRO_BENCH_BANK_POOL`` (default 96) and
``REPRO_BENCH_BANK_ROUNDS`` (default 2, best-of timing; the per-world
and packed rounds alternate, so a drift in the machine's speed during
the run cannot land in the ratio).

``test_bank_scaling_m1024`` repeats the comparison at M=1024 (the
``bank_scaling_m1024`` tracked series) with the compiled worklist
loop (``packed-jit``: bank misses routed through
``multi_world_visited_jit``, which production banks do not select)
and the world-sharded process fill in the mix when numba / multiple
cores are available; knobs ``REPRO_BENCH_BANK1024_{WORLDS,POOL,ROUNDS}``.
"""

import time
from contextlib import nullcontext
from unittest import mock

import numpy as np

from repro.core.dysim.nominees import rank_candidates
from repro.sketch import HAVE_NUMBA, RealizationBank, reachkernel
from repro.eval.reporting import format_table

from benchmarks.conftest import SMOKE, _env_int, record_bench, record_figure
from tests.reference import PerWorldBank

BANK_WORLDS = _env_int("REPRO_BENCH_BANK_WORLDS", 64 if SMOKE else 256)
BANK_POOL = _env_int("REPRO_BENCH_BANK_POOL", 96)
BANK_ROUNDS = _env_int("REPRO_BENCH_BANK_ROUNDS", 2)
MIN_SPEEDUP = 1.5 if SMOKE else 3.0


def _pinned(kernel):
    """Route an in-process bank fill's misses through the compiled
    worklist loop for ``packed-jit``; other names run the bank as it
    is (the numpy multi-world BFS)."""
    if kernel != "packed-jit":
        return nullcontext()
    return mock.patch.object(
        reachkernel, "multi_world_visited", reachkernel.multi_world_visited_jit
    )


def _timed_round(frozen, kernel, pairs, worlds, **bank_kwargs):
    """One stack computation on a fresh (cold-LRU) bank."""
    bank_class = PerWorldBank if kernel == "per-world" else RealizationBank
    bank = bank_class(frozen, n_worlds=worlds, rng_seed=0, **bank_kwargs)
    # Materialize the kernel's representation outside the timed
    # region (a bank answers many queries per construction).
    started = time.perf_counter()
    if kernel == "per-world":
        bank.worlds
    else:
        bank._reach_graph()
    build_seconds = time.perf_counter() - started
    with _pinned(kernel):
        started = time.perf_counter()
        stacks = bank.stacks_for(pairs)
        elapsed = time.perf_counter() - started
    return elapsed, stacks, build_seconds


def _timed_stacks(frozen, kernels, pairs, worlds=None, rounds=None,
                  **bank_kwargs):
    """Best-of-rounds ``(seconds, stacks, build seconds)`` per kernel.

    The kernels' rounds alternate, so a drift in the machine's speed
    during the run lands on every kernel alike instead of on the ratio.
    """
    worlds = BANK_WORLDS if worlds is None else worlds
    rounds = BANK_ROUNDS if rounds is None else rounds
    best = {kernel: (np.inf, None, 0.0) for kernel in kernels}
    for _ in range(rounds):
        for kernel in kernels:
            timed = _timed_round(frozen, kernel, pairs, worlds, **bank_kwargs)
            if timed[0] < best[kernel][0]:
                best[kernel] = timed
    return best


def test_bank_scaling(dataset_cache):
    instance = dataset_cache("yelp")
    frozen = instance.frozen()
    probe = RealizationBank(frozen, n_worlds=BANK_WORLDS, rng_seed=0)
    universe = rank_candidates(instance, BANK_POOL)
    pairs = [probe.pair_index(user, item) for user, item in universe]

    timed = _timed_stacks(frozen, ["per-world", "packed"], pairs)
    ref_seconds, ref_stacks, ref_build = timed["per-world"]
    packed_seconds, packed_stacks, packed_build = timed["packed"]
    speedup = ref_seconds / packed_seconds if packed_seconds > 0 else 0.0

    rows = [
        [
            "per-world",
            f"{ref_seconds * 1e3:.1f}",
            "1.00",
            f"{ref_build * 1e3:.1f}",
        ],
        [
            "packed",
            f"{packed_seconds * 1e3:.1f}",
            f"{speedup:.2f}",
            f"{packed_build * 1e3:.1f}",
        ],
    ]
    footer = (
        f"worlds={BANK_WORLDS} pool={len(pairs)} rounds={BANK_ROUNDS} "
        f"coins={probe.skeleton.n_entries} pairs={probe.skeleton.n_pairs} "
        f"smoke={int(SMOKE)}"
    )
    record_figure(
        "bank_scaling",
        format_table(
            ["kernel", "stacks_ms", "speedup", "repr_build_ms"], rows
        )
        + "\n"
        + footer,
    )
    record_bench(
        "bank_scaling", packed_seconds * 1e3, speedup,
        worlds=BANK_WORLDS, pool=len(pairs), rounds=BANK_ROUNDS,
    )

    # Reachability on fixed live-edge graphs is deterministic: the two
    # kernels must produce bit-identical stacks.
    assert len(packed_stacks) == len(ref_stacks)
    for ours, theirs in zip(packed_stacks, ref_stacks):
        assert np.array_equal(ours, theirs)

    assert speedup >= MIN_SPEEDUP, (
        f"world-packed kernel too slow: per-world {ref_seconds:.3f}s "
        f"vs packed {packed_seconds:.3f}s ({speedup:.1f}x)"
    )


M1024_WORLDS = _env_int("REPRO_BENCH_BANK1024_WORLDS", 256 if SMOKE else 1024)
M1024_POOL = _env_int("REPRO_BENCH_BANK1024_POOL", 8 if SMOKE else 24)
M1024_ROUNDS = _env_int("REPRO_BENCH_BANK1024_ROUNDS", 1 if SMOKE else 2)
#: The packed-vs-per-world ratio compresses as the word count grows
#: (event expansion touches every live word), so the always-on floor
#: at M=1024 is lower than the M=256 one; the 3x headline belongs to
#: the compiled-kernel leg below.
M1024_MIN_SPEEDUP = 1.5 if SMOKE else 2.0


def _warm_jit_compile():
    """Trigger numba compilation outside any timed region."""
    reachkernel.multi_world_visited_jit(
        np.zeros(2, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 1), dtype=np.uint64),
        np.array([0], dtype=np.int64),
        reachkernel.WorldLayout(1),
    )


def test_bank_scaling_m1024(dataset_cache):
    """Large-M bank fills: best configured kernel vs the references.

    The tracked ``bank_scaling_m1024`` series records the best
    available kernel (``packed-jit`` when the optional numba extra is
    importable, ``packed`` otherwise) against the per-world Python
    reference at M=1024 — the regime where the per-world loop is
    hopeless and word-level parallelism dominates.  When numba *is*
    present the compiled worklist loop must additionally beat the
    numpy event kernel by the headline factor; without numba that leg
    is skipped rather than silently measuring packed twice.  On
    multi-core runners the world-sharded process fill is timed too and
    contributes to the best-kernel figure.
    """
    import os

    instance = dataset_cache("yelp")
    frozen = instance.frozen()
    probe = RealizationBank(frozen, n_worlds=M1024_WORLDS, rng_seed=0)
    universe = rank_candidates(instance, M1024_POOL)
    pairs = [probe.pair_index(user, item) for user, item in universe]

    timed = _timed_stacks(
        frozen, ["per-world", "packed"], pairs,
        worlds=M1024_WORLDS, rounds=M1024_ROUNDS,
    )
    ref_seconds, ref_stacks, _ = timed["per-world"]
    packed_seconds, packed_stacks, _ = timed["packed"]
    assert len(packed_stacks) == len(ref_stacks)
    for ours, theirs in zip(packed_stacks, ref_stacks):
        assert np.array_equal(ours, theirs)

    rows = [
        ["per-world", f"{ref_seconds * 1e3:.1f}", "1.00"],
        [
            "packed",
            f"{packed_seconds * 1e3:.1f}",
            f"{ref_seconds / packed_seconds:.2f}",
        ],
    ]
    best_name, best_seconds = "packed", packed_seconds

    if HAVE_NUMBA:
        _warm_jit_compile()
        jit_seconds, jit_stacks, _ = _timed_stacks(
            frozen, ["packed-jit"], pairs,
            worlds=M1024_WORLDS, rounds=M1024_ROUNDS,
        )["packed-jit"]
        for ours, theirs in zip(jit_stacks, ref_stacks):
            assert np.array_equal(ours, theirs)
        rows.append(
            ["packed-jit", f"{jit_seconds * 1e3:.1f}",
             f"{ref_seconds / jit_seconds:.2f}"]
        )
        if jit_seconds < best_seconds:
            best_name, best_seconds = "packed-jit", jit_seconds

    cpu_count = os.cpu_count() or 1
    shards = 1
    if cpu_count > 1:
        from repro.engine import ProcessPoolBackend

        # Shard workers run the bank's numpy multi-world BFS.
        shards = min(4, cpu_count)
        with ProcessPoolBackend(workers=shards) as pool:
            shard_seconds, shard_stacks, _ = _timed_stacks(
                frozen, ["sharded"], pairs,
                worlds=M1024_WORLDS, rounds=M1024_ROUNDS,
                backend=pool, world_shards=shards,
            )["sharded"]
        for ours, theirs in zip(shard_stacks, ref_stacks):
            assert np.array_equal(ours, theirs)
        shard_name = f"packed+shard{shards}"
        rows.append(
            [shard_name, f"{shard_seconds * 1e3:.1f}",
             f"{ref_seconds / shard_seconds:.2f}"]
        )
        if shard_seconds < best_seconds:
            best_name = shard_name
            best_seconds = shard_seconds

    speedup = ref_seconds / best_seconds if best_seconds > 0 else 0.0
    footer = (
        f"worlds={M1024_WORLDS} pool={len(pairs)} rounds={M1024_ROUNDS} "
        f"jit={int(HAVE_NUMBA)} cpu_count={cpu_count} smoke={int(SMOKE)}"
    )
    record_figure(
        "bank_scaling_m1024",
        format_table(["kernel", "stacks_ms", "speedup"], rows)
        + "\n"
        + footer,
    )
    record_bench(
        "bank_scaling_m1024", best_seconds * 1e3, speedup,
        kernel=best_name, worlds=M1024_WORLDS, pool=len(pairs),
        rounds=M1024_ROUNDS, jit=HAVE_NUMBA, cpu_count=cpu_count,
        shards=shards,
    )

    assert speedup >= M1024_MIN_SPEEDUP, (
        f"large-M kernel too slow: per-world {ref_seconds:.3f}s vs "
        f"{best_name} {best_seconds:.3f}s ({speedup:.1f}x)"
    )
    if HAVE_NUMBA:
        jit_gain = packed_seconds / best_seconds if best_seconds > 0 else 0.0
        assert jit_gain >= MIN_SPEEDUP, (
            f"compiled kernel too slow: packed {packed_seconds:.3f}s vs "
            f"{best_name} {best_seconds:.3f}s ({jit_gain:.1f}x)"
        )
