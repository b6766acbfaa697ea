"""Selection-layer scaling — batched packed gains vs. scalar boolean.

Runs the coverage gain evaluation at the heart of nominee selection on
the yelp realization bank two ways: the boolean scalar reference
(``tests.reference.CoverageEvaluator``, one candidate per
call against a ``(n_worlds, n_pairs)`` boolean mask) and the unified
selection layer's packed kernel
(:class:`~repro.core.selection.CoverageGainOracle`, whole candidate
blocks against packed ``uint64`` words).  Both produce bit-identical
gains; the benchmark records the wall-clock series and the bank-mask
memory ratio to ``benchmarks/results/selection_scaling.txt``.

Assertions: batched packed evaluation is at least 3x faster than the
scalar path (1.5x under CI smoke, where runner contention makes
wall-clock floors flaky — same policy as the frontier benchmark), and
the packed reachability stacks use at most 1/4 of the boolean bytes
(~1/8 once users fill their 64-bit words; yelp-at-scale keeps some
padding).

Environment knobs: ``REPRO_BENCH_SELECTION_WORLDS`` (default 12),
``REPRO_BENCH_SELECTION_POOL`` (default 150) and
``REPRO_BENCH_SELECTION_ROUNDS`` (default 4).
"""

import time

import numpy as np

from repro.core.dysim.nominees import rank_candidates
from repro.core.selection import CoverageGainOracle
from repro.sketch import RealizationBank
from repro.eval.reporting import format_table

from benchmarks.conftest import SMOKE, _env_int, record_bench, record_figure
from tests.reference import CoverageEvaluator

SELECTION_WORLDS = _env_int("REPRO_BENCH_SELECTION_WORLDS", 12)
SELECTION_POOL = _env_int("REPRO_BENCH_SELECTION_POOL", 150)
SELECTION_ROUNDS = _env_int("REPRO_BENCH_SELECTION_ROUNDS", 4)
MIN_SPEEDUP = 1.5 if SMOKE else 3.0


def _greedy_rounds_scalar(bank, pairs):
    evaluator = CoverageEvaluator(bank)
    picks = []
    for _ in range(SELECTION_ROUNDS):
        gains = np.array([evaluator.gain(pair) for pair in pairs])
        best = int(gains.argmax())
        picks.append(best)
        evaluator.add(pairs[best])
    return picks, evaluator.value


def _greedy_rounds_batched(bank, universe):
    oracle = CoverageGainOracle(bank)
    picks = []
    for _ in range(SELECTION_ROUNDS):
        gains = oracle.gains(universe)
        best = int(gains.argmax())
        picks.append(best)
        oracle.commit(universe[best], float(gains[best]))
    return picks, oracle.value


def test_selection_scaling(dataset_cache):
    instance = dataset_cache("yelp")
    frozen = instance.frozen()
    bank = RealizationBank(
        frozen, n_worlds=SELECTION_WORLDS, rng_seed=0
    )
    universe = rank_candidates(instance, SELECTION_POOL)
    pairs = [bank.pair_index(user, item) for user, item in universe]

    # Warm the bank's reachability stacks once so both paths time
    # the gain evaluation, not the BFS.
    for pair in pairs:
        bank.stacked_reach_packed(pair)

    started = time.perf_counter()
    scalar_picks, scalar_value = _greedy_rounds_scalar(bank, pairs)
    scalar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched_picks, batched_value = _greedy_rounds_batched(bank, universe)
    batched_seconds = time.perf_counter() - started

    speedup = (
        scalar_seconds / batched_seconds if batched_seconds > 0 else 0.0
    )
    evaluations = SELECTION_ROUNDS * len(universe)
    packed_bytes = sum(
        bank.stacked_reach_packed(pair).nbytes for pair in pairs
    )
    bool_bytes = bank.n_worlds * bank.skeleton.n_pairs * len(pairs)
    memory_ratio = bool_bytes / packed_bytes if packed_bytes else 0.0

    rows = [
        [
            "scalar-bool",
            f"{scalar_seconds * 1e3:.1f}",
            "1.00",
            f"{bool_bytes / 1e6:.1f}",
        ],
        [
            "batched-packed",
            f"{batched_seconds * 1e3:.1f}",
            f"{speedup:.2f}",
            f"{packed_bytes / 1e6:.1f}",
        ],
    ]
    footer = (
        f"worlds={SELECTION_WORLDS} pool={len(universe)} "
        f"rounds={SELECTION_ROUNDS} gain_evaluations={evaluations} "
        f"mask_memory_ratio={memory_ratio:.1f}x smoke={int(SMOKE)}"
    )
    record_figure(
        "selection_scaling",
        format_table(
            ["kernel", "ms_total", "speedup", "stack_megabytes"], rows
        )
        + "\n"
        + footer,
    )
    record_bench(
        "selection_scaling", batched_seconds * 1e3, speedup,
        worlds=SELECTION_WORLDS, pool=len(universe),
        rounds=SELECTION_ROUNDS,
    )

    # Both kernels are the same function — identical picks and value.
    assert batched_picks == scalar_picks
    assert batched_value == scalar_value

    # Packed words cut the reachability-stack memory (>=4x with
    # padding; ~8x once every 64-slot word is full).
    assert packed_bytes * 4 <= bool_bytes

    assert speedup >= MIN_SPEEDUP, (
        f"batched packed gains too slow: scalar {scalar_seconds:.3f}s "
        f"vs batched {batched_seconds:.3f}s ({speedup:.1f}x)"
    )
