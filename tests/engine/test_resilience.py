"""Chaos suite: supervised retry, CRN-exact recovery, fault injection.

Every test drives real faults through the real recovery machinery —
worker processes killed with ``os._exit``, chunks that raise, chunks
that sleep past their deadline — and asserts the headline guarantee:
outputs are *bit-identical* to a fault-free serial run, because chunks
are pure functions of ``(task, chunk)`` under common random numbers.
"""

import warnings

import numpy as np
import pytest

from repro.core.dysim import Dysim, DysimConfig
from repro.core.problem import Seed, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator, replicated_sigma_stats
from repro.engine import (
    ProcessPoolBackend,
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
)
from repro.engine.resilience import (
    FaultPlan,
    FaultSpec,
    FaultStats,
    InjectedFault,
    RetryPolicy,
)
from repro.sketch.bank import RealizationBank
from repro.sketch.oracle import make_sigma_estimator
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance

GROUP = SeedGroup([Seed(0, 0, 1), Seed(3, 2, 2)])

#: Fast-retry knobs shared by the injection tests (no real backoff
#: sleeps; tests that need the defaults build their own policy).
FAST = dict(retries=2)


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """Clear the fault-plan env so the CI chaos leg's REPRO_FAULT_PLAN
    cannot skew the assertions."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


def double_chunk(task, chunk):
    """Toy chunk body: deterministic in (task, chunk), picklable."""
    return [task * i for i in chunk]


def failing_chunk(task, chunk):
    raise ValueError("chunk exploded for real")


CHUNKS = [[0, 1], [2, 3], [4, 5]]
EXPECTED = [[0, 10], [20, 30], [40, 50]]


def _estimate(backend, instance):
    estimator = SigmaEstimator(
        instance, n_samples=10, rng_factory=RngFactory(4), backend=backend
    )
    return estimator.estimate(
        GROUP,
        restrict_users={0, 1, 2},
        compute_likelihood=True,
        collect_weights=True,
    )


def _assert_bit_identical(a, b):
    assert a.sigma == b.sigma
    assert a.sigma_std == b.sigma_std
    assert a.sigma_restricted == b.sigma_restricted
    assert a.likelihood == b.likelihood
    assert np.array_equal(a.mean_weights, b.mean_weights)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash", chunk=1, call=0),
                FaultSpec(kind="hang", chunk=0, call=2, times=-1),
            ),
            every_nth_chunk=5,
            every_kind="exception",
            rate=0.25,
            seed=7,
            hang_seconds=1.5,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_env_inline_and_file(self, monkeypatch, tmp_path):
        inline = '{"every_nth_chunk": 3, "every_kind": "exception"}'
        monkeypatch.setenv("REPRO_FAULT_PLAN", inline)
        plan = FaultPlan.from_env()
        assert plan.every_nth_chunk == 3
        assert plan.every_kind == "exception"

        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        assert FaultPlan.from_env() == plan

    def test_env_plan_reaches_backends(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"every_nth_chunk": 4}')
        backend = ThreadBackend(workers=2)
        assert backend.fault_plan is not None
        assert backend.fault_plan.every_nth_chunk == 4
        backend.close()
        # An explicit (even empty) plan masks the environment.
        masked = ThreadBackend(workers=2, fault_plan=FaultPlan())
        assert masked.fault_plan.every_nth_chunk is None
        masked.close()

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meltdown", chunk=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(every_kind="meltdown")
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError, match="every_nth_chunk"):
            FaultPlan(every_nth_chunk=0)
        with pytest.raises(ValueError, match="fault plan"):
            FaultPlan.from_json("[1, 2]")

    def test_every_nth_counts_global_chunks(self):
        plan = FaultPlan(every_nth_chunk=3, every_kind="exception")
        kinds = [
            plan.fault_for(0, chunk, global_chunk, 0)
            for global_chunk, chunk in enumerate(range(6))
        ]
        assert kinds == [None, None, "exception", None, None, "exception"]
        # Faults fire on the first attempt only — retries run clean.
        assert plan.fault_for(0, 2, 2, 1) is None

    def test_rate_is_seeded_and_deterministic(self):
        plan = FaultPlan(rate=0.5, seed=11, every_kind="crash")
        first = [plan.fault_for(0, c, c, 0) for c in range(32)]
        second = [plan.fault_for(0, c, c, 0) for c in range(32)]
        assert first == second
        assert any(kind == "crash" for kind in first)
        assert any(kind is None for kind in first)
        shifted = [
            FaultPlan(rate=0.5, seed=12).fault_for(0, c, c, 0)
            for c in range(32)
        ]
        assert shifted != first

    def test_spec_times_bounds_attempts(self):
        spec = FaultSpec(kind="exception", chunk=0, times=2)
        assert spec.matches(0, 0, 0)
        assert spec.matches(5, 0, 1)
        assert not spec.matches(0, 0, 2)
        always = FaultSpec(kind="exception", chunk=0, times=-1)
        assert always.matches(0, 0, 99)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_cap=3.0)
        delays = [policy.backoff_delay(k) for k in range(5)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]
        assert RetryPolicy(backoff_base=0.0).backoff_delay(3) == 0.0

    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="chunk_timeout"):
            RetryPolicy(chunk_timeout=0.0)


class TestFaultStats:
    def test_delta_and_dict_round_trip(self):
        stats = FaultStats(retries=3, crashed_chunks=2, pool_rebuilds=1)
        snap = stats.copy()
        stats.retries += 2
        stats.note_degraded("thread")
        delta = stats.delta(snap)
        assert delta.retries == 2
        assert delta.crashed_chunks == 0
        assert delta.degraded_to == "thread"
        assert FaultStats.from_dict(delta.as_dict()) == delta

    def test_activity_flag(self):
        assert not FaultStats().activity
        assert FaultStats(retries=1).activity
        assert FaultStats(degradations=1, degraded_to="thread").activity


class TestSerialRecovery:
    def test_injected_exception_is_retried(self):
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=1),))
        backend = SerialBackend(fault_plan=plan, **FAST)
        assert backend.map_chunks(double_chunk, 10, CHUNKS) == EXPECTED
        assert backend.fault_stats.chunk_errors == 1
        assert backend.fault_stats.retries == 1

    def test_sigma_bit_identical_with_faults(self, tiny_instance):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="exception", chunk=0),
                FaultSpec(kind="crash", chunk=2),
            )
        )
        clean = _estimate(SerialBackend(), tiny_instance)
        faulted = _estimate(SerialBackend(fault_plan=plan), tiny_instance)
        _assert_bit_identical(clean, faulted)

    def test_exhausted_retries_reraise(self):
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=0, times=-1),))
        backend = SerialBackend(fault_plan=plan, retries=1)
        with pytest.raises(InjectedFault):
            backend.map_chunks(double_chunk, 10, CHUNKS)
        assert backend.fault_stats.chunk_errors == 2

    def test_no_plan_means_no_supervision_overhead(self):
        backend = SerialBackend()
        assert backend.map_chunks(double_chunk, 10, CHUNKS) == EXPECTED
        assert not backend.fault_stats.activity


class TestPoolRecovery:
    def test_thread_injected_crash_recovers(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash", chunk=0),))
        with ThreadBackend(workers=2, fault_plan=plan, **FAST) as backend:
            assert backend.map_chunks(double_chunk, 10, CHUNKS) == EXPECTED
            assert backend.fault_stats.crashed_chunks == 1
            assert backend.fault_stats.retries == 1

    def test_process_worker_death_bit_identical(self, tiny_instance):
        """A worker killed mid-run costs nothing but wall clock."""
        clean = _estimate(SerialBackend(), tiny_instance)
        plan = FaultPlan(faults=(FaultSpec(kind="crash", chunk=1, call=0),))
        with ProcessPoolBackend(workers=2, fault_plan=plan, **FAST) as pool:
            recovered = _estimate(pool, tiny_instance)
            stats = pool.fault_stats
            assert stats.crashed_chunks >= 1
            assert stats.pool_rebuilds >= 1
        _assert_bit_identical(clean, recovered)

    def test_process_block_crash_bit_identical(self, tiny_instance):
        """A worker killed in the second range of a 3-group block costs
        nothing but wall clock: every group's estimate, collectors
        included, is the serial one."""
        task = ReplicationTask(
            instance=tiny_instance,
            model=DiffusionModel.INDEPENDENT_CASCADE,
            rng_seed=4,
            rng_context=("mc",),
            seed_groups=[GROUP, SeedGroup([Seed(1, 1, 1)]), SeedGroup()],
            n_samples=5,
            restrict_users=frozenset({0, 1, 2}),
            compute_likelihood=True,
            collect_weights=True,
        )
        clean = replicated_sigma_stats(SerialBackend(), task)
        plan = FaultPlan(faults=(FaultSpec(kind="crash", chunk=1, call=0),))
        with ProcessPoolBackend(workers=2, fault_plan=plan, **FAST) as pool:
            recovered = replicated_sigma_stats(pool, task)
            assert pool.fault_stats.crashed_chunks >= 1
            assert pool.fault_stats.retries >= 1
        assert len(recovered) == len(clean) == 3
        for ours, theirs in zip(recovered, clean):
            _assert_bit_identical(ours, theirs)

    def test_process_hung_chunk_bit_identical(self, tiny_instance):
        """A chunk sleeping past the deadline is abandoned and redone."""
        clean = _estimate(SerialBackend(), tiny_instance)
        plan = FaultPlan(
            faults=(FaultSpec(kind="hang", chunk=0, call=0),),
            hang_seconds=30.0,
        )
        with ProcessPoolBackend(
            workers=2, fault_plan=plan, chunk_timeout=2.0, **FAST
        ) as pool:
            recovered = _estimate(pool, tiny_instance)
            stats = pool.fault_stats
            assert stats.hung_chunks >= 1
            assert stats.pool_rebuilds >= 1
            assert stats.wall_seconds_lost > 0
        _assert_bit_identical(clean, recovered)


class TestDegradationLadder:
    def test_thread_rung_recovers_with_one_warning(self):
        # retries=0: one pool attempt (faulted), then the thread rung
        # runs the chunk clean.
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=0),))
        with ThreadBackend(workers=2, retries=0, fault_plan=plan) as backend:
            with pytest.warns(RuntimeWarning, match="degrading"):
                assert backend.map_chunks(double_chunk, 10, CHUNKS) == EXPECTED
            assert backend.fault_stats.degraded_to == "thread"
            # The warning is once per backend — a second degradation
            # stays silent.
            plan2_results = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                plan2_results = backend.map_chunks(double_chunk, 10, CHUNKS)
            assert plan2_results == EXPECTED
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_serial_rung_recovers(self):
        # times=2 with retries=0 exhausts the pool attempt AND the
        # thread-rung attempt; the serial rung runs clean.
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=1, times=2),))
        with ThreadBackend(workers=2, retries=0, fault_plan=plan) as backend:
            with pytest.warns(RuntimeWarning, match="degrading"):
                assert backend.map_chunks(double_chunk, 10, CHUNKS) == EXPECTED
            assert backend.fault_stats.degraded_to == "serial"
            assert backend.fault_stats.degradations == 2

    def test_persistent_fault_raises_from_serial_rung(self):
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=0, times=-1),))
        with ThreadBackend(workers=2, retries=0, fault_plan=plan) as backend:
            with pytest.warns(RuntimeWarning, match="degrading"):
                with pytest.raises(InjectedFault):
                    backend.map_chunks(double_chunk, 10, CHUNKS)

    def test_real_error_propagates_after_ladder(self):
        # A chunk body that deterministically raises is not an
        # infrastructure fault: it walks the whole ladder and the real
        # exception surfaces from the serial rung.
        with ThreadBackend(workers=2, retries=0, fault_plan=FaultPlan()) as backend:
            with pytest.warns(RuntimeWarning, match="degrading"):
                with pytest.raises(ValueError, match="chunk exploded"):
                    backend.map_chunks(failing_chunk, 10, CHUNKS)

    def test_degradation_is_bit_identical(self, tiny_instance):
        clean = _estimate(SerialBackend(), tiny_instance)
        plan = FaultPlan(faults=(FaultSpec(kind="exception", chunk=0),))
        with ThreadBackend(workers=2, retries=0, fault_plan=plan) as pool:
            with pytest.warns(RuntimeWarning, match="degrading"):
                degraded = _estimate(pool, tiny_instance)
        _assert_bit_identical(clean, degraded)


class TestChaosBitIdentity:
    def test_bank_stacks_bit_identical_under_faults(self):
        instance = build_tiny_instance().frozen()
        clean = RealizationBank(instance, n_worlds=12, rng_seed=3)
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash", chunk=0, call=0),
                FaultSpec(kind="exception", chunk=1),
            )
        )
        with ThreadBackend(workers=2, fault_plan=plan, **FAST) as backend:
            chaotic = RealizationBank(
                instance, n_worlds=12, rng_seed=3, backend=backend
            )
            # Both planned faults fired during the build.
            stats = backend.fault_stats
            assert (stats.crashed_chunks, stats.chunk_errors) == (1, 1)
            for clean_coins, chaos_coins in zip(
                clean._world_coins, chaotic._world_coins
            ):
                assert np.array_equal(clean_coins, chaos_coins)
            pairs = [clean.pair_index(0, 0), clean.pair_index(3, 2)]
            assert clean.sigma(pairs) == chaotic.sigma(pairs)
            for clean_stack, chaos_stack in zip(
                clean.stacks_for(pairs), chaotic.stacks_for(pairs)
            ):
                assert np.array_equal(clean_stack, chaos_stack)

    def test_rrset_index_bit_identical_under_faults(self):
        instance = build_tiny_instance().frozen()
        clean = make_sigma_estimator(
            "rrset",
            instance,
            n_samples=64,
            rng_factory=RngFactory(9),
        )
        clean.prepare()
        plan = FaultPlan(every_nth_chunk=3, every_kind="exception")
        with ThreadBackend(workers=2, fault_plan=plan, **FAST) as backend:
            chaotic = make_sigma_estimator(
                "rrset",
                instance,
                n_samples=64,
                rng_factory=RngFactory(9),
                backend=backend,
            )
            chaotic.prepare()
            for name in ("present", "member_rows", "roots", "sizes"):
                assert np.array_equal(
                    getattr(clean.index, name), getattr(chaotic.index, name)
                )
            assert clean.sigma(GROUP) == chaotic.sigma(GROUP)

    def test_sketch_sigma_bit_identical_under_process_faults(self):
        instance = build_tiny_instance().frozen()
        clean = make_sigma_estimator(
            "sketch", instance, n_samples=12, rng_factory=RngFactory(2)
        )
        clean.prepare()
        plan = FaultPlan(faults=(FaultSpec(kind="crash", chunk=1, call=0),))
        with ProcessPoolBackend(workers=2, fault_plan=plan, **FAST) as pool:
            chaotic = make_sigma_estimator(
                "sketch",
                instance,
                n_samples=12,
                rng_factory=RngFactory(2),
                backend=pool,
            )
            chaotic.prepare()
            assert clean.sigma(GROUP) == chaotic.sigma(GROUP)


class TestDysimAcceptance:
    def test_dysim_runs_on_the_backend_it_is_given(self, monkeypatch):
        """Every estimate dispatches through the given pool, with the
        pool's own retry policy and deadline, and Dysim leaves it open
        for its owner."""
        config = DysimConfig(n_samples_selection=4, n_samples_inner=4)
        serial = Dysim(build_tiny_instance(), config).run()
        with ThreadBackend(workers=2, retries=5, chunk_timeout=9.0) as pool:
            dispatches = []
            map_chunks = pool.map_chunks

            def recording(fn, task, chunks):
                dispatches.append(len(chunks))
                return map_chunks(fn, task, chunks)

            monkeypatch.setattr(pool, "map_chunks", recording)
            dysim = Dysim(build_tiny_instance(), config, backend=pool)
            for estimator in (dysim._frozen_estimator, dysim._dynamic_estimator):
                assert estimator.backend is pool
            result = dysim.run()
            assert dispatches
            assert not pool.closed
        assert pool.retry_policy.max_retries == 5
        assert pool.retry_policy.chunk_timeout == 9.0
        assert result.backend == "thread"
        assert result.sigma == serial.sigma
        assert list(result.seed_group) == list(serial.seed_group)

    def test_dysim_survives_crash_and_hang_bit_identically(self):
        """The issue's acceptance bar: >=1 worker crash and >=1 hung
        chunk in a process-backend Dysim run; committed seed set and
        sigma bit-identical to the fault-free serial run."""
        config = DysimConfig(n_samples_selection=8, n_samples_inner=8)
        baseline = Dysim(build_tiny_instance(), config, backend=SerialBackend()).run()
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash", chunk=1, call=0),
                FaultSpec(kind="hang", chunk=0, call=2),
            ),
            hang_seconds=30.0,
        )
        with ProcessPoolBackend(
            workers=2, fault_plan=plan, chunk_timeout=3.0, **FAST
        ) as pool:
            chaotic = Dysim(build_tiny_instance(), config, backend=pool).run()
        assert list(chaotic.seed_group) == list(baseline.seed_group)
        assert chaotic.sigma == baseline.sigma
        assert chaotic.fault_stats, "recoveries must be reported"
        assert chaotic.fault_stats["crashed_chunks"] >= 1
        assert chaotic.fault_stats["hung_chunks"] >= 1
        assert chaotic.fault_stats["pool_rebuilds"] >= 1
        assert baseline.fault_stats == {}

    def test_harness_diagnostics_surface_fault_stats(self):
        from repro.eval.harness import run_dysim

        plan = FaultPlan(faults=(FaultSpec(kind="crash", chunk=1, call=0),))
        with ThreadBackend(workers=2, fault_plan=plan, **FAST) as pool:
            result = run_dysim(build_tiny_instance(), n_samples=8, backend=pool)
        stats = result.diagnostics["fault_stats"]
        assert stats["crashed_chunks"] >= 1
        clean = run_dysim(build_tiny_instance(), n_samples=8)
        assert clean.diagnostics["fault_stats"] == {}
