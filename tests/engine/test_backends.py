"""Determinism and equivalence tests for the execution backends."""

import numpy as np
import pytest

from repro.baselines.common import make_estimators
from repro.core.dysim import AdaptiveDysim, Dysim, DysimConfig
from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import (
    BACKEND_NAMES,
    ChunkResult,
    ProcessPoolBackend,
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    chunk_indices,
    make_backend,
    run_chunk,
)
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance, own_shm_exports

GROUP = SeedGroup([Seed(0, 0, 1), Seed(3, 2, 2)])


def _full_estimate(backend, instance):
    estimator = SigmaEstimator(
        instance, n_samples=10, rng_factory=RngFactory(4), backend=backend
    )
    return estimator.estimate(
        GROUP,
        restrict_users={0, 1, 2},
        compute_likelihood=True,
        collect_weights=True,
        collect_adoptions=True,
    )


def _assert_bit_identical(a, b):
    assert a.sigma == b.sigma
    assert a.sigma_std == b.sigma_std
    assert a.sigma_restricted == b.sigma_restricted
    assert a.likelihood == b.likelihood
    assert np.array_equal(a.mean_weights, b.mean_weights)
    assert np.array_equal(a.adoption_frequency, b.adoption_frequency)


class TestChunking:
    def test_partition_covers_all_indices(self):
        chunks = chunk_indices(10, 4)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_single_chunk(self):
        assert chunk_indices(3, 8) == [[0, 1, 2]]

    def test_chunk_size_floor(self):
        assert chunk_indices(2, 0) == [[0], [1]]

    def test_run_chunk_is_order_free(self, tiny_instance):
        """Sample i's world depends only on i, not on chunk shape."""
        task = ReplicationTask(
            instance=tiny_instance,
            model=DysimConfig().model,
            rng_seed=4,
            rng_context=("mc",),
            seed_group=GROUP,
        )
        together = run_chunk(task, [0, 1, 2, 3])
        split = ChunkResult.merge([run_chunk(task, [0, 1]), run_chunk(task, [2, 3])])
        assert np.array_equal(together.sigmas, split.sigmas)


class TestBackendEquivalence:
    def test_thread_matches_serial(self, tiny_instance):
        serial = _full_estimate(SerialBackend(), tiny_instance)
        with ThreadBackend(workers=3) as pool:
            threaded = _full_estimate(pool, tiny_instance)
        _assert_bit_identical(serial, threaded)

    def test_process_matches_serial(self, tiny_instance):
        """The ISSUE's headline guarantee: process == serial, bitwise."""
        serial = _full_estimate(SerialBackend(), tiny_instance)
        with ProcessPoolBackend(workers=2) as pool:
            parallel = _full_estimate(pool, tiny_instance)
        _assert_bit_identical(serial, parallel)

    def test_dysim_result_backend_independent(self):
        serial = Dysim(build_tiny_instance(), backend=SerialBackend()).run()
        with ThreadBackend(workers=2) as pool:
            threaded = Dysim(build_tiny_instance(), backend=pool).run()
        before = own_shm_exports()
        with ProcessPoolBackend(workers=2) as pool:
            pooled = Dysim(build_tiny_instance(), backend=pool).run()
        assert not own_shm_exports() - before
        for result in (threaded, pooled):
            assert result.sigma == serial.sigma
            assert list(result.seed_group) == list(serial.seed_group)
            assert result.fallback_used == serial.fallback_used
        assert threaded.backend == "thread"
        assert pooled.backend == "process"

    @pytest.mark.parametrize("pool_class", [ThreadBackend, ProcessPoolBackend])
    def test_adaptive_dysim_on_pools_matches_serial(self, pool_class, monkeypatch):
        """AdaptiveDysim plans every round on the pool it is given and
        plays the serial campaign, field for field."""
        config = DysimConfig(n_samples_selection=4, n_samples_inner=4)

        def play(backend):
            instance = build_tiny_instance(budget=25.0, n_promotions=3)
            return AdaptiveDysim(instance, config, backend=backend).run(1)

        serial = play(SerialBackend())
        before = own_shm_exports()
        with pool_class(workers=2) as pool:
            chunk_counts = []
            map_chunks = pool.map_chunks

            def recording(fn, task, chunks):
                chunk_counts.append(len(chunks))
                return map_chunks(fn, task, chunks)

            monkeypatch.setattr(pool, "map_chunks", recording)
            pooled = play(pool)
        assert chunk_counts, "planning must dispatch through the pool"
        assert not own_shm_exports() - before
        assert list(pooled.seed_group) == list(serial.seed_group)
        assert pooled.sigma_realized == serial.sigma_realized
        assert pooled.sigma_by_promotion == serial.sigma_by_promotion
        assert pooled.spent == serial.spent
        assert pooled.rounds == serial.rounds


class TestResolution:
    def test_names_cover_all_backends(self):
        assert set(BACKEND_NAMES) == {"serial", "thread", "process"}

    @pytest.mark.parametrize("name", sorted(BACKEND_NAMES))
    def test_each_name_builds_its_class(self, name):
        with make_backend(name) as backend:
            assert type(backend) is BACKEND_NAMES[name]
            assert backend.name == name

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_knobs_reach_a_pool(self, name):
        with make_backend(name, workers=1, retries=3, chunk_timeout=60) as pool:
            assert pool.workers == 1
            assert pool.retry_policy.max_retries == 3
            assert pool.retry_policy.chunk_timeout == 60.0
        assert pool.closed

    def test_serial_takes_retries_and_runs_in_the_caller(self):
        backend = make_backend("serial", workers=4, retries=1, chunk_timeout=5)
        assert backend.workers == 1
        assert backend.retry_policy.max_retries == 1
        assert backend.retry_policy.chunk_timeout is None

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_none_gives_a_private_serial_backend(self, tiny_instance):
        first = SigmaEstimator(tiny_instance)
        second = SigmaEstimator(tiny_instance)
        assert first.backend.name == "serial"
        assert first.backend is not second.backend
        # One algorithm run shares one private backend between its two
        # estimators, so its fault accounting is a single record.
        frozen, dynamic = make_estimators(tiny_instance, 4, 0)
        assert frozen.backend is dynamic.backend
        dysim = Dysim(tiny_instance)
        assert dysim._frozen_estimator.backend is dysim._dynamic_estimator.backend

    def test_given_backend_is_borrowed(self, tiny_instance):
        with ThreadBackend(workers=2) as pool:
            estimator = SigmaEstimator(tiny_instance, n_samples=4, backend=pool)
            assert estimator.backend is pool
            estimator.sigma(GROUP)
            assert not pool.closed

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadBackend(workers=-1)

    def test_process_workers_capped_at_cpu_count(self):
        import os

        cpu_count = os.cpu_count() or 1
        backend = ProcessPoolBackend(workers=cpu_count + 7)
        assert backend.workers == cpu_count
        assert backend.requested_workers == cpu_count + 7
        backend.close()

    def test_thread_workers_not_capped(self):
        # Threads legitimately oversubscribe (GIL-released numpy
        # sections, blocking waits) — only process pools are capped.
        import os

        requested = (os.cpu_count() or 1) + 3
        backend = ThreadBackend(workers=requested)
        assert backend.workers == requested
        backend.close()

    def test_closed_pool_backend_is_terminal(self, tiny_instance):
        backend = ThreadBackend(workers=2)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            _full_estimate(backend, tiny_instance)


class TestCleanupLogging:
    def test_failing_cleanup_is_logged_and_does_not_block_others(
        self, caplog
    ):
        import logging

        backend = ThreadBackend(workers=1)
        ran = []

        def exploding_cleanup():
            raise RuntimeError("cleanup exploded")

        backend.add_cleanup(exploding_cleanup)
        backend.add_cleanup(lambda: ran.append("later"))
        with caplog.at_level(logging.WARNING, "repro.engine.backends"):
            backend.close()
        # The failure is visible (callback named in the warning) and
        # the callbacks registered after it still ran.
        assert ran == ["later"]
        messages = [record.getMessage() for record in caplog.records]
        assert any(
            "exploding_cleanup" in msg and "failed" in msg
            for msg in messages
        )
