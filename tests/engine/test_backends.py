"""Determinism and equivalence tests for the execution backends."""

import numpy as np
import pytest

from repro.core.dysim import Dysim, DysimConfig
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
    resolve_backend,
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
        serial = Dysim(build_tiny_instance(), DysimConfig(backend="serial")).run()
        threaded = Dysim(
            build_tiny_instance(), DysimConfig(backend="thread", workers=2)
        ).run()
        before = own_shm_exports()
        with ProcessPoolBackend(workers=2) as pool:
            pooled = Dysim(build_tiny_instance(), DysimConfig(backend=pool)).run()
        assert not own_shm_exports() - before
        for result in (threaded, pooled):
            assert result.sigma == serial.sigma
            assert list(result.seed_group) == list(serial.seed_group)
            assert result.fallback_used == serial.fallback_used
        assert threaded.backend == "thread"
        assert pooled.backend == "process"


class TestResolution:
    def test_names_cover_all_backends(self):
        assert set(BACKEND_NAMES) == {"serial", "thread", "process"}

    def test_resolve_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        backend = resolve_backend("thread", workers=5)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 5

    def test_resolve_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_none_is_serial_default(self):
        assert resolve_backend(None).name == "serial"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_non_backend_raises(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

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
