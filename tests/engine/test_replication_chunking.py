"""Chunking edge cases: tiny sample counts, zero rejection, ordering.

The canonical chunk partition is the engine's contract surface — these
tests pin its behavior where it is easiest to get silently wrong:
fewer samples than workers, zero samples, and the single-chunk
degenerate case that must still follow canonical order (and must not
spin up an executor at all).
"""

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import (
    ProcessPoolBackend,
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    chunk_indices,
    run_chunk,
)
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])


def _task(instance):
    from repro.diffusion.models import DiffusionModel

    return ReplicationTask(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=9,
        rng_context=("mc",),
        seed_group=GROUP,
    )


class TestZeroSamples:
    def test_chunk_indices_rejects_zero(self):
        with pytest.raises(ValueError, match="n_samples"):
            chunk_indices(0)

    def test_chunk_indices_rejects_negative(self):
        with pytest.raises(ValueError):
            chunk_indices(-3)

    @pytest.mark.parametrize("backend_factory", [SerialBackend, ThreadBackend])
    def test_backends_reject_zero_samples(self, backend_factory):
        backend = backend_factory()
        try:
            with pytest.raises(ValueError):
                backend.run(_task(build_tiny_instance()), 0)
        finally:
            backend.close()


class TestFewerSamplesThanWorkers:
    """n_samples < workers must still produce canonical estimates."""

    def test_thread_pool_matches_serial(self):
        instance = build_tiny_instance()
        task = _task(instance)
        serial = SerialBackend(chunk_size=1).run(task, 2)
        with ThreadBackend(workers=4, chunk_size=1) as pool:
            pooled = pool.run(task, 2)
        assert np.array_equal(serial.sigmas, pooled.sigmas)
        assert serial.n_samples == pooled.n_samples == 2

    def test_process_pool_matches_serial(self):
        instance = build_tiny_instance()
        task = _task(instance)
        serial = SerialBackend(chunk_size=1).run(task, 3)
        with ProcessPoolBackend(workers=4, chunk_size=1) as pool:
            pooled = pool.run(task, 3)
        assert np.array_equal(serial.sigmas, pooled.sigmas)

    def test_estimator_single_sample(self):
        instance = build_tiny_instance()
        estimate = SigmaEstimator(
            instance, n_samples=1, rng_factory=RngFactory(2)
        ).estimate(GROUP)
        assert estimate.n_samples == 1
        assert estimate.sigma_std == 0.0  # one sample has no spread


class TestSingleChunk:
    def test_single_chunk_is_canonical_prefix(self):
        assert chunk_indices(3, 8) == [[0, 1, 2]]
        assert chunk_indices(4, 4) == [[0, 1, 2, 3]]

    def test_single_chunk_skips_executor(self, monkeypatch):
        """A one-chunk run must not pay pool start-up.

        The fast path only exists without supervision knobs, so pin a
        clean environment (the CI chaos leg exports a fault plan,
        under which every dispatch rightly goes through the pool).
        """
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        instance = build_tiny_instance()
        with ThreadBackend(workers=4, chunk_size=8) as pool:
            result = pool.run(_task(instance), 3)
            assert result.n_samples == 3
            assert pool._executor is None  # never spun up

    def test_single_chunk_result_matches_run_chunk(self):
        instance = build_tiny_instance()
        task = _task(instance)
        direct = run_chunk(task, [0, 1, 2])
        via_backend = SerialBackend(chunk_size=8).run(task, 3)
        assert np.array_equal(direct.sigmas, via_backend.sigmas)

    def test_map_chunks_preserves_chunk_order(self):
        """map_chunks returns results in canonical chunk order."""

        def identify(task, chunk):
            return (task, list(chunk))

        chunks = chunk_indices(10, 3)
        with ThreadBackend(workers=4) as pool:
            results = pool.map_chunks(identify, "task", chunks)
        assert results == [("task", chunk) for chunk in chunks]
        serial_results = SerialBackend().map_chunks(identify, "task", chunks)
        assert serial_results == results
