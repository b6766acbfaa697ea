"""Chunking edge cases: tiny sample counts, zero rejection, ordering.

The engine's range dispatch and reduction tree are its contract
surface — these tests pin their behavior where it is easiest to get
silently wrong: fewer samples than workers, zero samples, the
single-range degenerate case (which must not spin up an executor at
all), and the matrix reduction tree that must stay canonical however
the sample ranges cut it.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion import campaign
from repro.diffusion.montecarlo import SigmaEstimator, replicated_sigma_stats
from repro.engine import (
    ProcessPoolBackend,
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    run_chunk,
)
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance
from tests.reference import canonical_fold

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])
#: Groups of a collector block: ``GROUP`` first, then two others.
BLOCK = [GROUP, SeedGroup([Seed(1, 2, 1), Seed(3, 0, 2)]), SeedGroup([Seed(4, 3, 1)])]


def _task(instance, n_samples):
    from repro.diffusion.models import DiffusionModel

    return ReplicationTask(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=9,
        rng_context=("mc",),
        seed_groups=[GROUP],
        n_samples=n_samples,
    )


class TestZeroSamples:
    @pytest.mark.parametrize("backend_factory", [SerialBackend, ThreadBackend])
    def test_backends_reject_zero_samples(self, backend_factory):
        backend = backend_factory()
        try:
            for n_samples in (0, -3):
                with pytest.raises(ValueError, match="n_samples"):
                    backend.run(_task(build_tiny_instance(), n_samples))
        finally:
            backend.close()


class TestFewerSamplesThanWorkers:
    """n_samples < workers must still produce canonical estimates."""

    def test_thread_pool_matches_serial(self):
        instance = build_tiny_instance()
        task = _task(instance, 2)
        serial = SerialBackend().run(task)
        with ThreadBackend(workers=4) as pool:
            pooled = pool.run(task)
        assert np.array_equal(serial.sigmas, pooled.sigmas)
        assert serial.n_samples == pooled.n_samples == 2

    def test_process_pool_matches_serial(self):
        instance = build_tiny_instance()
        task = _task(instance, 3)
        serial = SerialBackend().run(task)
        with ProcessPoolBackend(workers=4) as pool:
            pooled = pool.run(task)
        assert np.array_equal(serial.sigmas, pooled.sigmas)

    def test_estimator_single_sample(self):
        instance = build_tiny_instance()
        estimate = SigmaEstimator(
            instance, n_samples=1, rng_factory=RngFactory(2)
        ).estimate(GROUP)
        assert estimate.n_samples == 1
        assert estimate.sigma_std == 0.0  # one sample has no spread


class TestSingleChunk:
    def test_single_chunk_skips_executor(self, monkeypatch):
        """A one-chunk run must not pay pool start-up.

        The fast path only exists without supervision knobs, so pin a
        clean environment (the CI chaos leg exports a fault plan,
        under which every dispatch rightly goes through the pool).
        """
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        instance = build_tiny_instance()
        with ThreadBackend(workers=1) as pool:
            result = pool.run(_task(instance, 3))
            assert result.n_samples == 3
            assert pool._executor is None  # never spun up
        with ThreadBackend(workers=4) as pool:
            result = pool.run(_task(instance, 1))
            assert result.n_samples == 1
            assert pool._executor is None

    def test_single_chunk_result_matches_run_chunk(self):
        instance = build_tiny_instance()
        task = _task(instance, 3)
        direct = run_chunk(task, [0, 1, 2])
        via_backend = SerialBackend().run(task)
        assert np.array_equal(direct.sigmas, via_backend.sigmas)

    def test_map_chunks_preserves_chunk_order(self):
        """map_chunks returns results in chunk order."""

        def identify(task, chunk):
            return (task, list(chunk))

        chunks = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        with ThreadBackend(workers=4) as pool:
            results = pool.map_chunks(identify, "task", chunks)
        assert results == [("task", chunk) for chunk in chunks]
        serial_results = SerialBackend().map_chunks(identify, "task", chunks)
        assert serial_results == results


#: Each pool is built once for the whole class: starting process pools
#: per case would dominate the run.
_BACKENDS = {
    "serial": lambda: SerialBackend(),
    "thread3": lambda: ThreadBackend(workers=3),
    "process2": lambda: ProcessPoolBackend(workers=2),
    "process3": lambda: ProcessPoolBackend(workers=3),
}


@pytest.fixture(scope="module", params=sorted(_BACKENDS))
def backend(request):
    with _BACKENDS[request.param]() as backend:
        yield backend


class TestCanonicalReduction:
    """Matrix sums keep the canonical tree wherever the samples ran.

    The backends' equality tests compare backends with one another, so
    a reduction tree moved on every backend at once would pass them;
    this pins each estimate to the reference fold — one fold per
    4-sample chunk, merged in chunk order — bit for bit.
    """

    USERS = {0, 1, 2}

    @pytest.mark.parametrize("n_samples", [1, 3, 4, 5, 10, 13])
    def test_estimate_matches_the_canonical_fold(self, backend, n_samples):
        instance = build_tiny_instance()
        estimate = SigmaEstimator(
            instance,
            n_samples=n_samples,
            rng_factory=RngFactory(9),
            backend=backend,
        ).estimate(
            GROUP,
            restrict_users=self.USERS,
            compute_likelihood=True,
            collect_weights=True,
        )
        reference = canonical_fold(
            replace(
                _task(instance, n_samples),
                restrict_users=frozenset(self.USERS),
            )
        )
        assert np.array_equal(estimate.mean_weights, reference.weights_sum / n_samples)
        assert estimate.likelihood == float(reference.likelihoods.mean())
        assert estimate.sigma_restricted == float(reference.restricted.mean())
        assert estimate.sigma == float(reference.sigmas.mean())

    @pytest.mark.parametrize("n_samples", [1, 3, 4, 5, 10, 13])
    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_block_groups_match_their_own_canonical_fold(
        self, backend, n_groups, n_samples
    ):
        """Every group of a block that carries every collector equals
        the reference fold of its own one-group task, wherever the
        ranges cut the block."""
        task = replace(
            _task(build_tiny_instance(), n_samples),
            seed_groups=BLOCK[:n_groups],
            restrict_users=frozenset(self.USERS),
            compute_likelihood=True,
            collect_weights=True,
        )
        estimates = replicated_sigma_stats(backend, task)
        assert len(estimates) == n_groups
        for group, estimate in zip(BLOCK, estimates):
            reference = canonical_fold(replace(task, seed_groups=[group]))
            assert np.array_equal(
                estimate.mean_weights, reference.weights_sum / n_samples
            )
            assert estimate.likelihood == float(reference.likelihoods.mean())
            assert estimate.sigma_restricted == float(reference.restricted.mean())
            assert estimate.sigma == float(reference.sigmas.mean())
            assert estimate.sigma_std == float(reference.sigmas.std())


def test_collectors_keep_one_state_alive(monkeypatch):
    """A range's collectors read one materialized final state at a time:
    each outcome, with its state, goes before the next is read."""
    final_state = campaign._Replicas.final_state
    states: list[weakref.ref] = []
    alive: list[int] = []

    def spy(replicas, *args, **kwargs):
        state = final_state(replicas, *args, **kwargs)
        states.append(weakref.ref(state))
        alive.append(sum(ref() is not None for ref in states))
        return state

    monkeypatch.setattr(campaign._Replicas, "final_state", spy)
    SigmaEstimator(
        build_tiny_instance(), n_samples=12, rng_factory=RngFactory(9)
    ).estimate(GROUP, restrict_users={0, 1, 2}, compute_likelihood=True)
    assert len(states) == 12
    assert max(alive) == 1
