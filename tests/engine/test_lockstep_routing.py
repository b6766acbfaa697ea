"""Lockstep chunk routing: fast path, fallback, coarsening, defaults.

``run_chunk`` plays a whole chunk of replications in one packed
``run_campaigns_lockstep`` call when the task's step kernel is a
lockstep name and the recipe allows it; otherwise it silently replays
the per-replication kernel.  Both paths are bit-identical by
construction — these tests pin that, plus the surfaces around it: the
``lockstep_applicable`` gate, the backend chunk coarsening, the
process default (``lockstep``) and its plumbing, and the numba-free
``lockstep-jit`` degradation warning.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator
from repro.diffusion import repkernel
from repro.diffusion.repkernel import (
    HAVE_NUMBA,
    get_default_step_kernel,
    resolve_step_kernel,
    set_default_step_kernel,
)
from repro.engine import (
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    run_chunk,
)
from repro.engine.replication import lockstep_applicable
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])


def _task(instance, **overrides):
    kwargs = dict(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=9,
        rng_context=("mc",),
        seed_group=GROUP,
    )
    kwargs.update(overrides)
    return ReplicationTask(**kwargs)


@pytest.fixture()
def frozen_instance():
    return build_tiny_instance().frozen()


class TestApplicability:
    def test_frozen_lockstep_task_is_applicable(self, frozen_instance):
        assert lockstep_applicable(
            _task(frozen_instance, step_kernel="lockstep")
        )
        assert lockstep_applicable(
            _task(frozen_instance, step_kernel="lockstep-jit")
        )

    def test_per_replication_kernels_are_not(self, frozen_instance):
        assert not lockstep_applicable(
            _task(frozen_instance, step_kernel="vectorized")
        )
        assert not lockstep_applicable(
            _task(frozen_instance, step_kernel="scalar")
        )

    def test_dynamic_instance_is_not(self):
        instance = build_tiny_instance()
        assert not instance.dynamics.is_frozen
        assert not lockstep_applicable(
            _task(instance, step_kernel="lockstep")
        )

    def test_state_collectors_disqualify(self, frozen_instance):
        for disqualifier in (
            dict(compute_likelihood=True),
            dict(collect_weights=True),
            dict(collect_adoptions=True),
        ):
            task = _task(
                frozen_instance, step_kernel="lockstep", **disqualifier
            )
            assert not lockstep_applicable(task), disqualifier


class TestRunChunkEquivalence:
    def test_lockstep_chunk_matches_replication_loop(self, frozen_instance):
        restrict = frozenset(range(0, frozen_instance.n_users, 2))
        reference = run_chunk(
            _task(
                frozen_instance,
                step_kernel="vectorized",
                restrict_users=restrict,
            ),
            list(range(6)),
        )
        for kernel in ("lockstep", "lockstep-jit"):
            packed = run_chunk(
                _task(
                    frozen_instance,
                    step_kernel=kernel,
                    restrict_users=restrict,
                ),
                list(range(6)),
            )
            assert np.array_equal(reference.sigmas, packed.sigmas), kernel
            assert np.array_equal(
                reference.restricted, packed.restricted
            ), kernel

    def test_dynamic_fallback_is_silent_and_identical(self):
        instance = build_tiny_instance()
        reference = run_chunk(
            _task(instance, step_kernel="vectorized", collect_weights=True),
            [0, 1, 2],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fallback = run_chunk(
                _task(instance, step_kernel="lockstep", collect_weights=True),
                [0, 1, 2],
            )
        assert np.array_equal(reference.sigmas, fallback.sigmas)
        assert np.array_equal(reference.weights_sum, fallback.weights_sum)

    def test_only_packable_recipes_skip_the_simulator(
        self, frozen_instance, monkeypatch
    ):
        """Dynamic and likelihood recipes replay ``CampaignSimulator.run``
        once per replication under the default kernel; a frozen sigma
        recipe on ``lockstep`` never calls it."""
        calls = []
        original = CampaignSimulator.run

        def counting_run(simulator, *args, **kwargs):
            calls.append(1)
            return original(simulator, *args, **kwargs)

        monkeypatch.setattr(CampaignSimulator, "run", counting_run)
        for task in (
            _task(build_tiny_instance()),
            _task(frozen_instance, compute_likelihood=True),
        ):
            calls.clear()
            run_chunk(task, [0, 1, 2])
            assert len(calls) == 3
        calls.clear()
        run_chunk(_task(frozen_instance, step_kernel="lockstep"), [0, 1, 2])
        assert not calls

    def test_backend_coarse_chunks_match_serial(self, frozen_instance):
        task = _task(frozen_instance, step_kernel="lockstep")
        reference = SerialBackend().run(
            _task(frozen_instance, step_kernel="vectorized"), 9
        )
        serial = SerialBackend().run(task, 9)
        with ThreadBackend(workers=3) as pool:
            pooled = pool.run(task, 9)
        assert np.array_equal(reference.sigmas, serial.sigmas)
        assert np.array_equal(reference.sigmas, pooled.sigmas)


class TestEstimatorAndDefaults:
    def test_default_is_lockstep(self):
        """A fresh interpreter without ``REPRO_STEP_KERNEL`` packs."""
        env = {
            key: value
            for key, value in os.environ.items()
            if key != "REPRO_STEP_KERNEL"
        }
        # Import the same package the suite runs against.
        package_root = os.path.dirname(os.path.dirname(repkernel.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(package_root), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.diffusion import get_default_step_kernel;"
                "print(get_default_step_kernel())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "lockstep"

    def test_estimator_step_kernel_is_bit_identical(self, frozen_instance):
        estimates = [
            SigmaEstimator(
                frozen_instance,
                n_samples=8,
                rng_factory=RngFactory(5),
                step_kernel=kernel,
            ).estimate(GROUP)
            for kernel in ("vectorized", None, "lockstep", "lockstep-jit")
        ]
        for estimate in estimates[1:]:
            assert estimate.sigma == estimates[0].sigma
            assert estimate.sigma_std == estimates[0].sigma_std

    def test_process_default_reaches_run_chunk(self, frozen_instance):
        previous = get_default_step_kernel()
        set_default_step_kernel("lockstep")
        try:
            assert lockstep_applicable(_task(frozen_instance))
        finally:
            set_default_step_kernel(previous)

    def test_estimator_resolves_default_at_construction(self, frozen_instance):
        previous = get_default_step_kernel()
        set_default_step_kernel("lockstep")
        try:
            estimator = SigmaEstimator(
                frozen_instance, n_samples=4, rng_factory=RngFactory(5)
            )
        finally:
            set_default_step_kernel(previous)
        assert estimator.step_kernel == "lockstep"


@pytest.mark.skipif(HAVE_NUMBA, reason="degradation only without numba")
def test_jit_degrades_once_with_warning(monkeypatch):
    monkeypatch.setattr(repkernel, "_warned_no_numba", False)
    with pytest.warns(RuntimeWarning, match="numba is not installed"):
        assert resolve_step_kernel("lockstep-jit") == "lockstep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second resolve stays quiet
        assert resolve_step_kernel("lockstep-jit") == "lockstep"
