"""Lockstep chunk routing: the recipe decides, nothing else does.

``run_chunk`` plays a whole chunk of replications in one packed
``run_campaigns_lockstep`` call when the recipe is frozen and carries
no resumed state and no collectors; every other recipe replays
``CampaignSimulator.run`` once per replication.  Both paths are
bit-identical by construction — these tests pin that, plus the
surfaces around it: the ``lockstep_applicable`` rule, the backend chunk
coarsening, and that no environment variable can steer the choice.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion import repkernel
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.engine import (
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    run_chunk,
)
from repro.engine import replication
from repro.engine.backends import _replication_chunks
from repro.engine.replication import chunk_indices, lockstep_applicable

from tests.conftest import build_tiny_instance
from tests.reference import disable_packed_pass

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


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


@pytest.fixture()
def route_counter(monkeypatch):
    """Counts packed-pass calls and per-replication simulator runs."""
    calls = {"packed": 0, "per_replication": 0}
    packed = replication.run_campaigns_lockstep
    run = CampaignSimulator.run

    def counting_packed(*args, **kwargs):
        calls["packed"] += 1
        return packed(*args, **kwargs)

    def counting_run(simulator, *args, **kwargs):
        calls["per_replication"] += 1
        return run(simulator, *args, **kwargs)

    monkeypatch.setattr(replication, "run_campaigns_lockstep", counting_packed)
    monkeypatch.setattr(CampaignSimulator, "run", counting_run)
    return calls


def _per_replication_recipes(frozen_instance):
    """Every recipe the packed pass cannot play, by name."""
    return {
        "dynamic": _task(build_tiny_instance()),
        "likelihood": _task(frozen_instance, compute_likelihood=True),
        "weights": _task(frozen_instance, collect_weights=True),
        "adoptions": _task(frozen_instance, collect_adoptions=True),
        "initial_state": _task(
            frozen_instance, initial_state=frozen_instance.new_state()
        ),
    }


class TestRecipeRule:
    def test_frozen_recipe_without_collectors_packs(
        self, frozen_instance, route_counter
    ):
        restrict = frozenset(range(0, frozen_instance.n_users, 2))
        for task in (
            _task(frozen_instance),
            _task(frozen_instance, restrict_users=restrict),
            _task(frozen_instance, until_promotion=1),
            _task(frozen_instance, start_promotion=2),
        ):
            assert lockstep_applicable(task)
            route_counter.update(packed=0, per_replication=0)
            run_chunk(task, [0, 1, 2])
            assert route_counter == {"packed": 1, "per_replication": 0}

    def test_other_recipes_run_per_replication(self, frozen_instance, route_counter):
        recipes = _per_replication_recipes(frozen_instance)
        for name, task in recipes.items():
            assert not lockstep_applicable(task), name
            route_counter.update(packed=0, per_replication=0)
            run_chunk(task, [0, 1, 2])
            assert route_counter == {"packed": 0, "per_replication": 3}, name

    def test_only_packed_recipes_coarsen(self, frozen_instance):
        """Packed recipes get one chunk per worker; the rest keep the
        canonical partition that pins their reduction tree."""
        pool = ThreadBackend(workers=2)
        packed = _replication_chunks(_task(frozen_instance), 9, pool, 4)
        assert packed == [list(range(5)), list(range(5, 9))]
        for name, task in _per_replication_recipes(frozen_instance).items():
            chunks = _replication_chunks(task, 9, pool, 4)
            assert chunks == chunk_indices(9, 4), name


class TestRunChunkEquivalence:
    def test_packed_chunk_matches_per_replication(self, frozen_instance, monkeypatch):
        restrict = frozenset(range(0, frozen_instance.n_users, 2))
        task = _task(frozen_instance, restrict_users=restrict)
        packed = run_chunk(task, list(range(6)))
        packed_calls = disable_packed_pass(monkeypatch)
        reference = run_chunk(task, list(range(6)))
        assert not packed_calls
        assert np.array_equal(reference.sigmas, packed.sigmas)
        assert np.array_equal(reference.restricted, packed.restricted)

    def test_backend_coarse_chunks_match_serial(self, frozen_instance, monkeypatch):
        task = _task(frozen_instance)
        serial = SerialBackend().run(task, 9)
        with ThreadBackend(workers=3) as pool:
            pooled = pool.run(task, 9)
        disable_packed_pass(monkeypatch)
        reference = SerialBackend().run(task, 9)
        assert np.array_equal(reference.sigmas, serial.sigmas)
        assert np.array_equal(reference.sigmas, pooled.sigmas)


def test_removed_environment_variables_are_not_read():
    """Names that once selected kernels or retry knobs steer nothing: a
    frozen sigma estimate and a bank fill succeed with them set to
    garbage."""
    src = pathlib.Path(repkernel.__file__).resolve().parents[2]
    env = dict(
        os.environ,
        REPRO_STEP_KERNEL="bogus",
        REPRO_REACH_KERNEL="bogus",
        REPRO_RETRIES="bogus",
        REPRO_CHUNK_TIMEOUT="bogus",
        PYTHONPATH=os.pathsep.join([str(src), str(REPO_ROOT)]),
    )
    script = (
        "from repro.core.problem import Seed, SeedGroup\n"
        "from repro.diffusion.montecarlo import SigmaEstimator\n"
        "from repro.sketch import RealizationBank\n"
        "from tests.conftest import build_tiny_instance\n"
        "frozen = build_tiny_instance().frozen()\n"
        "group = SeedGroup([Seed(0, 0, 1)])\n"
        "print(SigmaEstimator(frozen, n_samples=4).estimate(group).sigma)\n"
        "print(RealizationBank(frozen, n_worlds=4).stacked_reach_packed(0).shape)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    sigma, shape = out.stdout.split("\n")[:2]
    assert float(sigma) > 0.0
    assert shape.startswith("(4, ")
