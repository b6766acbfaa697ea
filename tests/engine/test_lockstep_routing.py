"""Lockstep range routing: one packed kernel for every recipe.

``run_chunk`` plays a whole range of replications in one packed
``run_campaigns_lockstep`` call, whatever the recipe: frozen or
learning dynamics, resumed states, the likelihood and final-weights
collectors, blocks of seed groups.  It is bit-identical to one scalar
reference run per replication
(``tests.reference.run_chunk_per_replication``) — these tests pin
that, plus the surfaces around it: one packed call per range and no
``CampaignSimulator.run`` call, the one range per worker every recipe
gets, and that no environment variable can steer the kernel.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion import campaign
from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.engine import (
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    run_chunk,
)
from repro.engine import replication, worker_chunks

from tests.conftest import build_tiny_instance
from tests.reference import disable_packed_pass, run_chunk_per_replication

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])
OTHER_GROUP = SeedGroup([Seed(1, 2, 1), Seed(3, 0, 2)])

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _task(instance, **overrides):
    kwargs = dict(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=9,
        rng_context=("mc",),
        seed_groups=[GROUP],
        n_samples=10,
    )
    kwargs.update(overrides)
    return ReplicationTask(**kwargs)


@pytest.fixture()
def frozen_instance():
    return build_tiny_instance().frozen()


@pytest.fixture()
def route_counter(monkeypatch):
    """Counts packed-pass calls and ``CampaignSimulator.run`` calls."""
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


def _recipes(frozen_instance):
    """One task per recipe family, by name; each plays 10 replications,
    the block recipes as 2 groups x 5 samples."""
    dynamic = build_tiny_instance()
    restrict = frozenset(range(0, frozen_instance.n_users, 2))
    resumed = CampaignSimulator(dynamic).run(
        GROUP, np.random.default_rng(3), until_promotion=1
    ).state
    block = dict(seed_groups=[GROUP, OTHER_GROUP], n_samples=5)
    return {
        "frozen": _task(frozen_instance),
        "frozen-restricted": _task(frozen_instance, restrict_users=restrict),
        "frozen-until": _task(frozen_instance, until_promotion=1),
        "frozen-start": _task(frozen_instance, start_promotion=2),
        "frozen-collectors": _task(
            frozen_instance,
            restrict_users=restrict,
            compute_likelihood=True,
            collect_weights=True,
        ),
        "dynamic": _task(dynamic),
        "likelihood": _task(dynamic, restrict_users=restrict, compute_likelihood=True),
        "weights": _task(dynamic, collect_weights=True),
        "likelihood-and-weights": _task(
            dynamic, compute_likelihood=True, collect_weights=True
        ),
        "initial_state": _task(dynamic, initial_state=resumed, start_promotion=2),
        "frozen-initial_state": _task(
            frozen_instance,
            initial_state=frozen_instance.new_state(),
            compute_likelihood=True,
        ),
        "frozen-block": _task(frozen_instance, until_promotion=1, **block),
        "dynamic-block": _task(dynamic, **block),
        "initial_state-block": _task(
            dynamic, initial_state=resumed, start_promotion=2, **block
        ),
        "collectors-block": _task(
            dynamic,
            restrict_users=restrict,
            compute_likelihood=True,
            collect_weights=True,
            **block,
        ),
    }


class TestRecipeRule:
    def test_every_recipe_makes_one_packed_call_per_range(
        self, frozen_instance, route_counter
    ):
        for name, task in _recipes(frozen_instance).items():
            route_counter.update(packed=0, per_replication=0)
            run_chunk(task, [0, 1, 2])
            assert route_counter == {"packed": 1, "per_replication": 0}, name

    def test_every_recipe_gets_one_range_per_worker(self, frozen_instance, monkeypatch):
        """Every recipe runs one balanced range per worker; the matrix
        reduction tree does not ride on the dispatch partition."""
        with ThreadBackend(workers=2) as pool:
            dispatched = []
            map_chunks = pool.map_chunks

            def recording(fn, task, chunks):
                dispatched.append(chunks)
                return map_chunks(fn, task, chunks)

            monkeypatch.setattr(pool, "map_chunks", recording)
            for name, task in _recipes(frozen_instance).items():
                dispatched.clear()
                pool.run(task)
                assert dispatched == [[list(range(5)), list(range(5, 10))]], name
        assert worker_chunks(10, SerialBackend()) == [list(range(10))]


def _assert_same_result(reference, packed, name):
    assert np.array_equal(reference.sigmas, packed.sigmas), name
    assert np.array_equal(reference.restricted, packed.restricted), name
    assert np.array_equal(reference.likelihoods, packed.likelihoods), name
    if reference.weights is None:
        assert packed.weights is None, name
    else:
        assert len(reference.weights) == len(packed.weights), name
        for expected, got in zip(reference.weights, packed.weights):
            assert np.array_equal(expected, got), name


class TestRunChunkEquivalence:
    def test_packed_chunk_matches_per_replication(self, frozen_instance):
        for name, task in _recipes(frozen_instance).items():
            for indices in (list(range(6)), [5, 6, 7, 8, 9]):
                _assert_same_result(
                    run_chunk_per_replication(task, indices),
                    run_chunk(task, indices),
                    name,
                )

    def test_backend_coarse_chunks_match_serial(self, frozen_instance, monkeypatch):
        tasks = _recipes(frozen_instance)
        serial = {name: SerialBackend().run(task) for name, task in tasks.items()}
        with ThreadBackend(workers=3) as pool:
            pooled = {name: pool.run(task) for name, task in tasks.items()}
        packed_calls = disable_packed_pass(monkeypatch)
        for name, task in tasks.items():
            reference = SerialBackend().run(task)
            _assert_same_result(reference, serial[name], name)
            _assert_same_result(reference, pooled[name], name)
        assert not packed_calls


def test_removed_environment_variables_are_not_read():
    """Names that once selected kernels or retry knobs steer nothing: a
    frozen sigma estimate and a bank fill succeed with them set to
    garbage."""
    src = pathlib.Path(campaign.__file__).resolve().parents[2]
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
