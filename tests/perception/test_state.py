"""Tests for the perception state orchestration."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.perception.state as state_module
from repro.core.dysim import Dysim, DysimConfig
from repro.data import load_dataset
from repro.engine import ThreadBackend
from repro.perception.params import DynamicsParams

from tests.conftest import build_tiny_instance


@pytest.fixture
def state():
    return build_tiny_instance().new_state()


@pytest.fixture
def frozen_state():
    return build_tiny_instance(dynamics=DynamicsParams.frozen()).new_state()


class TestReads:
    def test_initial_preference_is_base(self, state):
        instance = build_tiny_instance()
        assert np.allclose(
            state.preference(0), instance.base_preference[0]
        )

    def test_initial_influence_is_base(self, state):
        assert state.influence(0, 1) == pytest.approx(0.6)
        assert state.influence(0, 3) == 0.0  # no arc

    def test_personal_item_network_snapshot(self, state):
        pin = state.personal_item_network(0)
        assert pin.complementary.shape == (4, 4)
        assert pin.complementary[0, 1] > 0  # iPhone-AirPods
        assert pin.substitutable[0, 3] > 0  # iPhone-iPad


class TestAdoptionUpdates:
    def test_adoption_recorded(self, state):
        state.apply_step_adoptions({0: [0]})
        assert state.has_adopted(0, 0)
        assert state.adoption_set(0) == {0}

    def test_duplicate_adoption_ignored(self, state):
        state.apply_step_adoptions({0: [0]})
        state.apply_step_adoptions({0: [0]})
        assert state.adoption_set(0) == {0}

    def test_preference_of_complement_rises(self, state):
        before = state.preference_of(0, 1)
        state.apply_step_adoptions({0: [0]})  # adopt iPhone
        after = state.preference_of(0, 1)     # AirPods preference
        assert after > before

    def test_preference_of_substitute_falls(self, state):
        before = state.preference_of(0, 3)
        state.apply_step_adoptions({0: [0]})  # iPhone substitutes iPad
        after = state.preference_of(0, 3)
        assert after < before

    def test_weights_shift_toward_explaining_metagraphs(self, state):
        before = state.weights[0].copy()
        state.apply_step_adoptions({0: [0, 1]})  # iPhone + AirPods
        after = state.weights[0]
        # Relative weight of m1 (shared feature) vs ms1 (category) grows.
        assert after[0] / after[3] > before[0] / before[3]

    def test_influence_grows_with_coadoption(self, state):
        before = state.influence(0, 1)
        state.apply_step_adoptions({0: [0], 1: [0]})
        after = state.influence(0, 1)
        assert after > before

    def test_extra_adoption_probs_zero_for_irrelevant(self, state):
        probs = state.extra_adoption_probs(1, 0, 0)
        assert probs[3] == 0.0  # iPad is not complementary to iPhone
        assert probs[1] > 0.0   # AirPods is

    def test_probabilities_stay_bounded(self, state):
        for step in range(4):
            state.apply_step_adoptions({u: [step % 4] for u in range(6)})
        for user in range(6):
            prefs = state.preference(user)
            assert prefs.min() >= 0.0 and prefs.max() <= 1.0
            for other in range(6):
                if user != other:
                    assert 0.0 <= state.influence(user, other) <= 1.0


class TestFrozenDynamics:
    def test_preference_never_changes(self, frozen_state):
        before = frozen_state.preference(0).copy()
        frozen_state.apply_step_adoptions({0: [0, 1, 2]})
        assert np.allclose(frozen_state.preference(0), before)

    def test_influence_never_changes(self, frozen_state):
        before = frozen_state.influence(0, 1)
        frozen_state.apply_step_adoptions({0: [0], 1: [0]})
        assert frozen_state.influence(0, 1) == before

    def test_weights_never_change(self, frozen_state):
        before = frozen_state.weights.copy()
        frozen_state.apply_step_adoptions({0: [0, 1]})
        assert np.allclose(frozen_state.weights, before)


class TestCopy:
    def test_copy_is_independent(self, state):
        clone = state.copy()
        clone.apply_step_adoptions({0: [0]})
        assert clone.has_adopted(0, 0)
        assert not state.has_adopted(0, 0)
        assert not np.shares_memory(clone.weights, state.weights)

    def test_copy_preserves_history(self, state):
        state.apply_step_adoptions({2: [1]})
        clone = state.copy()
        assert clone.has_adopted(2, 1)
        assert np.allclose(clone.preference(2), state.preference(2))


def reference_row(relevance, weights, item):
    """``r^C(., item, .)`` in its historical ``tensordot`` form."""
    index = relevance.complementary_index
    return np.clip(
        np.tensordot(
            weights[index], relevance.matrices[index, item, :], axes=1
        ),
        0.0,
        1.0,
    )


def all_pairs(instance):
    """Every (user, item) of an instance as parallel index arrays."""
    keys = np.arange(instance.n_users * instance.n_items)
    return np.divmod(keys, instance.n_items)


def moved_yelp_states(frozen=False):
    """(instance, state, clone) on yelp with users 0 and 2 moved in the
    state and 0, 2 and 4 in its clone.

    Weights only move on adoptions related to the user's history, and
    these items are complementary, so the moved rows differ from the
    pristine ones (they do on most items).
    """
    instance = load_dataset("yelp")
    if frozen:
        instance = instance.frozen()
    state = instance.new_state()
    state.apply_step_adoptions({0: [1], 2: [8]})
    state.apply_step_adoptions({0: [8, 10], 2: [1, 11]})
    clone = state.copy()
    clone.apply_step_adoptions({0: [19], 4: [1]})
    clone.apply_step_adoptions({4: [0, 8]})
    if not frozen:
        assert not np.array_equal(clone.weights[0], state.weights[0])
        assert not np.array_equal(
            state.weights[2], instance.initial_weights[2]
        )
    return instance, state, clone


class TestComplementaryTable:
    def test_table_matches_reference_on_every_yelp_row(self):
        instance = load_dataset("yelp")
        users, items = all_pairs(instance)
        rows = instance.complementary_table.rows(users, items)
        for user, item, row in zip(users.tolist(), items.tolist(), rows):
            expected = reference_row(
                instance.relevance, instance.initial_weights[user], item
            )
            assert row.tobytes() == expected.tobytes(), (user, item)

    def test_moved_users_follow_current_weights(self):
        instance, state, clone = moved_yelp_states()
        table = instance.complementary_table
        users = range(6)
        for current in (state, clone):
            for user in users:
                for item in range(instance.n_items):
                    expected = reference_row(
                        instance.relevance, current.weights[user], item
                    )
                    row = current.complementary_row(user, item)
                    assert row.tobytes() == expected.tobytes()
        # Users 0 and 2 moved in both copies and 4 in the clone: only
        # the state's reads of 1, 3, 4 and 5 reached the table.
        assert table.n_filled == 4 * instance.n_items
        for user in users:
            for item in range(instance.n_items):
                expected = reference_row(
                    instance.relevance, instance.initial_weights[user], item
                )
                assert table.row(user, item).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("frozen", [False, True])
    def test_gather_equals_per_key_rows(self, frozen):
        instance, state, _ = moved_yelp_states(frozen)
        keys = np.array([5, 0, 62, 5, 130, 31, 64, 62, 2, 95, 65])
        rows = state.complementary_rows(keys)
        assert rows.shape == (keys.size, instance.n_items)
        for position, key in enumerate(keys.tolist()):
            user, item = divmod(key, instance.n_items)
            expected = state.complementary_row(user, item)
            assert rows[position].tobytes() == expected.tobytes()

    def test_table_is_shared_and_built_lazily(self):
        instance = load_dataset("yelp")
        table = instance.complementary_table
        assert table.n_filled == 0
        state = instance.frozen().new_state()
        assert state.copy()._pristine_rows is table
        assert instance.with_budget(10.0).complementary_table is table
        state.complementary_row(3, 4)
        assert table.n_filled == 1

    def test_pickles_leave_the_table_out(self):
        instance = build_tiny_instance()
        state = instance.new_state()
        state.apply_step_adoptions({0: [0], 2: [1]})
        before = (len(pickle.dumps(instance)), len(pickle.dumps(state)))
        instance.complementary_table.rows(*all_pairs(instance))
        assert instance.complementary_table.n_filled == 24
        after = (len(pickle.dumps(instance)), len(pickle.dumps(state)))
        assert after == before
        restored = pickle.loads(pickle.dumps(state))
        keys = np.arange(instance.n_users * instance.n_items)
        assert (
            restored.complementary_rows(keys).tobytes()
            == state.complementary_rows(keys).tobytes()
        )
        assert pickle.loads(pickle.dumps(instance)).complementary_table.n_filled == 0


def per_arc_influence(state, sources, targets):
    return np.array(
        [state.influence(s, t) for s, t in zip(sources, targets)]
    )


def every_arc(instance, repeats=1):
    """All CSR arcs (sources, targets, strengths), tiled ``repeats`` times."""
    csr = instance.network.csr
    sources = np.repeat(
        np.arange(instance.n_users), np.diff(csr.out_indptr)
    )
    arcs = (sources, csr.out_indices, csr.out_strength)
    return tuple(np.tile(part, repeats) for part in arcs)


class TestGatedSimilarity:
    @pytest.mark.parametrize(
        "adoptions",
        [{}, {0: [0]}, {0: [0, 1], 1: [0], 4: [2, 3]}],
    )
    def test_batch_equals_per_arc_influence(self, adoptions):
        instance = build_tiny_instance(dynamics=DynamicsParams(gamma=0.4))
        state = instance.new_state()
        state.apply_step_adoptions(adoptions)
        sources, targets, strengths = every_arc(instance, repeats=3)
        batch = state.influence_batch(sources, targets, strengths)
        expected = per_arc_influence(state, sources, targets)
        assert batch.tobytes() == expected.tobytes()

    def test_similarity_runs_once_per_adopting_pair(self, monkeypatch):
        instance = build_tiny_instance(dynamics=DynamicsParams(gamma=0.4))
        state = instance.new_state()
        state.apply_step_adoptions({0: [0, 1], 1: [0], 4: [2, 3]})
        scored = []
        original = state_module.adoption_similarity_batch

        def counting(adopted_u, adopted_v, weights_of):
            scored.append(len(adopted_u))
            return original(adopted_u, adopted_v, weights_of)

        monkeypatch.setattr(state_module, "adoption_similarity_batch", counting)
        sources, targets, strengths = every_arc(instance, repeats=3)
        state.influence_batch(sources, targets, strengths)
        # Arcs among the adopters {0, 1, 4}: 0-1 and 1-4, both ways.
        assert scored == [4]


class TestThreadBackendColdTable:
    def test_concurrent_cold_reads_return_exact_rows(self):
        instance = load_dataset("yelp")
        users, items = all_pairs(instance)
        expected = np.array([
            reference_row(instance.relevance, instance.initial_weights[u], x)
            for u, x in zip(users.tolist(), items.tolist())
        ])
        table = instance.complementary_table

        def gather(seed):
            order = np.random.default_rng(seed).permutation(users.size)
            return order, table.rows(users[order], items[order])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(gather, seed) for seed in range(8)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for order, rows in results:
            assert rows.tobytes() == expected[order].tobytes()

    def test_dysim_on_threads_matches_serial(self):
        config = dict(
            n_samples_selection=6,
            n_samples_inner=4,
            candidate_pool=60,
            seed=7,
        )
        serial = Dysim(
            load_dataset("yelp", scale=0.35), DysimConfig(**config)
        ).run()
        instance = load_dataset("yelp", scale=0.35)
        assert instance.complementary_table.n_filled == 0
        with ThreadBackend(workers=4) as pool:
            threaded = Dysim(instance, DysimConfig(**config), backend=pool).run()
        assert threaded.sigma == serial.sigma
        assert list(threaded.seed_group) == list(serial.seed_group)
        assert instance.complementary_table.n_filled > 0
