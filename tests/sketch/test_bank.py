"""Realization bank: construction, determinism, query semantics."""

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.engine import ProcessPoolBackend, SerialBackend, ThreadBackend
from repro.errors import SketchError
from repro.sketch import RealizationBank, build_skeleton
from repro.utils.rng import spawn_rng

from tests.conftest import build_tiny_instance
from tests.reference import PerWorldBank, stacked_reach


@pytest.fixture(scope="module")
def frozen():
    return build_tiny_instance().frozen()


@pytest.fixture(scope="module")
def bank(frozen):
    return RealizationBank(frozen, n_worlds=8, rng_seed=3)


class TestSkeleton:
    def test_requires_frozen_dynamics(self):
        with pytest.raises(SketchError):
            build_skeleton(build_tiny_instance())

    def test_probabilities_in_unit_interval(self, frozen):
        skeleton = build_skeleton(frozen)
        assert skeleton.prob.size > 0
        assert skeleton.prob.min() > 0.0
        assert skeleton.prob.max() <= 1.0

    def test_entries_reference_valid_pairs(self, frozen):
        skeleton = build_skeleton(frozen)
        for array in (skeleton.src, skeleton.dst):
            assert array.min() >= 0
            assert array.max() < skeleton.n_pairs

    def test_influence_edges_stay_within_item(self, frozen):
        """Influence entries keep the item; only association crosses."""
        skeleton = build_skeleton(frozen)
        n_items = frozen.n_items
        same_item = (skeleton.src % n_items) == (skeleton.dst % n_items)
        # the tiny KG has complementary relations, so both kinds exist
        assert same_item.any() and (~same_item).any()


class TestDeterminism:
    def test_same_stream_same_worlds(self, frozen):
        a = RealizationBank(frozen, n_worlds=6, rng_seed=11)
        b = RealizationBank(frozen, n_worlds=6, rng_seed=11)
        pairs = (a.pair_index(0, 0), a.pair_index(3, 2))
        assert np.array_equal(
            a.spread_stats(pairs)[0], b.spread_stats(pairs)[0]
        )

    def test_different_seed_different_worlds(self, frozen):
        a = RealizationBank(frozen, n_worlds=16, rng_seed=1)
        b = RealizationBank(frozen, n_worlds=16, rng_seed=2)
        pairs = tuple(
            a.pair_index(u, x) for u in range(4) for x in range(2)
        )
        assert not np.array_equal(
            a.spread_stats(pairs)[0], b.spread_stats(pairs)[0]
        )

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: ThreadBackend(workers=3, chunk_size=2),
            lambda: ProcessPoolBackend(workers=2, chunk_size=2),
        ],
    )
    def test_parallel_build_bit_identical(self, frozen, backend_factory):
        """World construction fans out yet reassembles canonically."""
        serial = PerWorldBank(
            frozen, n_worlds=7, rng_seed=5, backend=SerialBackend()
        )
        with backend_factory() as backend:
            parallel = PerWorldBank(
                frozen, n_worlds=7, rng_seed=5, backend=backend
            )
        pairs = tuple(serial.pair_index(u, 0) for u in range(6))
        assert np.array_equal(
            serial.spread_stats(pairs)[0],
            parallel.spread_stats(pairs)[0],
        )
        for ours, theirs in zip(serial.worlds, parallel.worlds):
            assert ours.n_live_edges == theirs.n_live_edges

    def test_world_draws_follow_substream(self, frozen):
        """World i consumes spawn_rng(seed, *context, i) canonically."""
        bank = PerWorldBank(frozen, n_worlds=3, rng_seed=21)
        skeleton = bank.skeleton
        for i, world in enumerate(bank.worlds):
            rng = spawn_rng(21, "sketch", i)
            live = rng.random(skeleton.prob.size) < skeleton.prob
            assert world.n_live_edges == int(live.sum())


class TestQueries:
    def test_empty_group_zero(self, bank):
        spreads, restricted = bank.spread_stats((), restrict_users={0})
        assert not spreads.any()
        assert not restricted.any()

    def test_source_counts_itself(self, bank, frozen):
        pair = bank.pair_index(4, 1)
        spreads, _ = bank.spread_stats((pair,))
        assert (spreads >= float(frozen.importance[1])).all()

    def test_monotone_in_nominees(self, bank):
        small = (bank.pair_index(0, 0),)
        large = (bank.pair_index(0, 0), bank.pair_index(3, 2))
        assert bank.sigma(large) >= bank.sigma(small)

    def test_union_decomposition(self, frozen):
        """Group spread per world is the importance of the union of
        singleton reaches, each found by one BFS in that world."""
        bank = RealizationBank(frozen, n_worlds=8, rng_seed=3)
        reference = PerWorldBank(frozen, n_worlds=8, rng_seed=3)
        pairs = (bank.pair_index(1, 0), bank.pair_index(4, 3))
        spreads, _ = bank.spread_stats(pairs)
        for i, world in enumerate(reference.worlds):
            union = world.reach_mask(pairs[0]) | world.reach_mask(pairs[1])
            assert spreads[i] == float(bank.pair_importance[union].sum())

    def test_restricted_weights_subset(self, bank):
        pairs = (bank.pair_index(0, 0), bank.pair_index(2, 1))
        spreads, restricted = bank.spread_stats(pairs, restrict_users={0, 1})
        assert (restricted <= spreads + 1e-12).all()

    def test_nominee_pairs_timing_and_cutoff(self, bank):
        group = SeedGroup(
            [Seed(0, 0, 1), Seed(0, 0, 2), Seed(3, 2, 3)]
        )
        assert bank.nominee_pairs(group) == tuple(
            sorted((bank.pair_index(0, 0), bank.pair_index(3, 2)))
        )
        # seeds after the cutoff are excluded, duplicates collapse
        assert bank.nominee_pairs(group, until_promotion=2) == (
            bank.pair_index(0, 0),
        )

    def test_pair_index_validation(self, bank):
        with pytest.raises(SketchError):
            bank.pair_index(99, 0)

    def test_n_worlds_validation(self, frozen):
        with pytest.raises(ValueError):
            RealizationBank(frozen, n_worlds=0)

    def test_stacked_reach_cached_and_consistent(self, bank, frozen):
        pair = bank.pair_index(5, 3)
        packed = bank.stacked_reach_packed(pair)
        # the packed stack is the memoized object; the boolean view is
        # unpacked fresh per call
        assert packed is bank.stacked_reach_packed(pair)
        assert packed.shape == (bank.n_worlds, bank.layout.n_words)
        stacked = stacked_reach(bank, pair)
        assert stacked.shape == (bank.n_worlds, bank.skeleton.n_pairs)
        assert np.array_equal(stacked, stacked_reach(bank, pair))
        # row w is world w's own BFS (same stream, same worlds)
        reference = PerWorldBank(frozen, n_worlds=8, rng_seed=3)
        for world, row in zip(reference.worlds, stacked):
            assert np.array_equal(world.reach_mask(pair), row)

    def test_stacks_for_batched_equals_sequential(self, frozen):
        """Batched stack queries replay the per-pair LRU sequence —
        same arrays, same hit/miss/eviction counters, same bytes —
        as one stacked_reach_packed call per pair."""
        batched = RealizationBank(frozen, n_worlds=4, rng_seed=13)
        sequential = RealizationBank(frozen, n_worlds=4, rng_seed=13)
        pairs = [0, 5, 0, 9, 5, 2]  # duplicates become hits
        block = batched.stacks_for(pairs)
        singles = [
            sequential.stacked_reach_packed(pair) for pair in pairs
        ]
        for ours, theirs in zip(block, singles):
            assert np.array_equal(ours, theirs)
        ours, theirs = batched.reach_stats(), sequential.reach_stats()
        assert (ours.hits, ours.misses, ours.evictions) == (
            theirs.hits,
            theirs.misses,
            theirs.evictions,
        )
        assert ours.bytes_in_use == theirs.bytes_in_use

    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: ThreadBackend(workers=3, chunk_size=2),
            lambda: ProcessPoolBackend(workers=2, chunk_size=2),
        ],
    )
    def test_stacks_fan_out_backend_independent(
        self, frozen, backend_factory
    ):
        """Miss blocks fan out over pool backends yet
        reassemble in canonical order — stacks and LRU accounting
        match the serial bank exactly."""
        serial = RealizationBank(
            frozen, n_worlds=4, rng_seed=23, backend=SerialBackend()
        )
        pairs = list(range(12))
        with backend_factory() as backend:
            pooled = RealizationBank(
                frozen, n_worlds=4, rng_seed=23, backend=backend
            )
            for ours, theirs in zip(
                pooled.stacks_for(pairs), serial.stacks_for(pairs)
            ):
                assert np.array_equal(ours, theirs)
        ours, theirs = pooled.reach_stats(), serial.reach_stats()
        assert (ours.hits, ours.misses, ours.bytes_in_use) == (
            theirs.hits,
            theirs.misses,
            theirs.bytes_in_use,
        )
        # the pool is closed now; new misses fall back in-process
        assert np.array_equal(
            pooled.stacked_reach_packed(15), serial.stacked_reach_packed(15)
        )

    def test_per_world_reference_is_bit_identical(self, frozen):
        packed = RealizationBank(frozen, n_worlds=6, rng_seed=17)
        reference = PerWorldBank(frozen, n_worlds=6, rng_seed=17)
        for pair in range(frozen.n_users * frozen.n_items):
            assert np.array_equal(
                packed.stacked_reach_packed(pair),
                reference.stacked_reach_packed(pair),
            )

    def test_reach_lru_counts_hits_and_evictions(self, frozen):
        unbounded = RealizationBank(frozen, n_worlds=4, rng_seed=9)
        one_stack_bytes = unbounded.stacked_reach_packed(0).nbytes
        # budget for exactly one cached stack: the second pair evicts
        # the first, and re-querying the first is a miss again
        bank = RealizationBank(
            frozen,
            n_worlds=4,
            rng_seed=9,
            reach_budget_bytes=one_stack_bytes,
        )
        first = bank.stacked_reach_packed(0).copy()
        bank.stacked_reach_packed(0)
        assert bank.reach_stats().hits == 1
        bank.stacked_reach_packed(1)
        assert bank.reach_stats().evictions == 1
        # eviction trades recomputation for memory, never results
        assert np.array_equal(bank.stacked_reach_packed(0), first)
        stats = bank.reach_stats()
        assert stats.misses == 3
        assert stats.bytes_in_use <= one_stack_bytes
        # bounded and unbounded banks answer queries identically
        assert np.array_equal(
            unbounded.stacked_reach_packed(1), bank.stacked_reach_packed(1)
        )
