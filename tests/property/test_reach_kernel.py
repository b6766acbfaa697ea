"""Property tests: world-packed BFS == per-world BFS, bit for bit.

The production kernel (``repro.sketch.reachkernel``) computes all M
worlds' reachability in one bit-parallel frontier BFS; the per-world
reference (``tests.reference.PerWorldBank``) runs one Python BFS per
realized world.  Reachability on a fixed live-edge graph is
deterministic, so the two must agree *exactly* — stacks, LRU byte
accounting and sigma values — on any skeleton, any world count
(including M not divisible by 64) and any liveness pattern (including
worlds with zero live edges).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import DEFAULT_CHUNK_SIZE, ThreadBackend
from repro.sketch import RealizationBank, WorldLayout
from repro.sketch.reachkernel import multi_world_visited

from tests.property.test_sketch_oracle import frozen_instances
from tests.reference import PerWorldBank

N_ITEMS = 4  # fixed by the tiny KG


# ---------------------------------------------------------------------------
# kernel level: packed BFS vs a from-scratch per-world closure
# ---------------------------------------------------------------------------
@st.composite
def packed_graphs(draw):
    """Random CSR arc lists with random per-world liveness.

    World counts straddle the 64-bit word boundary and liveness
    columns may be all-False (a world with zero live edges).
    """
    n_nodes = draw(st.integers(1, 10))
    n_arcs = draw(st.integers(0, 25))
    src = np.array(
        [draw(st.integers(0, n_nodes - 1)) for _ in range(n_arcs)],
        dtype=np.int64,
    )
    dst = np.array(
        [draw(st.integers(0, n_nodes - 1)) for _ in range(n_arcs)],
        dtype=np.int64,
    )
    n_worlds = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    live = rng.random((n_arcs, n_worlds)) < draw(
        st.sampled_from([0.0, 0.3, 0.8])
    )
    return n_nodes, src, dst, n_worlds, live


def _python_reach(n_nodes, src, dst, live_column, source):
    """Scalar reference: set-based BFS over one world's live arcs."""
    adjacency: dict[int, set[int]] = {}
    for s, d, is_live in zip(src.tolist(), dst.tolist(), live_column):
        if is_live:
            adjacency.setdefault(s, set()).add(d)
    visited = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append(neighbor)
    mask = np.zeros(n_nodes, dtype=bool)
    mask[list(visited)] = True
    return mask


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_multi_world_visited_matches_python_bfs(data):
    n_nodes, src, dst, n_worlds, live = data.draw(packed_graphs())
    sources = data.draw(
        st.lists(
            st.integers(0, n_nodes - 1), min_size=1, max_size=4, unique=True
        )
    )

    order = np.argsort(src, kind="stable")
    indices = dst[order]
    counts = np.bincount(src, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    layout = WorldLayout(n_worlds)
    arc_live = (
        layout.pack(live)[order]
        if live.size
        else np.zeros((0, layout.n_words), dtype=np.uint64)
    )

    visited = multi_world_visited(indptr, indices, arc_live, sources, layout)
    assert visited.shape == (n_nodes, len(sources), layout.n_words)
    by_world = layout.unpack(visited)  # (n_nodes, n_sources, n_worlds)
    for s, source in enumerate(sources):
        for w in range(n_worlds):
            expected = _python_reach(
                n_nodes, src, dst, live[:, w] if live.size else [], source
            )
            assert np.array_equal(
                by_world[:, s, w], expected
            ), f"source {source} world {w}"
    # tail-word invariant: padding bits are never set, so pack is an
    # exact inverse of unpack on the visited matrix
    assert np.array_equal(layout.pack(by_world), visited)


@given(
    n_worlds=st.integers(1, 200),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_world_layout_roundtrip(n_worlds, seed):
    layout = WorldLayout(n_worlds)
    rng = np.random.default_rng(seed)
    mask = rng.random((3, n_worlds)) < 0.5
    words = layout.pack(mask)
    assert words.shape == (3, layout.n_words)
    assert np.array_equal(layout.unpack(words), mask)
    # the full mask sets exactly the real-world bits
    assert layout.unpack(layout.full_mask[None, :]).sum() == n_worlds


# ---------------------------------------------------------------------------
# bank level: production vs per-world reference, bit-identical everything
# ---------------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_bank_kernels_bit_identical(data):
    instance = data.draw(frozen_instances())
    # straddle the word boundary so tail-word handling is exercised;
    # 1 and 3 keep tiny banks in the mix
    n_worlds = data.draw(st.sampled_from([1, 3, 64, 67]))
    packed = RealizationBank(instance, n_worlds=n_worlds, rng_seed=7)
    reference = PerWorldBank(instance, n_worlds=n_worlds, rng_seed=7)
    pair_ids = st.integers(0, instance.n_users * N_ITEMS - 1)
    pairs = data.draw(
        st.lists(pair_ids, min_size=1, max_size=5)
    )  # duplicates allowed: hits must account identically too

    for stacked, expected in zip(
        packed.stacks_for(pairs), reference.stacks_for(pairs)
    ):
        assert stacked.dtype == expected.dtype == np.uint64
        assert np.array_equal(stacked, expected)

    group = tuple(sorted(set(pairs)))
    assert packed.sigma(group) == reference.sigma(group)
    spreads_p, _ = packed.spread_stats(group)
    spreads_r, _ = reference.spread_stats(group)
    assert np.array_equal(spreads_p, spreads_r)

    ours, theirs = packed.reach_stats(), reference.reach_stats()
    assert (ours.hits, ours.misses, ours.evictions) == (
        theirs.hits,
        theirs.misses,
        theirs.evictions,
    )
    assert ours.bytes_in_use == theirs.bytes_in_use


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_bank_kernels_identical_under_eviction(data):
    """A one-stack byte budget forces eviction on every new pair; the
    LRU replay (hits, misses, evictions, bytes) must not depend on the
    kernel filling the misses."""
    instance = data.draw(frozen_instances())
    probe = RealizationBank(instance, n_worlds=5, rng_seed=11)
    budget = probe.stacked_reach_packed(0).nbytes
    banks = [
        bank_class(
            instance,
            n_worlds=5,
            rng_seed=11,
            reach_budget_bytes=budget,
        )
        for bank_class in (RealizationBank, PerWorldBank)
    ]
    pair_ids = st.integers(0, instance.n_users * N_ITEMS - 1)
    pairs = data.draw(st.lists(pair_ids, min_size=2, max_size=6))
    stacks = [bank.stacks_for(pairs) for bank in banks]
    for ours, theirs in zip(*stacks):
        assert np.array_equal(ours, theirs)
    ours, theirs = (bank.reach_stats() for bank in banks)
    assert (ours.hits, ours.misses, ours.evictions, ours.bytes_in_use) == (
        theirs.hits,
        theirs.misses,
        theirs.evictions,
        theirs.bytes_in_use,
    )


# ---------------------------------------------------------------------------
# fill shape: source chunks over a pool vs one in-process BFS
# ---------------------------------------------------------------------------
@st.composite
def pool_miss_blocks(draw, instance):
    """Query blocks with more than ``DEFAULT_CHUNK_SIZE`` distinct
    pairs — so a two-worker pool fills them in source chunks — and
    repeats in any order."""
    pair_ids = st.integers(0, instance.n_users * N_ITEMS - 1)
    distinct = draw(
        st.lists(
            pair_ids, min_size=DEFAULT_CHUNK_SIZE + 1, max_size=10, unique=True
        )
    )
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=4))
    return draw(st.permutations(distinct + repeats))


def _pool_fill(instance, pairs, **bank_kwargs):
    """Stacks, LRU counters and dispatched chunk functions of a bank on
    a two-worker pool answering ``pairs`` as one block."""
    with ThreadBackend(workers=2) as backend:
        bank = RealizationBank(instance, backend=backend, **bank_kwargs)
        names = []
        map_chunks = backend.map_chunks

        def recording(fn, task, chunks):
            names.append(fn.__name__)
            return map_chunks(fn, task, chunks)

        backend.map_chunks = recording
        stacks = bank.stacks_for(pairs)
    return stacks, bank.reach_stats(), names


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_bank_pool_fill_bit_identical(data):
    """A miss block filled in source chunks over a two-worker pool
    reassembles the in-process stacks and replays the same LRU
    sequence, at any world count (tail words included)."""
    instance = data.draw(frozen_instances())
    n_worlds = data.draw(st.sampled_from([1, 63, 65, 130, 200]))
    pairs = data.draw(pool_miss_blocks(instance))
    reference = RealizationBank(instance, n_worlds=n_worlds, rng_seed=7)
    stacks, stats, names = _pool_fill(
        instance, pairs, n_worlds=n_worlds, rng_seed=7
    )
    assert names == ["reach_stacks_chunk"]
    for ours, theirs in zip(stacks, reference.stacks_for(pairs)):
        assert ours.dtype == np.uint64
        assert np.array_equal(ours, theirs)
    assert stats == reference.reach_stats()


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_bank_pool_fill_identical_under_eviction(data):
    """Pool fills under a one-stack byte budget: the pairs a block
    evicts before their turn re-miss in process, exactly as the
    in-process fill replays them."""
    instance = data.draw(frozen_instances())
    probe = RealizationBank(instance, n_worlds=70, rng_seed=11)
    budget = probe.stacked_reach_packed(0).nbytes
    pairs = data.draw(pool_miss_blocks(instance))
    reference = RealizationBank(
        instance, n_worlds=70, rng_seed=11, reach_budget_bytes=budget
    )
    stacks, stats, names = _pool_fill(
        instance, pairs, n_worlds=70, rng_seed=11, reach_budget_bytes=budget
    )
    assert names == ["reach_stacks_chunk"]
    for ours, theirs in zip(stacks, reference.stacks_for(pairs)):
        assert np.array_equal(ours, theirs)
    assert stats == reference.reach_stats()
    assert stats.evictions > 0
