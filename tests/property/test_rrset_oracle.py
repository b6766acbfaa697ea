"""Property tests pinning the RR-set oracle (sampling + estimates).

Four layers, from exact to statistical:

* **Pinned draw contract.**  A from-scratch scalar reference replays
  the documented sampling discipline — root via one uniform against
  the importance cumsum, then one ``rng.random(k)`` per backward-BFS
  level over the frontier's in-arcs in reverse-skeleton order, from
  the substreams ``spawn_rng(seed, "rrset", i)`` — and must reproduce
  every RR set exactly.  Refactors of the vectorized sampler cannot
  silently change the worlds.
* **Exact unbiasedness.**  On a micro instance whose probability
  skeleton has few enough coins, the true sigma is computed by full
  ``2^k`` world enumeration; the RR estimate must sit within five of
  its own standard errors of that truth (derandomized seed-streams —
  a deterministic regression gate).
* **Exact structure on fixed samples.**  Coverage of a fixed RR family
  is exactly monotone and submodular, which is what licenses the CELF
  lazy heap with zero re-comparisons.
* **Statistical MC agreement.**  Independent RR and Monte-Carlo
  estimates of the same frozen sigma agree within five combined
  standard errors (Lemma 1 plus the RIS identity).
"""

import gc
import itertools
import weakref

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import RRCoverageGainOracle
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine.backends import ThreadBackend
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams
from repro.sketch.bank import build_skeleton
from repro.sketch.rrset import (
    RRSetIndex,
    RRSetSigmaEstimator,
    suggest_sample_count,
)
from repro.social.network import SocialNetwork
from repro.utils.rng import RngFactory, spawn_rng

from tests.conftest import build_tiny_kg, build_tiny_metagraphs
from tests.property.test_sketch_oracle import frozen_instances, seed_groups
from tests.statutil import assert_within_se, standard_error

N_ITEMS = 4  # fixed by the tiny KG


def build_micro_instance() -> IMDPPInstance:
    """3 users, 3 arcs, coins only for items 0/1: ~6 skeleton entries.

    Small enough for exact ``2^k`` world enumeration, rich enough to
    exercise weighted roots (item 2 has importance but no coins, item
    3 has neither).
    """
    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    network = SocialNetwork(3, directed=True)
    network.add_edge(0, 1, 0.6)
    network.add_edge(1, 2, 0.5)
    network.add_edge(0, 2, 0.4)
    base_preference = np.zeros((3, N_ITEMS))
    base_preference[:, 0] = [0.8, 0.5, 0.9]
    base_preference[:, 1] = [0.4, 0.7, 0.0]
    return IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=np.array([1.0, 0.7, 0.3, 0.0]),
        base_preference=base_preference,
        initial_weights=np.full((3, relevance.n_meta), 0.5),
        costs=np.full((3, N_ITEMS), 5.0),
        budget=40.0,
        n_promotions=1,
        dynamics=DynamicsParams(
            eta=0.0, beta=0.0, gamma=0.0, association_scale=0.0
        ),
        name="micro",
    )


def build_sparse_instance(n_users: int = 300) -> IMDPPInstance:
    """A ring with chords and weak coins: most pairs join no RR set.

    130 RR sets of mean size near 1 touch a small fraction of the
    1,200 pairs, over three packed words (the last one partial).
    """
    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    network = SocialNetwork(n_users, directed=True)
    for user in range(n_users):
        network.add_edge(user, (user + 1) % n_users, 0.5)
        network.add_edge(user, (user + 7) % n_users, 0.3)
    rng = np.random.default_rng(11)
    return IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=np.array([1.0, 0.7, 0.3, 0.0]),
        base_preference=rng.uniform(0.0, 0.6, size=(n_users, N_ITEMS)),
        initial_weights=np.full((n_users, relevance.n_meta), 0.5),
        costs=np.full((n_users, N_ITEMS), 5.0),
        budget=40.0,
        n_promotions=1,
        dynamics=DynamicsParams(
            eta=0.0, beta=0.0, gamma=0.0, association_scale=0.0
        ),
        name="sparse",
    )


# ---------------------------------------------------------------------------
# exact references (intentionally scalar / set-based)
# ---------------------------------------------------------------------------
def skeleton_entries(instance) -> list[tuple[int, int, float]]:
    """Skeleton as (src_pair, dst_pair, p) tuples, canonical order."""
    skeleton = build_skeleton(instance)
    return list(
        zip(
            skeleton.src.tolist(),
            skeleton.dst.tolist(),
            skeleton.prob.tolist(),
        )
    )


def exact_sigma(
    instance, entries, pairs: set[int], allowed_users: set[int] | None = None
) -> float:
    """True frozen sigma of ``pairs`` by full world enumeration."""
    weights = np.tile(
        np.asarray(instance.importance, dtype=float), instance.n_users
    )
    total = 0.0
    for live in itertools.product((False, True), repeat=len(entries)):
        probability = 1.0
        adjacency: dict[int, list[int]] = {}
        for (src, dst, p), is_live in zip(entries, live):
            probability *= p if is_live else 1.0 - p
            if is_live:
                adjacency.setdefault(src, []).append(dst)
        visited = set(pairs)
        frontier = list(pairs)
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        spread = sum(
            weights[node]
            for node in visited
            if allowed_users is None
            or node // instance.n_items in allowed_users
        )
        total += probability * spread
    return total


def reference_rrsets(
    instance, entries, rng_seed: int, n_samples: int
) -> list[tuple[int, list[int]]]:
    """Scalar replay of the pinned sampling discipline."""
    importance_cum = np.cumsum(
        np.tile(np.asarray(instance.importance, dtype=float),
                instance.n_users)
    )
    total = float(importance_cum[-1])
    # Reversed adjacency: per destination, in-arcs in skeleton entry
    # order (what the stable argsort of ``dst`` preserves).
    reverse: dict[int, list[tuple[int, float]]] = {}
    for src, dst, p in entries:
        reverse.setdefault(dst, []).append((src, p))
    out = []
    for i in range(n_samples):
        rng = spawn_rng(rng_seed, "rrset", i)
        root = int(
            np.searchsorted(importance_cum, rng.random() * total,
                            side="right")
        )
        visited = {root}
        members = [root]
        frontier = [root]
        while frontier:
            arcs = []
            for pair in frontier:
                arcs.extend(reverse.get(pair, []))
            if not arcs:
                break
            coins = rng.random(len(arcs))
            fresh: list[int] = []
            level_seen: set[int] = set()
            for (src, p), coin in zip(arcs, coins):
                if coin < p and src not in visited and src not in level_seen:
                    level_seen.add(src)
                    fresh.append(src)
            if not fresh:
                break
            visited.update(fresh)
            members.extend(fresh)
            frontier = fresh
        out.append((root, sorted(members)))
    return out


def index_membership(index: RRSetIndex) -> list[list[int]]:
    """Per-sample sorted member pairs, decoded through the accessor.

    Every pair of the universe is looked up, absent ones included, so
    the decode also checks that they map to the all-zero row.
    """
    words = index.membership(np.arange(index.n_pairs))
    out = []
    for i in range(index.n_samples):
        bits = (words[:, i >> 6] >> np.uint64(i & 63)) & np.uint64(1)
        out.append(np.nonzero(bits.astype(bool))[0].tolist())
    return out


# ---------------------------------------------------------------------------
# pinned draw contract
# ---------------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_sampling_matches_scalar_reference(data):
    instance = data.draw(frozen_instances())
    rng_seed = data.draw(st.integers(0, 2**16))
    entries = skeleton_entries(instance)
    index = RRSetIndex.from_instance(
        instance, n_samples=8, rng_seed=rng_seed
    )
    expected = reference_rrsets(instance, entries, rng_seed, 8)
    assert index.roots.tolist() == [root for root, _ in expected]
    assert index_membership(index) == [
        members for _, members in expected
    ]


def test_membership_rows_only_for_present_pairs():
    """Rows exist only for pairs some RR set holds; absent pairs read
    the zero row, cover nothing and gain nothing."""
    instance = build_sparse_instance()
    n_samples = 130
    index = RRSetIndex.from_instance(
        instance, n_samples=n_samples, rng_seed=4
    )
    expected = reference_rrsets(
        instance, skeleton_entries(instance), 4, n_samples
    )
    assert index.roots.tolist() == [root for root, _ in expected]
    assert index_membership(index) == [members for _, members in expected]

    members = sorted({p for _, pairs in expected for p in pairs})
    assert index.present.tolist() == members
    assert index.member_rows.shape == (len(members) + 1, index.n_words)
    assert not index.member_rows[0].any()
    assert index.member_bytes == (
        index.present.nbytes + index.member_rows.nbytes
    )
    assert 2 * len(members) < index.n_pairs
    assert index.member_bytes < index.n_pairs * index.n_words * 8

    absent = np.setdiff1d(np.arange(index.n_pairs), index.present)
    # Absent pairs lie below, between and above the present ones.
    assert absent[0] < index.present[0] and absent[-1] > index.present[-1]
    assert not index.membership(absent).any()
    for pair in absent[:: max(1, absent.size // 40)].tolist():
        assert not index.covered_mask([pair]).any()
        assert not index.coverage_stats([pair])[0].any()
    oracle = RRCoverageGainOracle(index)
    assert not oracle.gains(absent.tolist()).any()
    first = int(index.present[0])
    oracle.commit(first, float(oracle.gains([first])[0]))
    assert not oracle.gains(absent.tolist()).any()
    oracle.commit(int(absent[0]), 0.0)
    assert np.array_equal(oracle._covered, index.covered_words([first]))


def test_index_keeps_no_skeleton():
    instance = build_sparse_instance(40)
    skeleton = build_skeleton(instance)
    alive = weakref.ref(skeleton)
    index = RRSetIndex(
        skeleton,
        instance.n_users,
        instance.n_items,
        np.asarray(instance.importance, dtype=float),
        n_samples=16,
    )
    del skeleton
    gc.collect()
    assert alive() is None
    assert index.sizes.sum() > 0


def test_backends_produce_identical_indexes():
    instance = build_micro_instance()
    serial = RRSetIndex.from_instance(instance, n_samples=32, rng_seed=9)
    with ThreadBackend(workers=3) as backend:
        threaded = RRSetIndex.from_instance(
            instance, n_samples=32, rng_seed=9, backend=backend
        )
    for name in ("present", "member_rows", "roots", "sizes"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


# ---------------------------------------------------------------------------
# exact unbiasedness on the enumerable micro instance
# ---------------------------------------------------------------------------
def test_estimate_unbiased_against_exact_enumeration():
    instance = build_micro_instance()
    entries = skeleton_entries(instance)
    assert len(entries) <= 12  # keep 2^k enumeration honest
    index = RRSetIndex.from_instance(instance, n_samples=4096, rng_seed=3)
    for pairs in [
        (index.pair_index(0, 0),),
        (index.pair_index(1, 1),),
        (index.pair_index(0, 0), index.pair_index(1, 1)),
        (index.pair_index(2, 2),),  # coinless pair: only its own weight
    ]:
        truth = exact_sigma(instance, entries, set(pairs))
        values, _ = index.coverage_stats(pairs)
        assert_within_se(
            float(values.mean()),
            truth,
            standard_error(float(values.std()), index.n_samples),
            context=f"pairs={pairs}",
        )


def test_restricted_estimate_unbiased_against_exact_enumeration():
    instance = build_micro_instance()
    entries = skeleton_entries(instance)
    index = RRSetIndex.from_instance(instance, n_samples=4096, rng_seed=5)
    pairs = (index.pair_index(0, 0), index.pair_index(0, 1))
    allowed = {1, 2}
    truth = exact_sigma(instance, entries, set(pairs), allowed)
    _, restricted = index.coverage_stats(pairs, restrict_users=allowed)
    assert restricted is not None
    assert_within_se(
        float(restricted.mean()),
        truth,
        standard_error(float(restricted.std()), index.n_samples),
    )


def test_estimator_surface_matches_index_and_exact_truth():
    instance = build_micro_instance()
    entries = skeleton_entries(instance)
    estimator = RRSetSigmaEstimator(
        instance, n_samples=4096, rng_factory=RngFactory(3)
    )
    group = SeedGroup([Seed(0, 0, 1), Seed(1, 1, 1)])
    estimate = estimator.estimate(group)
    truth = exact_sigma(
        instance,
        entries,
        {0 * N_ITEMS + 0, 1 * N_ITEMS + 1},
    )
    assert estimate.n_samples == 4096
    assert_within_se(
        estimate.sigma,
        truth,
        standard_error(estimate.sigma_std, estimate.n_samples),
    )
    # The estimator answers from its index: identical numbers.
    values, _ = estimator.index.coverage_stats(
        estimator.index.nominee_pairs(group)
    )
    assert estimate.sigma == float(values.mean())


# ---------------------------------------------------------------------------
# exact structure on the fixed sample family
# ---------------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_monotone_and_submodular_on_fixed_samples(data):
    instance = data.draw(frozen_instances())
    index = RRSetIndex.from_instance(instance, n_samples=12, rng_seed=7)
    pair_ids = st.integers(0, index.n_pairs - 1)
    small = set(data.draw(
        st.lists(pair_ids, min_size=0, max_size=2, unique=True)
    ))
    grow = set(data.draw(
        st.lists(pair_ids, min_size=1, max_size=2, unique=True)
    ))
    element = data.draw(pair_ids)
    large = small | grow

    def sigma(pairs: set) -> float:
        return index.sigma(tuple(sorted(pairs))) if pairs else 0.0

    assert sigma(large) >= sigma(small) - 1e-12
    gain_small = sigma(small | {element}) - sigma(small)
    gain_large = sigma(large | {element}) - sigma(large)
    assert gain_small >= gain_large - 1e-9


# ---------------------------------------------------------------------------
# statistical agreement with the Monte-Carlo oracle
# ---------------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_agrees_with_mc_within_tolerance(data):
    """Independent RR and MC estimates of one frozen sigma agree.

    The RIS identity makes the RR estimate unbiased for the same
    expectation the MC estimator samples; derandomized examples make
    the 5-SE gate a deterministic regression check.
    """
    instance = data.draw(frozen_instances())
    group = data.draw(
        seed_groups(instance.n_users, instance.n_promotions)
    )
    n = 400
    mc = SigmaEstimator(
        instance, n_samples=n, rng_factory=RngFactory(101)
    ).estimate(group)
    rr = RRSetSigmaEstimator(
        instance, n_samples=n, rng_factory=RngFactory(202)
    ).estimate(group)
    combined = standard_error(mc.sigma_std + rr.sigma_std, n)
    assert_within_se(rr.sigma, mc.sigma, combined)


def test_suggest_sample_count_is_hoeffding():
    # log(2/0.01) / (2 * 0.1^2) = 264.9... -> 265
    assert suggest_sample_count(0.1, 0.01) == 265
    for bad in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        try:
            suggest_sample_count(*bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted invalid (epsilon, delta) {bad}")
