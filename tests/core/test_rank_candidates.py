"""Candidate ranking: exact top-k heads equal the full stable sorts.

``rank_candidates`` fills its pool from the heads of two stable
rankings.  It takes those heads with ``np.partition`` plus a stable
sort of the kept entries instead of two full ``np.argsort(kind=
"stable")`` calls; these tests pin both against the full sorts on
grids with many ties, where the pool boundary falls inside a run of
equal keys.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dysim.nominees import _stable_top, rank_candidates
from repro.core.problem import IMDPPInstance
from repro.kg.relevance import RelevanceEngine
from repro.perception.params import DynamicsParams
from repro.social.network import SocialNetwork

from tests.conftest import build_tiny_kg, build_tiny_metagraphs

N_ITEMS = 4  # fixed by the tiny KG

#: Few distinct keys, signed zeros and non-finite values: long tie runs.
TIED_KEYS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 2.0, np.inf, -np.inf])


@given(
    keys=st.lists(
        st.one_of(TIED_KEYS, st.just(np.nan)), min_size=0, max_size=60
    )
)
@settings(max_examples=200, deadline=None)
def test_stable_top_is_the_full_stable_argsort_head(keys):
    keys = np.array(keys, dtype=float)
    full = np.argsort(keys, kind="stable")
    for k in range(keys.size + 1):
        assert _stable_top(keys, k).tolist() == full[:k].tolist()


def reference_pool(instance: IMDPPInstance, pool_size: int) -> list:
    """The pool from two full stable argsorts (the former ranking)."""
    degrees = np.diff(instance.network.csr.out_indptr)
    costs = np.asarray(instance.costs, dtype=float)
    quality_grid = (
        (1.0 + degrees.astype(float))[:, None]
        * np.asarray(instance.base_preference, dtype=float)
        * np.maximum(np.asarray(instance.importance, dtype=float), 1e-9)[
            None, :
        ]
    )
    keep = (degrees > 0)[:, None] & (costs <= instance.budget)
    users, items = np.nonzero(keep)
    quality = quality_grid[users, items]
    value = quality / costs[users, items]
    pool: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for keys, limit in ((-quality, pool_size // 2), (-value, pool_size)):
        for index in np.argsort(keys, kind="stable"):
            if len(pool) >= limit:
                break
            pair = (int(users[index]), int(items[index]))
            if pair not in seen:
                seen.add(pair)
                pool.append(pair)
    return pool


def tied_instance(seed: int) -> IMDPPInstance:
    """A random graph whose degrees, preferences, importances and costs
    take few values, so the quality and value rankings tie often."""
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(8, 41))
    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    network = SocialNetwork(n_users, directed=True)
    for user in range(n_users):
        for step in rng.choice([1, 2, 3], size=rng.integers(0, 3), replace=False):
            network.add_edge(user, (user + int(step)) % n_users, 0.5)
    shape = (n_users, N_ITEMS)
    return IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=np.array([1.0, 1.0, 0.5, 0.0]),
        base_preference=rng.choice([0.0, 0.2, 0.4], size=shape),
        initial_weights=np.full((n_users, relevance.n_meta), 0.5),
        costs=rng.choice([2.0, 4.0, 50.0], size=shape),
        budget=10.0,
        n_promotions=1,
        dynamics=DynamicsParams(),
        name="tied",
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pool_equals_full_sort_pool(seed):
    instance = tied_instance(seed)
    # A pool as large as the universe returns the full ranking instead.
    n_candidates = len(rank_candidates(instance, None))
    for pool_size in range(1, n_candidates):
        assert rank_candidates(instance, pool_size) == reference_pool(
            instance, pool_size
        )


def test_pool_boundary_inside_a_tie_run():
    """A pool whose quality cut splits equal keys keeps index order."""
    kg, items = build_tiny_kg()
    relevance = RelevanceEngine(kg, build_tiny_metagraphs(), items)
    n_users = 12
    network = SocialNetwork(n_users, directed=True)
    for user in range(n_users):
        network.add_edge(user, (user + 1) % n_users, 0.5)
    instance = IMDPPInstance(
        network=network,
        kg=kg,
        relevance=relevance,
        importance=np.ones(N_ITEMS),
        base_preference=np.full((n_users, N_ITEMS), 0.3),
        initial_weights=np.full((n_users, relevance.n_meta), 0.5),
        costs=np.where(np.arange(N_ITEMS) % 2 == 0, 2.0, 3.0)[None, :]
        * np.ones((n_users, 1)),
        budget=10.0,
        n_promotions=1,
        dynamics=DynamicsParams(),
        name="flat",
    )
    # Every quality ties and values take two levels, so each cut of
    # either ranking falls inside a run of equal keys.
    for pool_size in (5, 9, 20, 47):
        pool = rank_candidates(instance, pool_size)
        assert pool == reference_pool(instance, pool_size)
        assert pool[: pool_size // 2] == [
            divmod(index, N_ITEMS) for index in range(pool_size // 2)
        ]
