"""The unified selection layer: packed kernel + batched CELF engine.

Three pinned contracts:

* **Packed == boolean, bit for bit.**  Batched packed coverage gains
  must equal the boolean scalar reference exactly (same floats, not
  approximately) — including non-uniform importance weighting and
  after commits — because the CELF heap breaks ties on exact float
  comparisons and the goldens compare selections exactly.
* **Batching is a prefetch.**  ``mcp_lazy_greedy`` commits the same
  sequence for every batch size, *even for non-submodular / noisy
  oracles* where re-evaluated gains may grow; it must match a literal
  transcription of the historical scalar CELF loop.
* **Batched MC gains replicate ``estimate``.**  Same floats, same
  cache entries, on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.problem import Seed, SeedGroup
from repro.core.selection import (
    CoverageGainOracle,
    FunctionGainOracle,
    MonteCarloGainOracle,
    PairLayout,
    _popcount_unpackbits,
    first_strict_argmax,
    mcp_lazy_greedy,
    popcount_words,
    sigma_block,
)
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import ProcessPoolBackend, SerialBackend, ThreadBackend
from repro.errors import AlgorithmError
from repro.sketch import RealizationBank
from repro.utils.rng import RngFactory

from tests.conftest import build_tiny_instance
from tests.reference import CoverageEvaluator


# ---------------------------------------------------------------------------
# packed word layout
# ---------------------------------------------------------------------------
class TestPairLayout:
    @given(
        n_users=st.integers(1, 140),
        n_items=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, n_users, n_items, seed):
        rng = np.random.default_rng(seed)
        layout = PairLayout(
            n_users, n_items, rng.uniform(0.1, 2.0, size=n_items)
        )
        mask = rng.random(layout.n_pairs) < 0.3
        assert np.array_equal(layout.unpack(layout.pack(mask)), mask)

    def test_pack_unpack_leading_dims(self):
        rng = np.random.default_rng(0)
        layout = PairLayout(70, 3, np.ones(3))
        masks = rng.random((4, 5, layout.n_pairs)) < 0.4
        words = layout.pack(masks)
        assert words.shape == (4, 5, layout.n_words)
        assert np.array_equal(layout.unpack(words), masks)

    @given(
        n_users=st.integers(1, 140),
        n_items=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_item_counts_agree_between_packed_and_bool(
        self, n_users, n_items, seed
    ):
        rng = np.random.default_rng(seed)
        layout = PairLayout(
            n_users, n_items, rng.uniform(0.1, 2.0, size=n_items)
        )
        mask = rng.random((3, layout.n_pairs)) < 0.5
        packed = layout.pack(mask)
        assert np.array_equal(
            layout.item_counts(packed), layout.item_counts_bool(mask)
        )

    def test_popcount_fallback_matches_ufunc(self):
        rng = np.random.default_rng(7)
        words = rng.integers(
            0, 2**63, size=(5, 9), dtype=np.int64
        ).astype(np.uint64)
        assert np.array_equal(
            popcount_words(words), _popcount_unpackbits(words)
        )
        # the all-ones / all-zeros corners
        edges = np.array([0, 2**64 - 1, 1, 2**63], dtype=np.uint64)
        assert _popcount_unpackbits(edges).tolist() == [0, 64, 1, 1]

    def test_rejects_wrong_importance_shape(self):
        with pytest.raises(ValueError):
            PairLayout(4, 3, np.ones(2))

    def test_packed_kernel_identical_under_fallback(self, monkeypatch):
        """Force the numpy<2 popcount path through the whole kernel."""
        import repro.core.selection as selection

        frozen = build_tiny_instance().frozen()
        bank = RealizationBank(frozen, n_worlds=5, rng_seed=3)
        universe = [(u, x) for u in range(6) for x in range(4)]
        with_ufunc = CoverageGainOracle(bank).gains(universe)
        monkeypatch.setattr(selection, "HAVE_BITWISE_COUNT", False)
        with_fallback = CoverageGainOracle(bank).gains(universe)
        assert np.array_equal(with_ufunc, with_fallback)


# ---------------------------------------------------------------------------
# packed coverage kernel vs. boolean scalar reference
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bank():
    frozen = build_tiny_instance().frozen()
    return RealizationBank(frozen, n_worlds=9, rng_seed=29)


class TestPackedCoverageBitIdentity:
    def test_batched_gains_bit_identical_to_scalar_reference(self, bank):
        universe = [
            (user, item)
            for user in range(bank.instance.n_users)
            for item in range(bank.instance.n_items)
        ]
        oracle = CoverageGainOracle(bank)
        reference = CoverageEvaluator(bank)
        rng = np.random.default_rng(11)
        committed: list[tuple[int, int]] = []
        for _ in range(4):
            batched = oracle.gains(universe)
            scalar = np.array(
                [reference.gain(bank.pair_index(u, x)) for u, x in universe]
            )
            # exact equality — the contract that keeps the CELF heap's
            # tie order (and thus the goldens) stable across kernels
            assert np.array_equal(batched, scalar)
            pick = universe[int(rng.integers(len(universe)))]
            committed.append(pick)
            gain = float(batched[universe.index(pick)])
            oracle.commit(pick, gain)
            reference.add(bank.pair_index(*pick))

    def test_gain_matches_bank_sigma_difference(self, bank):
        oracle = CoverageGainOracle(bank)
        first = (0, 0)
        second = (3, 2)
        gain_first = float(oracle.gains([first])[0])
        assert gain_first == pytest.approx(
            bank.sigma((bank.pair_index(*first),))
        )
        oracle.commit(first, gain_first)
        gain_second = float(oracle.gains([second])[0])
        pair_ids = tuple(
            sorted((bank.pair_index(*first), bank.pair_index(*second)))
        )
        assert gain_second == pytest.approx(
            bank.sigma(pair_ids) - bank.sigma((bank.pair_index(*first),))
        )

    def test_packed_memory_is_an_eighth_of_bool(self, bank):
        # 1 bit vs 1 byte per pair: exactly 8x once n_users fills its
        # words (each item's users are padded to a multiple of 64)
        layout = PairLayout(640, 3, np.ones(3))
        mask = np.zeros((4, layout.n_pairs), dtype=bool)
        packed = layout.pack(mask)
        assert packed.nbytes * 8 == mask.nbytes
        # and the bank's packed stacks beat their boolean form even on
        # the tiny padded instance
        assert (
            bank.stacked_reach_packed(0).nbytes
            <= bank.layout.n_words * 8 * bank.n_worlds
        )


# ---------------------------------------------------------------------------
# the CELF engine: batching is a prefetch
# ---------------------------------------------------------------------------
def scalar_reference_celf(
    universe,
    oracle,
    cost,
    budget,
    allow_budget_violation_by_last=False,
    stop_on_negative_gain=True,
):
    """Literal transcription of the historical scalar CELF loop."""
    import heapq

    selected, selected_set = [], frozenset()
    current_value = oracle(selected_set)
    spent = 0.0
    heap = []
    for order, element in enumerate(universe):
        gain = oracle(frozenset([element])) - current_value
        heapq.heappush(heap, (-gain / cost(element), order, element, 0))
    while heap:
        neg_ratio, order, element, evaluated_at = heapq.heappop(heap)
        element_cost = cost(element)
        over_budget = spent + element_cost > budget
        if over_budget and not allow_budget_violation_by_last:
            continue
        if evaluated_at != len(selected):
            gain = oracle(selected_set | {element}) - current_value
            heapq.heappush(
                heap, (-gain / element_cost, order, element, len(selected))
            )
            continue
        gain = -neg_ratio * element_cost
        if stop_on_negative_gain and gain <= 1e-12:
            break
        selected.append(element)
        selected_set = selected_set | {element}
        current_value += gain
        spent += element_cost
        if over_budget:
            break
    return selected, current_value, spent


def noisy_value_oracle(seed: int):
    """Deterministic but *non-submodular* value function.

    Re-evaluated marginals may grow, which is exactly the regime where
    naive batched re-evaluation would diverge from the scalar loop —
    the prefetch design must not.
    """

    def oracle(selection: frozenset) -> float:
        if not selection:
            return 0.0
        key = hash((seed, tuple(sorted(selection)))) & 0xFFFFFFFF
        return (key / 0xFFFFFFFF) * 10.0 + len(selection)

    return oracle


class TestMcpLazyGreedyBatching:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("stop_on_negative_gain", [True, False])
    def test_matches_scalar_reference_on_noisy_oracles(
        self, batch_size, stop_on_negative_gain
    ):
        rng = np.random.default_rng(batch_size)
        for trial in range(6):
            universe = list(range(10))
            costs = {e: float(rng.uniform(0.5, 2.5)) for e in universe}
            oracle_fn = noisy_value_oracle(trial)
            expected = scalar_reference_celf(
                universe,
                oracle_fn,
                lambda e: costs[e],
                budget=6.0,
                stop_on_negative_gain=stop_on_negative_gain,
            )
            result = mcp_lazy_greedy(
                universe,
                FunctionGainOracle(oracle_fn),
                lambda e: costs[e],
                budget=6.0,
                stop_on_negative_gain=stop_on_negative_gain,
                batch_size=batch_size,
            )
            assert result.selected == expected[0]
            assert result.value == expected[1]
            assert result.total_cost == expected[2]

    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_violating_variant_matches_scalar_reference(self, batch_size):
        oracle_fn = noisy_value_oracle(99)
        universe = list(range(8))
        expected = scalar_reference_celf(
            universe,
            oracle_fn,
            lambda e: 2.0,
            budget=5.0,
            allow_budget_violation_by_last=True,
        )
        result = mcp_lazy_greedy(
            universe,
            FunctionGainOracle(oracle_fn),
            lambda e: 2.0,
            budget=5.0,
            allow_budget_violation_by_last=True,
            batch_size=batch_size,
        )
        assert result.selected == expected[0]
        assert result.total_cost == expected[2]

    def test_exact_ties_resolve_by_universe_order(self):
        # four identical candidates: the tie_breaker (universe order)
        # decides, regardless of batch size
        def oracle_fn(selection: frozenset) -> float:
            return float(len(selection))

        for batch_size in (1, 2, 8):
            result = mcp_lazy_greedy(
                ["c", "a", "d", "b"],
                FunctionGainOracle(oracle_fn),
                lambda e: 1.0,
                budget=2.0,
                batch_size=batch_size,
            )
            assert result.selected == ["c", "a"]

    @pytest.mark.parametrize("batch_size", [2, 3, 7, 64])
    @pytest.mark.parametrize("stop_on_negative_gain", [True, False])
    def test_unlimited_prefetch_matches_scalar_reference(
        self, batch_size, stop_on_negative_gain
    ):
        """The heap-batch drain path (prefetch_limit=None, so stale
        entries are drained and re-keyed in bulk) must replay the
        scalar pop sequence exactly — including on non-submodular
        oracles where a re-keyed gain can *grow* and interpose a
        commit mid-drain."""

        class UnlimitedOracle(FunctionGainOracle):
            prefetch_limit = None

        rng = np.random.default_rng(batch_size)
        for trial in range(8):
            universe = list(range(12))
            costs = {e: float(rng.uniform(0.5, 2.5)) for e in universe}
            oracle_fn = noisy_value_oracle(100 + trial)
            expected = scalar_reference_celf(
                universe,
                oracle_fn,
                lambda e: costs[e],
                budget=7.0,
                stop_on_negative_gain=stop_on_negative_gain,
            )
            result = mcp_lazy_greedy(
                universe,
                UnlimitedOracle(oracle_fn),
                lambda e: costs[e],
                budget=7.0,
                stop_on_negative_gain=stop_on_negative_gain,
                batch_size=batch_size,
            )
            assert result.selected == expected[0]
            assert result.value == expected[1]
            assert result.total_cost == expected[2]

    def test_drain_transcript_batches_stale_reevaluations(self):
        """Transcript of oracle call blocks: with an unbounded
        prefetch limit the stale re-evaluations arrive as multi-element
        blocks (the heap-batch drain), while the committed sequence
        stays bit-identical to the one-at-a-time scalar loop."""

        class TranscriptOracle(FunctionGainOracle):
            prefetch_limit = None

            def __init__(self, fn):
                super().__init__(fn)
                self.transcript: list[int] = []

            def gains(self, candidates):
                self.transcript.append(len(candidates))
                return super().gains(candidates)

        oracle_fn = noisy_value_oracle(5)
        universe = list(range(12))
        expected = scalar_reference_celf(
            universe, oracle_fn, lambda e: 1.0, budget=4.0
        )
        oracle = TranscriptOracle(oracle_fn)
        result = mcp_lazy_greedy(
            universe, oracle, lambda e: 1.0, budget=4.0, batch_size=8
        )
        assert result.selected == expected[0]
        assert result.value == expected[1]
        priming = oracle.transcript[: -(len(oracle.transcript) - 2)]
        assert priming == [8, 4]  # heap priming in batch_size blocks
        stale_blocks = oracle.transcript[2:]
        assert stale_blocks, "expected stale re-evaluations"
        assert max(stale_blocks) > 1, (
            "stale entries should drain in batches, got "
            f"{stale_blocks}"
        )

    def test_rejects_bad_budget_and_cost(self):
        with pytest.raises(AlgorithmError):
            mcp_lazy_greedy(
                ["a"], FunctionGainOracle(len), lambda e: 1.0, budget=0.0
            )
        with pytest.raises(AlgorithmError):
            mcp_lazy_greedy(
                ["a"], FunctionGainOracle(len), lambda e: 0.0, budget=1.0
            )
        with pytest.raises(AlgorithmError):
            mcp_lazy_greedy(
                ["a"],
                FunctionGainOracle(len),
                lambda e: 1.0,
                budget=1.0,
                batch_size=0,
            )


# ---------------------------------------------------------------------------
# batched Monte-Carlo gains
# ---------------------------------------------------------------------------
class TestMonteCarloGainOracle:
    @pytest.fixture(scope="class")
    def frozen(self):
        return build_tiny_instance().frozen()

    def test_sigma_block_matches_estimate_and_fills_cache(self, frozen):
        batched = SigmaEstimator(
            frozen, n_samples=5, rng_factory=RngFactory(3)
        )
        scalar = SigmaEstimator(
            frozen, n_samples=5, rng_factory=RngFactory(3)
        )
        groups = [
            SeedGroup([Seed(user, 0, 1)]) for user in range(4)
        ] + [SeedGroup([Seed(0, 0, 1), Seed(3, 2, 1)])]
        values = sigma_block(batched, groups, until_promotion=1)
        expected = [
            scalar.estimate(group, until_promotion=1).sigma
            for group in groups
        ]
        assert values.tolist() == expected
        assert batched.n_evaluations == scalar.n_evaluations
        # the batch landed in the cache under estimate()'s keys
        before = batched.n_evaluations
        again = sigma_block(batched, groups, until_promotion=1)
        assert again.tolist() == expected
        assert batched.n_evaluations == before

    def test_backend_independent(self, frozen):
        serial = SigmaEstimator(
            frozen,
            n_samples=6,
            rng_factory=RngFactory(8),
            backend=SerialBackend(),
        )
        with ThreadBackend(workers=3, chunk_size=1) as backend:
            threaded = SigmaEstimator(
                frozen, n_samples=6, rng_factory=RngFactory(8), backend=backend
            )
            groups = [SeedGroup([Seed(u, 1, 1)]) for u in range(5)]
            assert np.array_equal(
                sigma_block(serial, groups, until_promotion=1),
                sigma_block(threaded, groups, until_promotion=1),
            )

    def test_insertion_order_groups_match_with_seed_construction(
        self, frozen
    ):
        estimator = SigmaEstimator(
            frozen, n_samples=4, rng_factory=RngFactory(5)
        )
        oracle = MonteCarloGainOracle(
            estimator, until_promotion=1, sort_selection=False
        )
        oracle.commit((3, 2), 0.0)
        oracle.commit((0, 0), 0.0)
        trial = oracle.group_with((1, 1))
        manual = SeedGroup([Seed(3, 2, 1), Seed(0, 0, 1)]).with_seed(
            Seed(1, 1, 1)
        )
        assert list(trial) == list(manual)

    def test_pool_prefetches_one_candidate_per_worker(self, frozen):
        """Stale re-evaluations ask a pool for at most one candidate per
        worker; the committed sequence is the serial one."""
        universe = [
            (user, item)
            for user in range(frozen.n_users)
            for item in range(frozen.n_items)
        ]

        def select(backend):
            estimator = SigmaEstimator(
                frozen, n_samples=4, rng_factory=RngFactory(2), backend=backend
            )
            oracle = MonteCarloGainOracle(estimator, until_promotion=1)
            sizes = []
            gains = oracle.gains

            def recording(candidates):
                sizes.append(len(candidates))
                return gains(candidates)

            oracle.gains = recording
            result = mcp_lazy_greedy(
                universe, oracle, cost=lambda element: 1.0, budget=4.0, batch_size=32
            )
            # One priming call covers the whole universe; every later
            # call re-evaluates stale heap entries.
            assert sizes[0] == len(universe)
            return result.selected, sizes[1:], oracle.prefetch_limit

        serial, serial_sizes, serial_limit = select(SerialBackend())
        with ProcessPoolBackend(workers=2) as backend:
            pooled, pooled_sizes, pooled_limit = select(backend)
            workers = backend.workers
        assert serial_limit == 1 and set(serial_sizes) == {1}
        assert pooled_limit == workers <= 2
        assert pooled_sizes and max(pooled_sizes) <= workers
        assert pooled == serial

    def test_values_track_committed_value_exactly(self, frozen):
        estimator = SigmaEstimator(
            frozen, n_samples=4, rng_factory=RngFactory(6)
        )
        oracle = MonteCarloGainOracle(estimator, until_promotion=1)
        values = oracle.values([(0, 0), (1, 1)])
        gains = oracle.gains([(0, 0), (1, 1)])
        assert np.array_equal(gains, values - 0.0)
        oracle.commit((0, 0), value=float(values[0]))
        assert oracle.value == float(values[0])


class TestFirstStrictArgmax:
    def test_strictness_and_tie_order(self):
        assert first_strict_argmax([1.0, 1.0, 0.5], 0.0) == (0, 1.0)
        assert first_strict_argmax([0.5, 2.0, 2.0], 0.0) == (1, 2.0)
        assert first_strict_argmax([0.5, 0.4], 0.5) == (None, 0.5)
        assert first_strict_argmax([], 0.0) == (None, 0.0)
