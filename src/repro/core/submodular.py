"""Submodular-maximization toolkit behind Dysim's guarantees.

Section IV-C builds Dysim's approximation bound from three blocks:

* a **budgeted lazy greedy** on the marginal cost-performance ratio
  (MCP) — Lemma 3's ``f(S) >= f(S ∪ C) / 2`` procedure, implemented
  with a CELF-style lazy priority queue;
* the linear-time **double greedy** for unconstrained submodular
  maximization (USM) of Buchbinder et al. [60];
* the **1/12-approximation composite** of Theorem 3, which combines
  two greedy passes, a USM call on the first pass's ground set, a
  feasibility repair, and the best singleton.

The toolkit is generic over a value oracle ``f(frozenset) -> float`` so
it is unit-testable on synthetic submodular functions independently of
the diffusion machinery.  The CELF loop itself lives in
:func:`repro.core.selection.mcp_lazy_greedy` — the single
implementation every selection phase shares; this module adapts the
value-oracle interface onto it via
:class:`~repro.core.selection.FunctionGainOracle`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.core.selection import (
    FunctionGainOracle,
    GreedyResult,
    mcp_lazy_greedy,
)

__all__ = [
    "GreedyResult",
    "budgeted_lazy_greedy",
    "double_greedy_usm",
    "composite_smk",
]

ValueOracle = Callable[[frozenset], float]


def budgeted_lazy_greedy(
    universe: Sequence[Hashable],
    oracle: ValueOracle,
    cost: Callable[[Hashable], float],
    budget: float,
    allow_budget_violation_by_last: bool = False,
    stop_on_negative_gain: bool = True,
) -> GreedyResult:
    """Greedy by marginal gain per cost under a knapsack budget.

    This is the paper's MCP rule (Procedure 2) with CELF-style lazy
    re-evaluation: stale upper bounds are popped from a heap and only
    re-evaluated when they reach the top, exploiting that marginal
    gains of a submodular ``f`` only shrink.  The loop is
    :func:`~repro.core.selection.mcp_lazy_greedy` driven by a
    :class:`~repro.core.selection.FunctionGainOracle`; selections,
    values and call counts match the historical scalar implementation
    exactly.

    Parameters
    ----------
    allow_budget_violation_by_last:
        Lemma 3 analyses the greedy that stops *just after* violating
        the budget; pass True to reproduce that variant (the returned
        set may exceed the budget by its final element).
    stop_on_negative_gain:
        Stop when the best available marginal gain is not strictly
        positive (case 2 of Lemma 3 covers the negative case; zero
        gains are also skipped because they only burn budget).
    """
    return mcp_lazy_greedy(
        universe,
        FunctionGainOracle(oracle),
        cost,
        budget,
        allow_budget_violation_by_last=allow_budget_violation_by_last,
        stop_on_negative_gain=stop_on_negative_gain,
    )


def double_greedy_usm(
    universe: Sequence[Hashable],
    oracle: ValueOracle,
    rng: np.random.Generator | None = None,
) -> GreedyResult:
    """Randomized double greedy for USM (1/2-approx in expectation).

    Maintains a growing set X and a shrinking set Y; for each element
    the add-gain to X and the remove-gain from Y decide a biased coin
    (deterministic when one gain is non-positive), per Buchbinder,
    Feldman, Naor and Schwartz [60].
    """
    rng = rng or np.random.default_rng(0)
    n_calls = 0

    def evaluate(selection: frozenset) -> float:
        nonlocal n_calls
        n_calls += 1
        return oracle(selection)

    x: frozenset = frozenset()
    y: frozenset = frozenset(universe)
    value_x = evaluate(x)
    value_y = evaluate(y)
    for element in universe:
        gain_add = evaluate(x | {element}) - value_x
        gain_remove = evaluate(y - {element}) - value_y
        take = False
        if gain_add >= 0 and gain_remove <= 0:
            take = True
        elif gain_add <= 0 and gain_remove >= 0:
            take = False
        else:
            positive_add = max(gain_add, 0.0)
            positive_remove = max(gain_remove, 0.0)
            denominator = positive_add + positive_remove
            take = rng.random() < (
                positive_add / denominator if denominator > 0 else 0.5
            )
        if take:
            x = x | {element}
            value_x += gain_add
        else:
            y = y - {element}
            value_y += gain_remove
    assert x == y
    return GreedyResult(
        selected=sorted(x, key=str),
        value=value_x,
        total_cost=0.0,
        n_oracle_calls=n_calls,
    )


def composite_smk(
    universe: Sequence[Hashable],
    oracle: ValueOracle,
    cost: Callable[[Hashable], float],
    budget: float,
    rng: np.random.Generator | None = None,
) -> GreedyResult:
    """The O(n^2)-call 1/12-approximation for non-monotone SMK.

    Theorem 3's construction:

    1. run the Lemma-3 greedy to get ``S1`` (may just violate b);
    2. run it again on ``universe \\ S1`` to get ``S2``;
    3. run USM double greedy on the ground set ``S1``;
    4. repair feasibility by dropping the budget-violating element;
    5. also consider the best feasible singleton;
    6. return the best feasible candidate.
    """
    rng = rng or np.random.default_rng(0)
    total_calls = 0

    first = budgeted_lazy_greedy(
        universe, oracle, cost, budget, allow_budget_violation_by_last=True
    )
    total_calls += first.n_oracle_calls
    remaining = [e for e in universe if e not in set(first.selected)]
    second = budgeted_lazy_greedy(
        remaining, oracle, cost, budget, allow_budget_violation_by_last=True
    ) if remaining else GreedyResult([], oracle(frozenset()), 0.0, 1)
    total_calls += second.n_oracle_calls
    usm = double_greedy_usm(first.selected, oracle, rng)
    total_calls += usm.n_oracle_calls

    def repair(elements: Iterable[Hashable]) -> list[Hashable]:
        """Drop elements (cheapest value density first) until feasible."""
        chosen = list(elements)
        while chosen and sum(cost(e) for e in chosen) > budget:
            chosen = chosen[:-1]
        return chosen

    candidates = [
        repair(first.selected),
        repair(second.selected),
        repair(usm.selected),
    ]
    singletons = [
        [element]
        for element in universe
        if cost(element) <= budget
    ]
    best_single: list[Hashable] = []
    best_single_value = oracle(frozenset())
    total_calls += 1
    for singleton in singletons:
        value = oracle(frozenset(singleton))
        total_calls += 1
        if value > best_single_value:
            best_single_value = value
            best_single = singleton
    candidates.append(best_single)

    best: list[Hashable] = []
    best_value = oracle(frozenset())
    total_calls += 1
    for candidate in candidates:
        value = oracle(frozenset(candidate))
        total_calls += 1
        if value > best_value:
            best_value = value
            best = candidate
    return GreedyResult(
        selected=best,
        value=best_value,
        total_cost=float(sum(cost(e) for e in best)),
        n_oracle_calls=total_calls,
    )
