"""CR-Greedy timing assignment (after Sun et al. [39]).

The four single-promotion baselines produce an *ordered* list of
(user, item) picks; following the paper's setup (Sec. VI-A) we augment
each with CR-Greedy to schedule those picks across the ``T``
promotions: picks are considered in selection order and each is
assigned the promotion with the largest marginal spread given the
already-scheduled seeds — the multi-round greedy of [39] restated for
user-item pairs.
"""

from __future__ import annotations

from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.core.selection import first_strict_argmax
from repro.diffusion.montecarlo import SigmaEstimator

__all__ = ["assign_timings"]


def assign_timings(
    instance: IMDPPInstance,
    picks: list[tuple[int, int]],
    estimator: SigmaEstimator,
    max_rounds_searched: int | None = None,
) -> SeedGroup:
    """Greedily schedule ordered picks over promotions 1..T.

    Parameters
    ----------
    instance:
        Supplies ``T``.
    picks:
        Ordered (user, item) pairs from a baseline.
    estimator:
        Sigma oracle used for the marginal comparisons (baselines use
        the frozen estimator, mirroring their static world models).
        With the ``sketch`` oracle the frozen spread is provably
        timing-independent (a realized world's spread is a reachability
        union), so every promotion ties and each pick lands in the
        earliest slot — the scheduling noise the Monte-Carlo oracle
        exhibits here is exactly that: noise.
    max_rounds_searched:
        Optional cap on how many distinct promotions are evaluated per
        pick (the first ``k`` rounds); None searches all ``T``.
    """
    scheduled = SeedGroup()
    rounds = instance.n_promotions
    searched = min(rounds, max_rounds_searched or rounds)
    for user, item in picks:
        # All timing variants of one pick are evaluated in a single
        # batched call through the unified selection layer (cached and
        # backend-fanned for the mc oracle); the scan replicates the
        # scalar ``value > best_value`` comparison exactly.
        candidates = [
            Seed(user, item, promotion)
            for promotion in range(1, searched + 1)
            if Seed(user, item, promotion) not in scheduled
        ]
        values = estimator.estimate_block(
            [scheduled.with_seed(candidate) for candidate in candidates]
        )
        best_index, _ = first_strict_argmax(values, -float("inf"))
        if best_index is not None:
            scheduled.add(candidates[best_index])
    return scheduled
