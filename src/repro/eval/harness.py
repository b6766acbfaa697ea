"""Experiment harness: run every algorithm under identical evaluation.

Each figure in Sec. VI compares algorithms by the importance-aware
influence of their seed groups; for fairness every algorithm's output
is re-evaluated here with one shared Monte-Carlo estimator (common
random numbers, paper-style M samples) regardless of what each
algorithm used internally.

Every registered algorithm selects through the unified gain-oracle
layer (:mod:`repro.core.selection`): pass Dysim knobs such as
``singleton_pool`` to :func:`run_dysim` via keyword overrides.

The sweep layer (:mod:`repro.sweep`) drives :func:`run_algorithm` /
:func:`evaluate_group` for every declared (config, seed) run and
persists the outcomes; prefer declaring a spec over scripting this
harness directly when the runs should land in the result store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.baselines import (
    BaselineResult,
    run_bgrd,
    run_drhga,
    run_hag,
    run_opt,
    run_ps,
)
from repro.core.dysim import Dysim, DysimConfig
from repro.core.dysim.nominees import select_nominees
from repro.core.problem import IMDPPInstance, Seed, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import ExecutionBackend
from repro.sketch.oracle import make_sigma_estimator
from repro.utils.rng import RngFactory

__all__ = [
    "ALGORITHMS",
    "run_algorithm",
    "evaluate_group",
    "SweepRow",
]


def run_dysim(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
    **config_overrides,
) -> BaselineResult:
    """Adapter exposing Dysim through the baseline interface.

    ``backend`` is borrowed and handed to :class:`Dysim` as is.
    """
    config_kwargs = {
        "n_samples_selection": n_samples,
        "n_samples_inner": n_samples,
        "model": model,
        "seed": seed,
        "oracle": oracle,
        **config_overrides,  # may override the sample counts
    }
    config = DysimConfig(**config_kwargs)
    started = time.perf_counter()
    result = Dysim(instance, config, backend=backend).run()
    return BaselineResult(
        name="Dysim",
        seed_group=result.seed_group,
        sigma=result.sigma,
        runtime_seconds=time.perf_counter() - started,
        diagnostics={
            "n_markets": len(result.markets),
            "fallback": result.fallback_used,
            "n_oracle_calls": result.n_oracle_calls,
            "backend": result.backend,
            "oracle": result.oracle,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            # Stacked-reach LRU counters of the sketch oracle's bank
            # (zero under the mc oracle, which builds no bank).
            "bank_reach_hits": result.bank_reach_hits,
            "bank_reach_misses": result.bank_reach_misses,
            "bank_reach_evictions": result.bank_reach_evictions,
            # Wall-clock attribution (bank / selection / final_mc) —
            # what lets a 269-second e2e run say *where* it went.
            "phase_seconds": dict(result.phase_seconds),
            # Fault handling the backend performed (retries, pool
            # rebuilds, degradations; empty = fault-free run).  Sweep
            # store rows lift this into their ``fault_stats`` column.
            "fault_stats": dict(result.fault_stats),
        },
    )


def run_dysim_select(
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "rrset",
    candidate_pool: int | None = 150,
    singleton_pool: int | None = 1,
) -> BaselineResult:
    """Selection-only Dysim: the frozen-phase MCP greedy alone.

    The scalability vehicle for the coverage oracles (Fig. 9's x-axis
    pushed to 10^6 users): market identification, DRE and TDSI are
    skipped, the selected nominees are all seeded in the first
    promotion, and sigma is the selection oracle's own frozen-phase
    estimate — no Monte-Carlo re-simulation, whose per-sample frontier
    walks are what make full Dysim infeasible at this scale.
    ``backend`` is borrowed (``None`` = a private serial backend).
    """
    frozen = instance.frozen()
    estimator = make_sigma_estimator(
        oracle,
        frozen,
        model=model,
        n_samples=n_samples,
        rng_factory=RngFactory(seed),
        backend=backend,
    )
    backend_stats = estimator.backend.fault_stats
    stats_before = backend_stats.copy()
    started = time.perf_counter()
    estimator.prepare()
    bank_done = time.perf_counter()
    selection = select_nominees(
        frozen,
        estimator,
        candidate_pool,
        singleton_pool=singleton_pool,
    )
    seed_group = SeedGroup(
        Seed(user, item, 1) for user, item in sorted(selection.nominees)
    )
    finished = time.perf_counter()
    delta = backend_stats.delta(stats_before)
    fault_stats = delta.as_dict() if delta.activity else {}
    return BaselineResult(
        name="DysimSelect",
        seed_group=seed_group,
        sigma=selection.frozen_value,
        runtime_seconds=finished - started,
        diagnostics={
            "n_oracle_calls": selection.n_oracle_calls,
            "total_cost": selection.total_cost,
            "oracle": oracle,
            "backend": estimator.backend.name,
            "phase_seconds": {
                "bank": bank_done - started,
                "selection": finished - bank_done,
            },
            "fault_stats": fault_stats,
        },
    )


#: Algorithm registry used by the figure benchmarks.
ALGORITHMS: dict[str, Callable[..., BaselineResult]] = {
    "Dysim": run_dysim,
    "DysimSelect": run_dysim_select,
    "BGRD": run_bgrd,
    "HAG": run_hag,
    "PS": run_ps,
    "DRHGA": run_drhga,
    "OPT": run_opt,
}


def run_algorithm(
    name: str,
    instance: IMDPPInstance,
    n_samples: int = 12,
    seed: int = 0,
    **kwargs,
) -> BaselineResult:
    """Run one registered algorithm by figure label."""
    if name not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[name](
        instance, n_samples=n_samples, seed=seed, **kwargs
    )


def evaluate_group(
    instance: IMDPPInstance,
    seed_group: SeedGroup,
    n_samples: int = 50,
    seed: int = 12345,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
) -> float:
    """Fair re-evaluation of any seed group (shared random worlds).

    ``backend`` is borrowed (``None`` = a private serial backend).
    """
    estimator = SigmaEstimator(
        instance,
        model=model,
        n_samples=n_samples,
        rng_factory=RngFactory(seed),
        backend=backend,
    )
    return estimator.sigma(seed_group)


@dataclass
class SweepRow:
    """One cell of a figure: (algorithm, x-value) -> sigma, runtime."""

    algorithm: str
    x: object
    sigma: float
    runtime_seconds: float
    n_seeds: int
