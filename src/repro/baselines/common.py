"""Shared plumbing for the baseline algorithms."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.problem import IMDPPInstance, SeedGroup
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine import ExecutionBackend, SerialBackend, SigmaCache
from repro.sketch.oracle import make_sigma_estimator
from repro.utils.rng import RngFactory

__all__ = ["BaselineResult", "make_estimators", "affordable_pairs"]


@dataclass
class BaselineResult:
    """Uniform output of every seeding algorithm.

    Attributes
    ----------
    name:
        Algorithm label as used in the figures.
    seed_group:
        The (budget-feasible) solution.
    sigma:
        Internal sigma estimate (benchmarks re-evaluate all algorithms
        with one shared high-sample estimator for fairness).
    runtime_seconds:
        Wall-clock selection time (Figs. 9(d)/(g)/(h)).
    diagnostics:
        Free-form extras for reporting.
    """

    name: str
    seed_group: SeedGroup
    sigma: float
    runtime_seconds: float
    diagnostics: dict = field(default_factory=dict)


def make_estimators(
    instance: IMDPPInstance,
    n_samples: int,
    seed: int,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    backend: ExecutionBackend | None = None,
    oracle: str = "mc",
) -> tuple[SigmaEstimator, SigmaEstimator]:
    """(frozen, dynamic) estimator pair with decorrelated streams.

    Both estimators borrow one execution backend (``None`` = one
    private serial backend, so ``fault_stats`` keeps a single account)
    and share one :class:`~repro.engine.SigmaCache`.  ``oracle``
    selects the frozen estimator's kind (``"mc"``, ``"sketch"`` or
    ``"rrset"``); the dynamic estimator is always Monte-Carlo —
    dynamics cannot be sketched.
    """
    factory = RngFactory(seed)
    shared = backend if backend is not None else SerialBackend()
    cache = SigmaCache()
    frozen = make_sigma_estimator(
        oracle,
        instance.frozen(),
        model=model,
        n_samples=n_samples,
        rng_factory=factory.child("frozen"),
        backend=shared,
        cache=cache,
    )
    dynamic = SigmaEstimator(
        instance,
        model=model,
        n_samples=n_samples,
        rng_factory=factory.child("dynamic"),
        backend=shared,
        cache=cache,
    )
    return frozen, dynamic


def affordable_pairs(
    instance: IMDPPInstance, spent: float = 0.0
) -> list[tuple[int, int]]:
    """All (user, item) pairs whose cost fits the remaining budget."""
    remaining = instance.budget - spent
    return [
        (user, item)
        for user in instance.network.users()
        for item in instance.items
        if instance.cost(user, item) <= remaining
    ]


class timer:
    """Context manager measuring wall-clock seconds."""

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        return False
