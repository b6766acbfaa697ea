"""Oracle selection: construct a sigma estimator by kind.

The CLI's ``--oracle`` flag, ``DysimConfig.oracle`` and the baselines'
``oracle`` keyword all resolve through :func:`make_sigma_estimator`:
``"mc"`` builds the Monte-Carlo :class:`SigmaEstimator`, ``"sketch"``
the :class:`SketchSigmaEstimator` (realization bank + reachability
sketches, with transparent MC fallback for unsupported queries), and
``"rrset"`` the :class:`RRSetSigmaEstimator` (reverse-reachable-set
coverage, the million-node selection path — same transparent MC
fallback).
"""

from __future__ import annotations

from repro.core.problem import IMDPPInstance
from repro.diffusion.models import DiffusionModel
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine.backends import ExecutionBackend
from repro.engine.cache import SigmaCache
from repro.sketch.estimator import SketchSigmaEstimator
from repro.sketch.rrset import RRSetSigmaEstimator
from repro.utils.rng import RngFactory

__all__ = ["ORACLE_NAMES", "make_sigma_estimator"]

#: Spelled-out oracle kinds (CLI / config).
ORACLE_NAMES = ("mc", "rrset", "sketch")


def make_sigma_estimator(
    oracle: str | None,
    instance: IMDPPInstance,
    model: DiffusionModel = DiffusionModel.INDEPENDENT_CASCADE,
    n_samples: int = 20,
    rng_factory: RngFactory | None = None,
    backend: ExecutionBackend | None = None,
    cache: SigmaCache | None = None,
) -> SigmaEstimator:
    """Build the sigma estimator for an oracle kind (``None`` = mc).

    ``backend`` is borrowed (``None`` = a private serial backend).
    """
    kind = oracle or "mc"
    if kind not in ORACLE_NAMES:
        raise ValueError(
            f"unknown oracle {oracle!r}; expected one of {ORACLE_NAMES}"
        )
    kwargs = dict(
        model=model,
        n_samples=n_samples,
        rng_factory=rng_factory,
        backend=backend,
        cache=cache,
    )
    if kind == "sketch":
        return SketchSigmaEstimator(instance, **kwargs)
    if kind == "rrset":
        return RRSetSigmaEstimator(instance, **kwargs)
    return SigmaEstimator(instance, **kwargs)
