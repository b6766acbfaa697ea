"""Declarative sweep specifications and canonical config hashing.

A :class:`SweepSpec` declares a parameter space — axes (dataset,
budget, promotions, theta, oracle, backend, ...) crossed
into a cartesian product, a ``base`` of pinned parameters shared by
every point, an optional ``refine`` hook that filters/augments points,
and a pinned tuple of seed-streams.  :meth:`SweepSpec.expand` turns
the declaration into concrete :class:`RunConfig` objects; the result
store keys rows by ``(RunConfig.config_hash, seed)``, which is what
makes sweeps *resumable*: re-running a spec recomputes exactly the
(config, seed) pairs whose rows are missing.

Canonicalization contract (DESIGN.md §7)
----------------------------------------
The config hash must be stable across processes, Python versions and
dict insertion orders, so the hash input is a *canonical JSON* form of
the full parameter dict:

* mapping keys must be strings and are sorted lexicographically;
* values are restricted to JSON scalars, sequences and string-keyed
  mappings (tuples canonicalize to lists; numpy scalars to their
  Python equivalents);
* floats rely on ``repr`` shortest-roundtrip formatting (stable since
  Python 3.1); non-finite floats are rejected;
* ``int`` and ``float`` are deliberately **not** unified — ``500`` and
  ``500.0`` are different configs, so spec axes should pin one type;
* the serialized form is prefixed with the schema version, so a row
  schema bump re-keys every config instead of silently aliasing old
  rows.

The hex digest is truncated to 16 characters (64 bits) — enough that
collisions are negligible at campaign scale while keeping store rows
and CLI output readable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import SweepError

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "SweepSpec",
    "canonical_params",
    "canonical_json",
    "config_hash",
]

#: Version of the (canonical params, store row) schema.  Bump whenever
#: the meaning of a parameter or payload field changes incompatibly;
#: the bump re-keys every config hash, so old rows are never aliased.
SCHEMA_VERSION = 1


def canonical_params(value):
    """Recursively canonicalize a parameter value for hashing.

    Returns a structure made only of ``None``, ``bool``, ``int``,
    ``float`` (finite), ``str``, ``list`` and string-keyed ``dict`` —
    the JSON-representable core — with mappings key-sorted and tuples
    coerced to lists.  Raises :class:`~repro.errors.SweepError` for
    anything else (objects, NaN, non-string keys): a config that
    cannot be canonicalized cannot be stably keyed.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    # bool is an int subclass; the check above must come first so
    # True/1 stay distinct in the canonical JSON (true vs 1).
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SweepError(
                f"non-finite float {value!r} cannot be canonicalized"
            )
        return float(value)
    if isinstance(value, (list, tuple)):
        return [canonical_params(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise SweepError(
                    f"config keys must be strings, got {key!r}"
                )
            out[key] = canonical_params(value[key])
        return out
    # Numpy scalars (np.float64 budgets, np.int64 counts) canonicalize
    # to their Python equivalents without importing numpy here.
    item = getattr(value, "item", None)
    if callable(item):
        return canonical_params(item())
    raise SweepError(
        f"cannot canonicalize config value of type {type(value).__name__}: "
        f"{value!r}"
    )


def canonical_json(params: Mapping) -> str:
    """Whitespace-free, key-sorted JSON of the canonical params."""
    return json.dumps(
        canonical_params(params),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def config_hash(params: Mapping, schema_version: int = SCHEMA_VERSION) -> str:
    """Stable 16-hex-char content hash of a full config dict."""
    payload = f"repro-sweep:v{schema_version}:{canonical_json(params)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RunConfig:
    """One fully-pinned point of a sweep's parameter space.

    ``params`` is the canonicalized full config dict — everything the
    executor needs to reproduce the run except the seed-stream, which
    is deliberately kept *outside* the config and alongside it in the
    store key: seeds index pinned CRN streams (PR 1/2/5 discipline),
    so (config, seed) rows from different seeds are replicates of one
    config, not different experiments.
    """

    __slots__ = ("spec", "params", "config_hash")

    def __init__(self, spec: str, params: Mapping):
        self.spec = str(spec)
        params = dict(params)
        # Registry datasets are loaded at an explicit user-count scale
        # (default 1.0).  Pin the default into the canonical params so
        # a spec that later sweeps ``scale`` cannot alias its scale=1.0
        # point onto historical rows that omitted the key — the two are
        # the same run, and now hash the same.  Course datasets are
        # replayed logs with no scale knob, so they stay untouched.
        dataset = params.get("dataset")
        if (
            isinstance(dataset, str)
            and not dataset.startswith("courses/")
            and params.get("scale") is None
        ):
            params["scale"] = 1.0
        self.params = canonical_params(params)
        self.config_hash = config_hash(self.params)

    def __hash__(self) -> int:
        return hash((self.spec, self.config_hash))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunConfig):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.config_hash == other.config_hash
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunConfig(spec={self.spec!r}, hash={self.config_hash})"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative parameter space for one experiment campaign.

    Attributes
    ----------
    name:
        Registry / store key (``repro sweep run --spec <name>``).
    axes:
        Ordered mapping of parameter name to the values it sweeps;
        :meth:`expand` takes the cartesian product in declaration
        order, so the first axis varies slowest.  Axis order controls
        *enumeration and rendering* order only — the config hash is
        order-independent.
    base:
        Parameters pinned for every point (merged under the axes).
    seeds:
        Seed-streams every config runs under.  Part of the store key,
        not of the config hash.
    refine:
        Optional hook ``params -> params | None`` applied to each
        expanded point: return ``None`` to filter the point out, or a
        (possibly modified) dict — e.g. merging per-algorithm keyword
        arguments or deriving ``scale`` from ``dataset``.
    artifacts:
        Names of the ``benchmarks/results/<name>.txt`` artifacts the
        spec's renderer regenerates (see :mod:`repro.sweep.render`).
    title:
        Human-readable label for ``repro sweep status``.
    """

    name: str
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    base: Mapping[str, object] = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    refine: Callable[[dict], dict | None] | None = None
    artifacts: tuple[str, ...] = ()
    title: str = ""

    def expand(self) -> list[RunConfig]:
        """Expand the declared space into concrete run configs."""
        names = list(self.axes)
        value_lists = [list(self.axes[name]) for name in names]
        for name, values in zip(names, value_lists):
            if not values:
                raise SweepError(
                    f"spec {self.name!r}: axis {name!r} has no values"
                )
        configs: list[RunConfig] = []
        seen: set[str] = set()
        for combo in itertools.product(*value_lists):
            params = dict(self.base)
            params.update(zip(names, combo))
            if self.refine is not None:
                params = self.refine(dict(params))
                if params is None:
                    continue
            config = RunConfig(self.name, params)
            if config.config_hash in seen:
                raise SweepError(
                    f"spec {self.name!r}: duplicate config "
                    f"{config.config_hash} — axes/refine collapsed two "
                    f"points onto one hash"
                )
            seen.add(config.config_hash)
            configs.append(config)
        if not configs:
            raise SweepError(f"spec {self.name!r} expands to no runs")
        return configs

    def run_keys(self) -> list[tuple["RunConfig", int]]:
        """All (config, seed) pairs of the campaign, in canonical order."""
        return [
            (config, seed)
            for config in self.expand()
            for seed in self.seeds
        ]
