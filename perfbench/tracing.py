"""Per-layer tracing for the benchmark, installed from outside ``repro``.

The benchmark measures layers without touching the program: for a
traced operation it replaces public functions and methods of the
``repro.*`` modules with thin wrappers that record spans (wall-clock
intervals, aggregated into a tree by call path) and counters, then
puts every original back.  Only the benchmark process is wrapped.
Process-pool workers are forked before any wrapper is installed, so
work they do is not traced.

A span nested inside a span of the same name (recursion, or
``run`` calling ``map_chunks``) is not recorded again, so each name's
total is wall-clock time, not a double count.  The tracer assumes one
thread calls into ``repro``, which holds for the serial and process
backends the benchmark uses.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: Marker attribute set on every wrapper (checked by the self-tests).
WRAPPED_MARK = "__perfbench_wrapped__"


class Tracer:
    """Span tree and counters of one traced operation."""

    def __init__(self) -> None:
        #: call path (tuple of span names) -> [calls, total seconds]
        self.nodes: dict[tuple[str, ...], list] = {}
        self.counts: Counter = Counter()
        #: largest value seen per gauge name
        self.gauges: dict[str, float] = {}
        self._path: tuple[str, ...] = ()
        self._pickled_sizes: dict[int, int] = {}

    def timed(self, name: str, fn, args, kwargs):
        """Call ``fn`` inside span ``name``."""
        if name in self._path:
            return fn(*args, **kwargs)
        parent = self._path
        path = self._path = parent + (name,)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._path = parent
            node = self.nodes.get(path)
            if node is None:
                self.nodes[path] = [1, elapsed]
            else:
                node[0] += 1
                node[1] += elapsed

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = max(value, self.gauges.get(name, value))

    def total(self, name: str) -> float:
        """Wall-clock seconds spent inside spans called ``name``."""
        return sum(n[1] for path, n in self.nodes.items() if path[-1] == name)

    def calls(self, name: str) -> int:
        return sum(n[0] for path, n in self.nodes.items() if path[-1] == name)

    def tree(self) -> list[dict]:
        """Every call path with its calls, total and self seconds.

        Self time is the path's total minus the totals of its direct
        children.
        """
        rows = []
        for path, (calls, total) in sorted(self.nodes.items()):
            children = sum(
                node[1]
                for child, node in self.nodes.items()
                if len(child) == len(path) + 1 and child[:-1] == path
            )
            rows.append(
                {
                    "path": "/".join(path),
                    "calls": calls,
                    "total_s": total,
                    "self_s": total - children,
                }
            )
        return rows

    def task_bytes(self, task) -> int:
        """Pickled size of a dispatched task.

        Replication tasks carry the problem instance, which is the
        same object across thousands of dispatches; its size is
        computed once and added to the pickled size of the rest.
        """
        instance = getattr(task, "instance", None)
        if instance is None or not dataclasses.is_dataclass(task):
            return len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        size = self._pickled_sizes.get(id(instance))
        if size is None:
            size = len(pickle.dumps(instance, pickle.HIGHEST_PROTOCOL))
            self._pickled_sizes[id(instance)] = size
        rest = dataclasses.replace(task, instance=None)
        return size + len(pickle.dumps(rest, pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# wrapper factories: (tracer, original) -> wrapper
# ---------------------------------------------------------------------------
def _span(name: str, counter: str | None = None):
    def factory(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += 1
            return tracer.timed(name, fn, args, kwargs)

        return wrapper

    return factory


def _count(counter: str):
    def factory(tracer: Tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    return factory


def _dre_estimate(tracer: Tracer, fn):
    # DRE is the only caller collecting mean weights.
    def wrapper(*args, **kwargs):
        if kwargs.get("collect_weights"):
            return tracer.timed("dysim.dre", fn, args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _engine_run(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer.counts["engine.run_calls"] += 1
        return tracer.timed("engine", fn, args, kwargs)

    return wrapper


def _engine_map_chunks(tracer: Tracer, fn):
    def wrapper(backend, chunk_fn, task, chunks):
        tracer.counts["engine.map_calls"] += 1
        tracer.counts["engine.chunks"] += len(chunks)
        # Pool backends run a lone chunk in the caller; only several
        # chunks are pickled and sent to workers.
        if getattr(backend, "name", "") == "process" and len(chunks) > 1:
            tracer.counts["engine.task_bytes"] += tracer.task_bytes(
                task
            ) * len(chunks)
        return tracer.timed("engine", fn, (backend, chunk_fn, task, chunks), {})

    return wrapper


def _cache_get(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        entry = fn(*args, **kwargs)
        key = "engine.cache_misses" if entry is None else "engine.cache_hits"
        tracer.counts[key] += 1
        return entry

    return wrapper


def _gains(tracer: Tracer, fn):
    def wrapper(oracle, candidates):
        tracer.counts["selection.gain_calls"] += 1
        tracer.counts["selection.gain_evals"] += len(candidates)
        return fn(oracle, candidates)

    return wrapper


def _rr_index_init(tracer: Tracer, fn):
    def wrapper(index, *args, **kwargs):
        tracer.timed("rrset.sample", fn, (index, *args), kwargs)
        tracer.gauge("rrset.member_bytes", index.member_bytes)

    return wrapper


_GAIN_ORACLES = (
    "FunctionGainOracle",
    "CoverageGainOracle",
    "RRCoverageGainOracle",
    "MonteCarloGainOracle",
)

#: ``module:qualified.name`` -> wrapper factory.
INSTRUMENTS: dict[str, object] = {
    "repro.data.registry:load_dataset": _span("data.build"),
    "repro.core.dysim.nominees:select_nominees": _span("dysim.nominees"),
    "repro.core.dysim.clustering:cluster_nominees": _span("dysim.markets"),
    "repro.core.dysim.markets:identify_markets": _span("dysim.markets"),
    "repro.core.dysim.markets:group_markets": _span("dysim.markets"),
    "repro.core.dysim.markets:order_group": _span("dysim.markets"),
    "repro.core.dysim.clustering:average_relevance_matrices": _span(
        "dysim.dre"
    ),
    "repro.diffusion.montecarlo:SigmaEstimator.estimate": _dre_estimate,
    "repro.core.dysim.timing:best_timed_seed": _span("dysim.tdsi"),
    "repro.core.dysim.timing:substantial_influence": _count(
        "dysim.tdsi_candidates"
    ),
    "repro.core.selection:mcp_lazy_greedy": _span("selection.celf"),
    **{
        f"repro.core.selection:{name}.gains": _gains
        for name in _GAIN_ORACLES
    },
    **{
        f"repro.core.selection:{name}.commit": _count("selection.commits")
        for name in _GAIN_ORACLES
    },
    "repro.engine.backends:SerialBackend.run": _engine_run,
    "repro.engine.backends:SerialBackend.map_chunks": _engine_map_chunks,
    "repro.engine.backends:ProcessPoolBackend.run": _engine_run,
    "repro.engine.backends:ProcessPoolBackend.map_chunks": _engine_map_chunks,
    "repro.engine.cache:SigmaCache.get": _cache_get,
    "repro.diffusion.campaign:CampaignSimulator.run": _span(
        "diffusion.campaign", "diffusion.replications"
    ),
    "repro.perception.state:PerceptionState.complementary_row": _span(
        "perception.comp_row", "perception.comp_row_calls"
    ),
    "repro.perception.state:PerceptionState.influence_batch": _span(
        "perception.influence_batch", "perception.influence_batch_calls"
    ),
    "repro.perception.influence:adoption_similarity": _count(
        "perception.similarity_calls"
    ),
    "repro.perception.state:PerceptionState.apply_step_adoptions": _span(
        "perception.apply_adoptions"
    ),
    "repro.sketch.bank:build_skeleton": _span("rrset.skeleton"),
    "repro.sketch.rrset:RRSetIndex.__init__": _rr_index_init,
    "repro.sketch.rrset:RRSetSigmaEstimator.select_budgeted": _span(
        "rrset.select"
    ),
}


def resolve(target: str):
    """``(owner, attribute, original)`` for one instrument target.

    For a method the owner is the class in the MRO that defines it, so
    subclasses that inherit it see the wrapper too.
    """
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        owner = next(c for c in owner.__mro__ if attribute in vars(c))
    return owner, attribute, vars(owner)[attribute]


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install every wrapper; returns what :func:`uninstall` restores.

    A module-level function is also replaced wherever another
    ``repro`` module imported it by name.
    """
    patches: list[tuple[object, str, object]] = []
    seen: set[tuple[int, str]] = set()
    for target, factory in INSTRUMENTS.items():
        owner, attribute, original = resolve(target)
        if (id(owner), attribute) in seen:
            continue  # two subclasses sharing one inherited method
        seen.add((id(owner), attribute))
        wrapper = factory(tracer, original)
        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = original
        places = [(owner, attribute)]
        if not isinstance(owner, type):
            places += [
                (module, name)
                for module in _repro_modules()
                for name, value in list(vars(module).items())
                if value is original and module is not owner
            ]
        for place, name in places:
            patches.append((place, name, original))
            setattr(place, name, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for place, name, original in reversed(patches):
        setattr(place, name, original)


@contextmanager
def traced(tracer: Tracer):
    """Wrap the instrumented functions for the duration of the block."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


def leftover_wrappers() -> list[str]:
    """Names of any wrapper still reachable from a ``repro`` module."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attribute, member in list(vars(value).items()):
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(
                            f"{module.__name__}.{name}.{attribute}"
                        )
    return found


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced operation yields."""
    total, counts = tracer.total, tracer.counts
    evals = counts["selection.gain_evals"]
    lookups = counts["engine.cache_hits"] + counts["engine.cache_misses"]
    return {
        "dysim.nominees_s": total("dysim.nominees"),
        "dysim.markets_s": total("dysim.markets"),
        "dysim.dre_s": total("dysim.dre"),
        "dysim.tdsi_s": total("dysim.tdsi"),
        "dysim.tdsi_candidates": counts["dysim.tdsi_candidates"],
        "selection.celf_s": total("selection.celf"),
        "selection.gain_calls": counts["selection.gain_calls"],
        "selection.gain_evals": evals,
        "selection.useful_ratio": (
            counts["selection.commits"] / evals if evals else 0.0
        ),
        "engine.run_calls": counts["engine.run_calls"],
        "engine.map_calls": counts["engine.map_calls"],
        "engine.chunks": counts["engine.chunks"],
        "engine.busy_s": total("engine"),
        "engine.task_bytes": counts["engine.task_bytes"],
        "engine.cache_hit_ratio": (
            counts["engine.cache_hits"] / lookups if lookups else 0.0
        ),
        "diffusion.replications": counts["diffusion.replications"],
        "diffusion.campaign_s": total("diffusion.campaign"),
        "perception.comp_row_calls": counts["perception.comp_row_calls"],
        "perception.comp_row_s": total("perception.comp_row"),
        "perception.influence_batch_calls": counts[
            "perception.influence_batch_calls"
        ],
        "perception.influence_batch_s": total("perception.influence_batch"),
        "perception.similarity_calls": counts["perception.similarity_calls"],
        "perception.apply_adoptions_s": total("perception.apply_adoptions"),
        "rrset.skeleton_s": total("rrset.skeleton"),
        "rrset.sample_s": total("rrset.sample"),
        "rrset.select_s": total("rrset.select"),
        "rrset.member_bytes": tracer.gauges.get("rrset.member_bytes", 0),
    }
