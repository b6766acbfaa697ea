"""Builtin sweep specs: one per paper figure/table artifact.

Every ``benchmarks/results/fig*.txt`` / ``table*.txt`` artifact maps
to exactly one spec here; the benchmark scripts and the ``repro sweep``
CLI both resolve specs through :func:`get_spec`, so a figure is
declared **once** and regenerated from the store anywhere.

Replication counts are parameters of the spec (they participate in the
config hash): :class:`SampleScale` carries the three shared knobs, and
:func:`scale_from_env` reads the CI smoke overrides
(``REPRO_BENCH_ALGO_SAMPLES`` etc.) so smoke rows coexist with
full-scale rows in one store instead of silently replacing them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import SweepError
from repro.sweep.spec import SweepSpec

__all__ = [
    "SampleScale",
    "scale_from_env",
    "build_specs",
    "get_spec",
    "spec_names",
    "spec_for_artifact",
]

#: Reproduction-scale sweep parameters (mirrors benchmarks/conftest).
FIG8_BUDGETS = (50.0, 75.0, 100.0, 125.0)
FIG8_PROMOTIONS = (1, 2, 3)
FIG9_BUDGETS = (100.0, 300.0, 500.0)
FIG9_PROMOTIONS = (1, 5, 10)
FIG9_T = 10
FIG9_COST_SCALE = 4.0
FIG9_SCALES = {"yelp": 1.0, "amazon": 0.45, "douban": 0.35, "gowalla": 0.5}
FIG9_BASELINES = ("BGRD", "HAG", "PS", "DRHGA")

#: Tight per-algorithm knobs for the large-figure sweeps.
FAST_KWARGS = {
    "Dysim": {"candidate_pool": 70, "n_samples_selection": 15},
    "BGRD": {"candidate_users": 25},
    "HAG": {"candidate_pairs": 40},
    "PS": {},
    "DRHGA": {"candidate_users": 20, "users_per_item": 2},
}

#: Fig. 8 (small-vs-OPT) per-algorithm knobs; OPT pins its own sample
#: count so the bounded enumeration stays exact under smoke scales.
FIG8_KWARGS = {
    "OPT": {"universe_size": 8, "max_seeds": 4},
    "Dysim": {"candidate_pool": 40},
    "BGRD": {"candidate_users": 25},
    "HAG": {"candidate_pairs": 40},
    "PS": {},
    "DRHGA": {"candidate_users": 20, "users_per_item": 2},
}
FIG8_OPT_SAMPLES = 6

FIG10_VARIANTS = {
    "Dysim": {},
    "w/o TM": {"use_target_markets": False},
    "w/o IP": {"use_item_priority": False},
}
FIG10_SETTINGS = (
    ("b=300,T=10", 300.0, 10),
    ("b=500,T=10", 500.0, 10),
    ("b=400,T=5", 400.0, 5),
    ("b=400,T=10", 400.0, 10),
)

FIG11_BUDGETS = (300.0, 500.0)
FIG12_CLASSES = ("A", "B", "C", "D", "E")
FIG12_ALGORITHMS = ("Dysim", "BGRD", "HAG", "PS")
FIG13_DATASETS = ("yelp", "gowalla", "amazon", "douban")
FIG14_THETAS = (0, 2, 5, 10)
TABLE2_DATASETS = ("douban", "gowalla", "yelp", "amazon")


@dataclass(frozen=True)
class SampleScale:
    """Replication-count knobs shared by the figure sweeps."""

    algo_samples: int = 5
    eval_samples: int = 30
    dysim_samples: int = 12  # Fig. 12 gives Dysim extra samples


def scale_from_env() -> SampleScale:
    """Sample counts with the CI smoke overrides applied."""
    def env_int(name: str, default: int) -> int:
        value = os.environ.get(name)
        return int(value) if value else default

    return SampleScale(
        algo_samples=env_int("REPRO_BENCH_ALGO_SAMPLES", 5),
        eval_samples=env_int("REPRO_BENCH_EVAL_SAMPLES", 30),
        dysim_samples=env_int("REPRO_BENCH_DYSIM_SAMPLES", 12),
    )


def _merge_algorithm_kwargs(table):
    def refine(params: dict) -> dict:
        extra = table.get(params["algorithm"], {})
        merged = {**params.get("algorithm_kwargs", {}), **extra}
        if merged:
            params["algorithm_kwargs"] = merged
        return params

    return refine


def _fig8_refine(params: dict) -> dict:
    params = _merge_algorithm_kwargs(FIG8_KWARGS)(params)
    if params["algorithm"] == "OPT":
        params["n_samples"] = FIG8_OPT_SAMPLES
    return params


def _fig9_scale_refine(params: dict) -> dict:
    params = _merge_algorithm_kwargs(FAST_KWARGS)(params)
    params["scale"] = FIG9_SCALES[params["dataset"]]
    return params


def build_specs(scale: SampleScale | None = None) -> dict[str, SweepSpec]:
    """Construct the full builtin registry at the given sample scale."""
    scale = scale or SampleScale()
    specs: dict[str, SweepSpec] = {}

    def add(spec: SweepSpec) -> None:
        specs[spec.name] = spec

    counts = {
        "n_samples": scale.algo_samples,
        "eval_samples": scale.eval_samples,
    }

    # -- Fig. 8: small sample vs OPT ---------------------------------
    fig8_algorithms = ("OPT", "Dysim", "BGRD", "HAG", "PS", "DRHGA")
    add(SweepSpec(
        name="fig8a",
        title="Fig 8(a) sigma vs budget, amazon-small, T=2",
        axes={"budget": FIG8_BUDGETS, "algorithm": fig8_algorithms},
        base={"dataset": "amazon-small", "n_promotions": 2, **counts},
        refine=_fig8_refine,
        artifacts=("fig8a_small_vs_opt_budget",),
    ))
    add(SweepSpec(
        name="fig8b",
        title="Fig 8(b) sigma vs promotions, amazon-small, b=100",
        axes={"n_promotions": FIG8_PROMOTIONS, "algorithm": fig8_algorithms},
        base={"dataset": "amazon-small", "budget": 100.0, **counts},
        refine=_fig8_refine,
        artifacts=("fig8b_small_vs_opt_promotions",),
    ))

    # -- Fig. 9: large-dataset budget / promotion sweeps -------------
    budget_sets = {
        # 9(c): HAG excluded (paper: > 12h on Douban).
        "yelp": ("Dysim",) + FIG9_BASELINES,
        "amazon": ("Dysim",) + FIG9_BASELINES,
        "douban": ("Dysim", "BGRD", "PS", "DRHGA"),
    }
    fig9_artifacts = {
        "yelp": ("fig9a_sigma_budget_yelp",),
        "amazon": (
            "fig9b_sigma_budget_amazon",
            "fig9d_time_budget_amazon",
        ),
        "douban": ("fig9c_sigma_budget_douban",),
    }
    for key, dataset in (("fig9a", "yelp"), ("fig9b", "amazon"),
                         ("fig9c", "douban")):
        add(SweepSpec(
            name=key,
            title=f"Fig 9 sigma vs budget, {dataset}, T={FIG9_T}",
            axes={"budget": FIG9_BUDGETS, "algorithm": budget_sets[dataset]},
            base={
                "dataset": dataset,
                "n_promotions": FIG9_T,
                "cost_scale": FIG9_COST_SCALE,
                **counts,
            },
            refine=_fig9_scale_refine,
            artifacts=fig9_artifacts[dataset],
        ))
    promo_artifacts = {
        "yelp": ("fig9e_sigma_promotions_yelp",),
        "amazon": (
            "fig9f_sigma_promotions_amazon",
            "fig9g_time_promotions_amazon",
        ),
    }
    for key, dataset in (("fig9e", "yelp"), ("fig9f", "amazon")):
        add(SweepSpec(
            name=key,
            title=f"Fig 9 sigma vs promotions, {dataset}, b=500",
            axes={
                "n_promotions": FIG9_PROMOTIONS,
                "algorithm": ("Dysim",) + FIG9_BASELINES,
            },
            base={
                "dataset": dataset,
                "budget": max(FIG9_BUDGETS),
                "cost_scale": FIG9_COST_SCALE,
                **counts,
            },
            refine=_fig9_scale_refine,
            artifacts=promo_artifacts[dataset],
        ))
    add(SweepSpec(
        name="fig9h",
        title="Fig 9(h) Dysim runtime across datasets",
        axes={"dataset": ("yelp", "gowalla", "amazon", "douban")},
        base={
            "algorithm": "Dysim",
            "budget": max(FIG9_BUDGETS),
            "n_promotions": FIG9_T,
            "cost_scale": FIG9_COST_SCALE,
            "n_samples": scale.algo_samples,
            # Fig. 9(h) plots selection runtime; no fair re-evaluation.
            "eval_samples": 0,
        },
        refine=_fig9_scale_refine,
        artifacts=("fig9h_scalability",),
    ))
    # Fig. 9(h) extension: selection-only runtime pushed to 10^6 users
    # on synthetic sparse graphs.  DysimSelect runs the frozen-phase
    # MCP greedy over the RR-set coverage oracle and reports the
    # oracle's own sigma (eval_samples=0 — Monte-Carlo re-simulation is
    # exactly the cost this oracle avoids).  n_samples is the RR-set
    # count R, not an MC replication count, so it is pinned here rather
    # than taken from SampleScale.
    add(SweepSpec(
        name="fig9h_scale",
        title="Fig 9(h) scale-up: selection-only runtime to 1M users",
        axes={"dataset": ("synth-100k", "synth-1m")},
        base={
            "algorithm": "DysimSelect",
            "oracle": "rrset",
            # Per-run estimator backend, built and closed by each run
            # (the sweep CLI's --backend only fans *runs* out): RR
            # sampling crosses into process workers through the
            # shared-memory task arrays.
            "backend": "process",
            "workers": 2,
            "n_samples": 128,
            "eval_samples": 0,
            "algorithm_kwargs": {"candidate_pool": 200},
        },
        artifacts=("fig9h_scale_selection",),
    ))
    # Paper-scale end-to-end: the FULL Dysim pipeline (nominee ranking,
    # MCP selection, timing assignment) on the 100k-user synthetic
    # graph — not selection-only like fig9h_scale.  The sketch oracle
    # carries the sigma queries; n_samples is the realization-bank
    # world count and is pinned (it is an oracle knob, not an MC
    # replication count), so the committed row's config hash is stable
    # under the smoke-scale env overrides.
    add(SweepSpec(
        name="dysim_e2e_scale",
        title="End-to-end Dysim wall-clock at paper scale (synth-100k)",
        axes={"dataset": ("synth-100k",)},
        base={
            "algorithm": "Dysim",
            "oracle": "sketch",
            "n_samples": 8,
            "eval_samples": 0,
            "algorithm_kwargs": {"candidate_pool": 100},
        },
        artifacts=("dysim_e2e_scale",),
    ))

    # -- Fig. 10: ablation (w/o TM, w/o IP) --------------------------
    def fig10_refine(params: dict) -> dict:
        setting = params["setting"]
        for label, budget, n_promotions in FIG10_SETTINGS:
            if label == setting:
                params["budget"] = budget
                params["n_promotions"] = n_promotions
                break
        params["algorithm_kwargs"] = {
            "candidate_pool": 40,
            # Ablation isolates the constructed strategy; the shared
            # Theorem-5 fallbacks would mask the TM/IP differences.
            "use_fallbacks": False,
            **FIG10_VARIANTS[params["variant"]],
        }
        params["scale"] = FIG9_SCALES[params["dataset"]]
        return params

    for dataset in ("yelp", "amazon"):
        add(SweepSpec(
            name=f"fig10_{dataset}",
            title=f"Fig 10 ablation, {dataset}",
            axes={
                "setting": tuple(s[0] for s in FIG10_SETTINGS),
                "variant": tuple(FIG10_VARIANTS),
            },
            base={
                "dataset": dataset,
                "algorithm": "Dysim",
                "cost_scale": FIG9_COST_SCALE,
                **counts,
            },
            refine=fig10_refine,
            artifacts=(f"fig10_ablation_{dataset}",),
        ))

    # -- Fig. 11: target-market promoting orders ---------------------
    def fig11_refine(params: dict) -> dict:
        params["algorithm_kwargs"] = {
            "candidate_pool": 40,
            "market_order": params["order"],
            # theta=0 maximizes how often ordering matters; fallbacks
            # off so the figure compares the orders, not a fallback.
            "theta": 0,
            "use_fallbacks": False,
        }
        params["scale"] = FIG9_SCALES[params["dataset"]]
        return params

    from repro.core.dysim.markets import MARKET_ORDERS

    for dataset in ("yelp", "amazon"):
        add(SweepSpec(
            name=f"fig11_{dataset}",
            title=f"Fig 11 market orders, {dataset}",
            axes={"budget": FIG11_BUDGETS, "order": tuple(MARKET_ORDERS)},
            base={
                "dataset": dataset,
                "algorithm": "Dysim",
                "n_promotions": 10,
                "cost_scale": FIG9_COST_SCALE,
                **counts,
            },
            refine=fig11_refine,
            artifacts=(f"fig11_market_orders_{dataset}",),
        ))

    # -- Fig. 12: course-promotion empirical study -------------------
    def fig12_refine(params: dict) -> dict:
        params["dataset"] = f"courses/{params['class_id']}"
        if params["algorithm"] == "Dysim":
            # Dense class graphs are noisy; Dysim gets extra samples.
            params["n_samples"] = scale.dysim_samples
        return params

    add(SweepSpec(
        name="fig12",
        title="Fig 12 course study (classes A-E)",
        axes={"class_id": FIG12_CLASSES, "algorithm": FIG12_ALGORITHMS},
        base={"budget": 50.0, "n_promotions": 3, **counts},
        refine=fig12_refine,
        artifacts=("fig12_course_study",),
    ))

    # -- Fig. 13: meta-graph sensitivity -----------------------------
    def fig13_refine(params: dict) -> dict:
        params["dataset_kwargs"] = {
            "n_meta_complementary": params["n_meta"]
        }
        return params

    for dataset in FIG13_DATASETS:
        add(SweepSpec(
            name=f"fig13_{dataset}",
            title=f"Fig 13 meta-graph sensitivity, {dataset}",
            axes={"n_meta": (1, 2, 3)},
            base={
                "dataset": dataset,
                "scale": FIG9_SCALES.get(dataset, 0.5),
                "algorithm": "Dysim",
                "budget": 100.0,
                "n_promotions": 3,
                "algorithm_kwargs": {"candidate_pool": 40},
                **counts,
            },
            refine=fig13_refine,
            artifacts=(f"fig13_metagraphs_{dataset}",),
        ))

    # -- Fig. 14: theta sensitivity ----------------------------------
    def fig14_refine(params: dict) -> dict:
        params["algorithm_kwargs"] = {
            "candidate_pool": 40,
            "theta": params["theta"],
            "use_fallbacks": False,
        }
        params["scale"] = FIG9_SCALES[params["dataset"]]
        return params

    for dataset in ("yelp", "amazon"):
        add(SweepSpec(
            name=f"fig14_{dataset}",
            title=f"Fig 14 theta sensitivity, {dataset}",
            axes={"theta": FIG14_THETAS},
            base={
                "dataset": dataset,
                "algorithm": "Dysim",
                "budget": 400.0,
                "n_promotions": 10,
                "cost_scale": FIG9_COST_SCALE,
                **counts,
            },
            refine=fig14_refine,
            artifacts=(f"fig14_theta_{dataset}",),
        ))

    # -- Tables 2-3: dataset statistics ------------------------------
    add(SweepSpec(
        name="table2",
        title="Table II dataset statistics",
        axes={"dataset": TABLE2_DATASETS},
        base={"algorithm": "stats"},
        artifacts=("table2_datasets",),
    ))
    add(SweepSpec(
        name="table3",
        title="Table III course-class statistics",
        axes={"dataset": tuple(f"courses/{c}" for c in FIG12_CLASSES)},
        base={"algorithm": "stats"},
        artifacts=("table3_classes",),
    ))
    return specs


def spec_names() -> tuple[str, ...]:
    """All builtin spec names (default scale — names are scale-free)."""
    return tuple(sorted(build_specs()))


def get_spec(name: str, scale: SampleScale | None = None) -> SweepSpec:
    """Resolve a builtin spec by name (or by one of its artifacts)."""
    specs = build_specs(scale)
    if name in specs:
        return specs[name]
    stem = name[:-4] if name.endswith(".txt") else name
    for spec in specs.values():
        if stem in spec.artifacts:
            return spec
    raise SweepError(
        f"unknown sweep spec {name!r}; available: {sorted(specs)}"
    )


def spec_for_artifact(artifact: str,
                      scale: SampleScale | None = None) -> SweepSpec:
    """The spec that renders ``benchmarks/results/<artifact>.txt``."""
    stem = artifact[:-4] if artifact.endswith(".txt") else artifact
    for spec in build_specs(scale).values():
        if stem in spec.artifacts:
            return spec
    raise SweepError(f"no sweep spec renders artifact {artifact!r}")
