"""Command-line interface: run algorithms and inspect datasets.

Usage examples::

    python -m repro.cli stats --dataset yelp
    python -m repro.cli run --dataset yelp --algorithm Dysim \
        --budget 80 --promotions 3
    python -m repro.cli compare --dataset amazon-small --budget 100 \
        --backend process --workers 4

``--backend`` selects where Monte-Carlo replications run (``serial``,
``thread`` or ``process``); results are bit-identical across backends
for a fixed ``--seed`` because every sample replays the same random
substream regardless of the executing worker.

``--oracle`` selects the sigma oracle for the frozen selection phases:
``mc`` (default) re-simulates every query; ``sketch`` answers from a
realization bank of forward-reachability sketches — the same worlds
for every query, no selection noise, several times faster at equal
replication counts; ``rrset`` answers from reverse-reachable coverage
samples — selection cost independent of the graph once the samples
exist, which is what scales sigma to 10^6 users.  Dynamic evaluations
always use Monte-Carlo.

Kernels take no flag.  Every Monte-Carlo range plays all its
replications in one packed lockstep pass, bit-identical to playing
them one at a time.

``--retries`` / ``--chunk-timeout`` tune the execution layer's fault
supervisor (``repro.engine.resilience``): crashed workers, raising
chunks and chunks past the deadline are re-dispatched bit-identically
(common random numbers make recovery exact), the pool is rebuilt when
it broke, and exhausted retries degrade process → thread → serial
with a one-time warning instead of aborting the run.  Each command
builds one backend from these flags, runs everything on it and closes
it when the command ends.

``sweep`` drives declarative experiment campaigns (``repro.sweep``)::

    repro sweep run --spec fig9h        # run pending (config, seed) runs
    repro sweep run --spec fig9h        # resumed: zero new runs
    repro sweep status                  # store row counts per spec
    repro sweep render fig9h            # regenerate the txt artifact(s)
    repro sweep bench                   # BENCH_v<N>.json (results + root)

``run`` is resumable: results are keyed by (config hash, seed-stream)
in an append-only store (default ``benchmarks/results/store/``), so an
interrupted campaign continues where it stopped and a completed one
re-runs nothing.  ``render`` regenerates paper figure/table artifacts
from the store alone; ``bench`` snapshots the recorded scaling
trajectory into a machine-readable ``BENCH_v<N>.json``, written both
to ``benchmarks/results/`` and to the repository root (external
trajectory tooling reads the root copy).
"""

from __future__ import annotations

import argparse
import sys

from repro.data import DATASET_NAMES, dataset_statistics, load_dataset
from repro.engine import BACKEND_NAMES, ExecutionBackend, make_backend
from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.eval.harness import ALGORITHMS, evaluate_group, run_algorithm
from repro.sketch import ORACLE_NAMES
from repro.eval.metrics import campaign_report
from repro.eval.reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMDPP / Dysim reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print Table II-style statistics")
    _add_dataset_args(stats)

    run = sub.add_parser("run", help="run one algorithm and report")
    _add_dataset_args(run)
    run.add_argument(
        "--algorithm",
        default="Dysim",
        choices=sorted(ALGORITHMS),
    )
    run.add_argument("--samples", type=int, default=8)
    run.add_argument("--seed", type=int, default=0)
    _add_backend_args(run)

    compare = sub.add_parser("compare", help="run all algorithms")
    _add_dataset_args(compare)
    compare.add_argument("--samples", type=int, default=6)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--skip", nargs="*", default=["OPT"],
        help="algorithms to leave out (OPT by default; it is slow)",
    )
    _add_backend_args(compare)

    sweep = sub.add_parser(
        "sweep", help="declarative experiment campaigns (repro.sweep)"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="run a spec's pending (config, seed) runs (resumable)"
    )
    sweep_run.add_argument(
        "--spec", action="append", required=True, dest="specs",
        metavar="NAME",
        help="spec name (repeatable); see `repro sweep status` for names",
    )
    sweep_run.add_argument(
        "--retry-failed", action="store_true",
        help="re-run tombstoned (failed) runs as well as missing ones",
    )
    _add_store_args(sweep_run)
    # Only the fan-out knobs: per-run choices such as the oracle are
    # part of each spec's config (they key the store rows).
    sweep_run.add_argument(
        "--backend", default="serial", choices=sorted(BACKEND_NAMES),
        help="backend the pending runs fan out through",
    )
    sweep_run.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker count for thread/process sweep fan-out",
    )
    sweep_run.add_argument(
        "--retries", type=_nonnegative_int, default=0,
        help="re-dispatch runs that tombstone during this invocation "
        "up to N more times with capped exponential backoff (the "
        "fresh row supersedes the tombstone last-wins); chunk-level "
        "worker crashes are retried below this by the engine "
        "supervisor regardless",
    )
    sweep_run.add_argument(
        "--retry-backoff", type=_positive_float, default=0.5,
        help="base seconds of the run-level retry backoff "
        "(attempt k sleeps base*2^(k-1), capped at 30s)",
    )

    sweep_status = sweep_sub.add_parser(
        "status", help="declared/stored/failed run counts per spec"
    )
    sweep_status.add_argument(
        "--spec", action="append", dest="specs", metavar="NAME",
        help="restrict to these specs (default: all builtin specs)",
    )
    _add_store_args(sweep_status)

    sweep_render = sweep_sub.add_parser(
        "render",
        help="regenerate figure/table txt artifacts from the store",
    )
    sweep_render.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="spec or artifact names (e.g. fig9h, table2_datasets)",
    )
    sweep_render.add_argument(
        "--out-dir", default="benchmarks/results",
        help="directory the <artifact>.txt files are written to",
    )
    _add_store_args(sweep_render)

    sweep_bench = sweep_sub.add_parser(
        "bench",
        help="snapshot the recorded scaling trajectory to BENCH_v<N>.json",
    )
    sweep_bench.add_argument(
        "--out", default=None,
        help="output path (default benchmarks/results/BENCH_v<N>.json)",
    )
    sweep_bench.add_argument(
        "--bench-version", type=_positive_int, default=None,
        help="snapshot version number (default: the current one)",
    )
    _add_store_args(sweep_bench)
    return parser


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default="benchmarks/results/store",
        help="result-store directory (one JSON-lines file per spec)",
    )


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="serial",
        choices=sorted(BACKEND_NAMES),
        help="Monte-Carlo execution backend (results are bit-identical "
        "across backends for a fixed seed)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker count for thread/process backends "
        "(default: min(8, cpu count))",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=DEFAULT_MAX_RETRIES,
        help="per-chunk re-dispatches the backend's fault supervisor "
        "allows per degradation-ladder level (crashed/raising/hung "
        "chunks are replayed bit-identically — common random numbers "
        f"make recovery exact); default {DEFAULT_MAX_RETRIES}",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=_positive_float,
        default=None,
        help="seconds a dispatched chunk cohort may run before "
        "unfinished chunks are declared hung and re-dispatched on a "
        "fresh pool; size well above an honest chunk's runtime "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--oracle",
        default="mc",
        choices=sorted(ORACLE_NAMES),
        help="sigma oracle for the frozen selection phases: 'mc' "
        "re-simulates every query, 'sketch' answers from a "
        "realization bank of reachability sketches (much faster at "
        "equal replication counts), 'rrset' answers from reverse-"
        "reachable coverage samples (selection cost independent of "
        "the graph once sampled — the million-node path); dynamic "
        "evaluations stay MC",
    )


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return number


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="yelp", choices=sorted(DATASET_NAMES)
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--promotions", type=int, default=None)


def _load(args) -> object:
    overrides = {}
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.promotions is not None:
        overrides["n_promotions"] = args.promotions
    return load_dataset(args.dataset, scale=args.scale, **overrides)


def _command_stats(args) -> int:
    instance = _load(args)
    stats = dataset_statistics(instance)
    print(format_table(list(stats), [list(stats.values())]))
    return 0


def _backend(args) -> ExecutionBackend:
    """The one backend a ``run``/``compare`` command owns."""
    return make_backend(
        args.backend, args.workers, args.retries, args.chunk_timeout
    )


def _command_run(args) -> int:
    instance = _load(args)
    with _backend(args) as backend:
        result = run_algorithm(
            args.algorithm,
            instance,
            n_samples=args.samples,
            seed=args.seed,
            backend=backend,
            oracle=args.oracle,
        )
    print(f"{args.algorithm} selected {len(result.seed_group)} seeds "
          f"in {result.runtime_seconds:.1f}s:")
    for seed in result.seed_group:
        print(f"  user={seed.user} item={seed.item} t={seed.promotion}")
    report = campaign_report(instance, result.seed_group, seed=args.seed)
    for line in report.summary_lines():
        print(line)
    return 0


def _command_compare(args) -> int:
    instance = _load(args)
    names = [n for n in ALGORITHMS if n not in set(args.skip)]
    rows = []
    with _backend(args) as backend:
        for name in names:
            result = run_algorithm(
                name,
                instance,
                n_samples=args.samples,
                seed=args.seed,
                backend=backend,
                oracle=args.oracle,
            )
            sigma = evaluate_group(
                instance, result.seed_group, n_samples=30, backend=backend
            )
            rows.append(
                [name, f"{sigma:.1f}", len(result.seed_group),
                 f"{result.runtime_seconds:.1f}s"]
            )
    rows.sort(key=lambda r: -float(r[1]))
    print(format_table(["algorithm", "sigma", "seeds", "time"], rows))
    return 0


def _command_sweep(args) -> int:
    from repro.errors import SweepError
    from repro.sweep import (
        ResultStore,
        emit_bench,
        get_spec,
        run_sweep,
        scale_from_env,
        spec_names,
        write_artifacts,
    )

    store = ResultStore(args.store)
    scale = scale_from_env()

    if args.sweep_command == "run":
        failed = 0
        with make_backend(args.backend, args.workers) as backend:
            for name in args.specs:
                spec = get_spec(name, scale=scale)
                report = run_sweep(
                    spec,
                    store,
                    backend=backend,
                    retry_failed=args.retry_failed,
                    max_retries=args.retries,
                    retry_backoff=args.retry_backoff,
                    log=print,
                )
                failed += report.n_failed
        return 1 if failed else 0

    if args.sweep_command == "status":
        names = args.specs or list(spec_names())
        rows = []
        for name in names:
            spec = get_spec(name, scale=scale)
            declared = len(spec.run_keys())
            status = store.status(spec.name)
            rows.append([
                spec.name, declared, status.n_ok, status.n_failed,
                max(0, declared - status.n_rows), status.n_superseded,
            ])
        print(format_table(
            ["spec", "declared", "ok", "failed", "pending", "superseded"],
            rows,
        ))
        return 0

    if args.sweep_command == "render":
        exit_code = 0
        for name in args.specs:
            spec = get_spec(name, scale=scale)
            try:
                paths = write_artifacts(spec, store, args.out_dir)
            except SweepError as exc:
                print(f"error: {exc}", file=sys.stderr)
                exit_code = 1
                continue
            for artifact, path in paths.items():
                print(f"{spec.name}: wrote {path}")
        return exit_code

    if args.sweep_command == "bench":
        from repro.sweep import BENCH_VERSION

        version = args.bench_version or BENCH_VERSION
        # External trajectory tooling looks for BENCH_*.json at the
        # repository root; the canonical copy stays alongside the
        # other benchmark artifacts.  An explicit --out writes that
        # one path only.
        outs = [args.out] if args.out else [
            f"benchmarks/results/BENCH_v{version}.json",
            f"BENCH_v{version}.json",
        ]
        document = None
        for out in outs:
            try:
                document = emit_bench(store, out, version=version)
            except SweepError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            tracked = ", ".join(document["tracked"]) or "(none)"
            print(
                f"wrote {out}: {len(document['series'])} series, "
                f"tracked: {tracked}"
            )
        return 0

    raise AssertionError(f"unhandled sweep verb {args.sweep_command!r}")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": _command_stats,
        "run": _command_run,
        "compare": _command_compare,
        "sweep": _command_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
