"""Render-from-store: golden layouts and committed-artifact parity."""

import os
import pathlib

import pytest

from repro.errors import SweepError
from repro.eval.reporting import format_table
from repro.sweep import (
    ResultStore,
    get_spec,
    render_spec,
    spec_names,
    write_artifacts,
)
from repro.sweep.store import STATUS_FAILED, STATUS_OK, ResultRow

RESULTS_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
)

#: Smoke overrides change the sample-count axes of every config hash,
#: and smoke benchmark runs rewrite the txt artifacts in-place, so
#: committed-store parity only holds in a default-scale workspace.
#: ``REPRO_BENCH_RECORD`` only picks where scaling tables go.
SMOKE_ENV = [
    name for name in os.environ
    if name.startswith("REPRO_BENCH_")
    and name != "REPRO_BENCH_RECORD"
    and os.environ[name]
]


def _fig14_rows(spec, sigmas):
    rows = []
    for (config, seed), sigma in zip(spec.run_keys(), sigmas):
        rows.append(
            ResultRow(
                spec=spec.name,
                config_hash=config.config_hash,
                seed=seed,
                status=STATUS_OK,
                params=config.params,
                payload={
                    "sigma": sigma,
                    "runtime_seconds": 0.5,
                    "n_seeds": 3,
                    "n_users": 100,
                },
            )
        )
    return rows


def test_golden_render_from_handcrafted_store(tmp_path):
    """A handcrafted store renders the exact committed txt layout."""
    spec = get_spec("fig14_yelp")
    store = ResultStore(tmp_path)
    store.append_all(_fig14_rows(spec, [10.0, 11.5, 12.25, 9.0]))
    texts = render_spec(spec, store)
    assert texts == {
        "fig14_theta_yelp": format_table(
            ["theta", "sigma"],
            [[0, "10.0"], [2, "11.5"], [5, "12.2"], [10, "9.0"]],
        )
    }
    paths = write_artifacts(spec, store, tmp_path / "out")
    written = paths["fig14_theta_yelp"].read_text()
    # record_figure parity: text plus exactly one trailing newline.
    assert written == texts["fig14_theta_yelp"] + "\n"


def test_missing_rows_refuse_to_render(tmp_path):
    spec = get_spec("fig14_yelp")
    store = ResultStore(tmp_path)
    store.append_all(_fig14_rows(spec, [10.0, 11.5, 12.25, 9.0])[:2])
    with pytest.raises(SweepError, match="2 runs missing"):
        render_spec(spec, store)


def test_tombstoned_rows_refuse_to_render(tmp_path):
    spec = get_spec("fig14_yelp")
    store = ResultStore(tmp_path)
    rows = _fig14_rows(spec, [10.0, 11.5, 12.25, 9.0])
    rows[1].status = STATUS_FAILED
    rows[1].error = "boom"
    store.append_all(rows)
    with pytest.raises(SweepError, match="retry-failed"):
        render_spec(spec, store)


@pytest.mark.skipif(
    bool(SMOKE_ENV),
    reason=f"smoke overrides active: {SMOKE_ENV}",
)
def test_committed_artifacts_render_byte_identical():
    """Every committed fig*/table* txt regenerates from the committed
    store byte-for-byte — the store is the source of truth."""
    store = ResultStore(RESULTS_DIR / "store")
    if not store.specs():
        pytest.skip("no committed store in this checkout")
    checked = 0
    for name in spec_names():
        spec = get_spec(name)
        for artifact, text in render_spec(spec, store).items():
            committed = (RESULTS_DIR / f"{artifact}.txt").read_text()
            assert committed == text + "\n", artifact
            checked += 1
    # All 21 committed artifacts are covered by builtin specs.
    assert checked >= 21
