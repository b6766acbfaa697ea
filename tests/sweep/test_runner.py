"""Runner semantics: resume, interrupts, tombstones, retry."""

import multiprocessing
import time

import pytest

from repro.engine import make_backend
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.sweep import runner as runner_module
from repro.sweep.runner import execute_run
from repro.sweep.store import STATUS_FAILED, STATUS_OK, ResultRow

from tests.conftest import own_shm_exports


def _fake_execute(spec_name, params, seed):
    from repro.sweep.spec import RunConfig

    config = RunConfig(spec_name, params)
    return ResultRow(
        spec=spec_name,
        config_hash=config.config_hash,
        seed=seed,
        status=STATUS_OK,
        params=config.params,
        payload={"sigma": float(params["a"])},
    )


@pytest.fixture
def demo_spec():
    return SweepSpec(name="demo", axes={"a": (1, 2, 3)}, seeds=(0, 1))


def test_run_and_resume(tmp_path, monkeypatch, demo_spec):
    calls = []

    def counting(spec_name, params, seed):
        calls.append((params["a"], seed))
        return _fake_execute(spec_name, params, seed)

    monkeypatch.setattr(runner_module, "execute_run", counting)
    store = ResultStore(tmp_path)
    report = run_sweep(demo_spec, store)
    assert (report.n_total, report.n_skipped, report.n_ok) == (6, 0, 6)
    assert len(calls) == 6

    # Second run is a pure resume hit: zero new executions.
    report = run_sweep(demo_spec, store)
    assert (report.n_total, report.n_skipped, report.n_ran) == (6, 6, 0)
    assert len(calls) == 6
    assert len(store.rows("demo")) == 6


def test_resume_after_interrupt(tmp_path, monkeypatch, demo_spec):
    """Killing a sweep mid-flight loses only the in-flight run."""
    calls = []

    def interrupting(spec_name, params, seed):
        if len(calls) == 3:
            raise KeyboardInterrupt
        calls.append((params["a"], seed))
        return _fake_execute(spec_name, params, seed)

    monkeypatch.setattr(runner_module, "execute_run", interrupting)
    store = ResultStore(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(demo_spec, store)
    # The three completed runs were appended before the interrupt.
    assert len(store.rows("demo")) == 3

    monkeypatch.setattr(runner_module, "execute_run", _fake_execute)
    report = run_sweep(demo_spec, store)
    assert (report.n_skipped, report.n_ok) == (3, 3)
    rows = store.rows("demo")
    # No duplicate and no missing rows after the relaunch.
    assert len(rows) == 6
    assert len({row.key for row in rows}) == 6
    assert store.status("demo").n_superseded == 0


def test_tombstones_and_retry(tmp_path, monkeypatch, demo_spec):
    def flaky(spec_name, params, seed):
        row = _fake_execute(spec_name, params, seed)
        if params["a"] == 2:
            row.status = STATUS_FAILED
            row.error = "ValueError: synthetic"
            row.payload = {}
        return row

    monkeypatch.setattr(runner_module, "execute_run", flaky)
    store = ResultStore(tmp_path)
    report = run_sweep(demo_spec, store)
    assert (report.n_ok, report.n_failed) == (4, 2)

    # Plain rerun skips tombstones too (they are "not pending").
    report = run_sweep(demo_spec, store)
    assert (report.n_skipped, report.n_ran) == (6, 0)

    # retry_failed reruns exactly the tombstoned pairs; the fresh ok
    # rows supersede the tombstones last-wins.
    monkeypatch.setattr(runner_module, "execute_run", _fake_execute)
    report = run_sweep(demo_spec, store, retry_failed=True)
    assert (report.n_skipped, report.n_ok, report.n_failed) == (4, 2, 0)
    assert all(row.ok for row in store.rows("demo"))
    assert store.status("demo").n_superseded == 2


def test_retry_with_backoff_supersedes_tombstones(
    tmp_path, monkeypatch, demo_spec
):
    """max_retries re-dispatches only the failed runs, with capped
    exponential backoff between rounds; the fresh ok rows supersede
    the tombstones last-wins and carry the attempt number."""
    seen = set()

    def flaky_once(spec_name, params, seed):
        row = _fake_execute(spec_name, params, seed)
        key = (params["a"], seed)
        if params["a"] == 2 and key not in seen:
            seen.add(key)
            row.status = STATUS_FAILED
            row.error = "ValueError: transient"
            row.payload = {}
        return row

    slept = []
    monkeypatch.setattr(runner_module, "execute_run", flaky_once)
    store = ResultStore(tmp_path)
    report = run_sweep(
        demo_spec,
        store,
        max_retries=1,
        retry_backoff=0.25,
        sleep=slept.append,
    )
    assert (report.n_ok, report.n_failed, report.n_retried) == (6, 0, 2)
    assert slept == [0.25]
    rows = store.rows("demo")
    assert all(row.ok for row in rows)
    assert len(rows) == 6
    # The two tombstones remain in the trajectory, superseded.
    assert store.status("demo").n_superseded == 2
    retried = [row for row in rows if row.params["a"] == 2]
    assert all(row.payload["attempt"] == 1 for row in retried)
    fresh = [row for row in rows if row.params["a"] != 2]
    assert all(row.payload["attempt"] == 0 for row in fresh)


def test_retry_backoff_grows_and_caps(tmp_path, monkeypatch, demo_spec):
    def always_failing(spec_name, params, seed):
        row = _fake_execute(spec_name, params, seed)
        row.status = STATUS_FAILED
        row.error = "ValueError: permanent"
        row.payload = {}
        return row

    slept = []
    monkeypatch.setattr(runner_module, "execute_run", always_failing)
    store = ResultStore(tmp_path)
    report = run_sweep(
        demo_spec,
        store,
        max_retries=9,
        retry_backoff=8.0,
        sleep=slept.append,
    )
    assert report.n_failed == 6
    assert report.n_retried == 9 * 6
    assert slept[:4] == [8.0, 16.0, 30.0, 30.0]
    assert max(slept) == runner_module.RETRY_BACKOFF_CAP
    with pytest.raises(runner_module.SweepError):
        run_sweep(demo_spec, store, max_retries=-1)


def test_execute_run_tombstones_real_failures(tmp_path):
    row = execute_run(
        "demo", {"algorithm": "stats", "dataset": "courses/ZZZ"}, 0
    )
    assert row.status == STATUS_FAILED
    assert "SweepError" in row.error
    assert row.payload["elapsed_seconds"] >= 0.0


def test_execute_run_stats_payload():
    row = execute_run(
        "demo", {"algorithm": "stats", "dataset": "courses/A"}, 0
    )
    assert row.ok
    # Table III published class size for class A.
    assert row.payload["n_users"] == 33
    assert row.payload["n_items"] == 30


def _children_alive_after(before: set, timeout: float = 5.0) -> set:
    """Child processes started since ``before`` that are still alive.

    Waits up to ``timeout`` seconds: workers of a pool that an injected
    crash broke (the CI chaos leg) are reaped by the executor's own
    thread, a moment after the run moved on to the rebuilt pool.
    """
    deadline = time.monotonic() + timeout
    while True:
        alive = set(multiprocessing.active_children()) - before
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def test_pinned_backend_lives_only_as_long_as_its_run(monkeypatch):
    """A spec that pins a pool gets one for its run alone: the run
    returns the serial result, and no worker or shared-memory export
    outlives it."""
    params = {
        "algorithm": "DysimSelect",
        "oracle": "rrset",
        "dataset": "yelp",
        "scale": 0.2,
        "n_samples": 64,
        "eval_samples": 0,
        "algorithm_kwargs": {"candidate_pool": 20},
    }
    serial = execute_run("demo", params, 0)
    built = []

    def spy(*args, **kwargs):
        built.append(make_backend(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner_module, "make_backend", spy)
    exports = own_shm_exports()
    children = set(multiprocessing.active_children())
    pooled = execute_run("demo", {**params, "backend": "process", "workers": 2}, 0)
    assert not _children_alive_after(children)
    assert own_shm_exports() == exports
    [backend] = built
    assert backend.name == "process" and backend.closed
    assert serial.ok and pooled.ok
    assert pooled.payload["sigma"] == serial.payload["sigma"]
    assert pooled.payload["n_seeds"] == serial.payload["n_seeds"]
    assert pooled.payload["diagnostics"]["backend"] == "process"
