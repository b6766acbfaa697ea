"""Shared-memory lifecycle: attach bit-identity, residency, leaks, bypass.

The shm layer's contract (``repro.engine.shm``) is lifecycle-shaped,
so the tests are too: exported arrays must come back bit-identical
through a real process-pool round trip, a shared instance must stay
resident in the worker that loaded it, the exported files must live
no longer than their owner (a shared graph or instance, a sampling
dispatch, at most the backend that ships their handles — including
after worker death, because the parent owns the blocks), an instance
export must never outlive the graph export it names, workers must
forget what their owners released, and serial / thread backends must
bypass the machinery entirely.
"""

import gc
import os
import pickle

import numpy as np
import pytest

from repro.core.problem import Seed, SeedGroup
from repro.diffusion.montecarlo import SigmaEstimator
from repro.engine.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.engine import shm
from repro.engine.resilience import FaultPlan
from repro.engine.shm import (
    SharedArrayHandle,
    SharedInstanceHandle,
    attach_array,
    attach_csr,
    release_csr,
    release_task_arrays,
    resolve_array,
    share_csr,
    share_for_backend,
    share_task_arrays,
)
from repro.sketch.rrset import RRSetIndex, RRSetSigmaEstimator
from repro.utils.rng import RngFactory
from tests.conftest import (
    build_tiny_instance,
    build_tiny_network,
    own_shm_exports,
)

#: Shareable objects: a bare graph, and an instance (which shares its
#: graph too).  Each entry maps the object to the graph it ships.
SHAREABLES = {
    "graph": (lambda: build_tiny_network().csr, lambda graph: graph),
    "instance": (build_tiny_instance, lambda instance: instance.network.csr),
}


def _csr_arrays(csr):
    return (
        csr.out_indptr, csr.out_indices, csr.out_strength,
        csr.in_indptr, csr.in_indices, csr.in_strength,
    )


def _shm_dir(shared) -> str:
    handle = shared._shm_handle
    if isinstance(handle, SharedInstanceHandle):
        return os.path.dirname(handle.path)
    return os.path.dirname(handle.out[0].path)


def _attached_paths(instance, handles) -> set[str]:
    """Attach an instance and task arrays; report the worker's memos.

    Runs in a pool worker: ``instance`` arrives as its shared handle
    and unpickles through ``attach_instance``, its graph through
    ``attach_csr``.
    """
    for handle in handles.values():
        resolve_array(handle)
    return (
        {handle.out[0].path for handle in shm._attached_graphs}
        | {handle.path for handle in shm._attached_instances}
        | {handle.path for handle in shm._attached_arrays}
    )


def _resident_state(instance, item) -> tuple[int, int, int]:
    """Worker side: (pid, object id, table rows filled) of a shipped
    instance, read before it fills one more complementary row."""
    filled = instance.complementary_table.n_filled
    instance.complementary_table.row(0, item)
    return os.getpid(), id(instance), filled


# ---------------------------------------------------------------------------
# attach bit-identity
# ---------------------------------------------------------------------------
def test_share_attach_roundtrip_is_bit_identical():
    csr = build_tiny_network().csr
    share_csr(csr)
    try:
        # The pickle payload is the handle, the unpickle target is an
        # attached memmap graph — exactly what a process worker sees.
        clone = pickle.loads(pickle.dumps(csr))
        for ours, theirs in zip(_csr_arrays(csr), _csr_arrays(clone)):
            assert np.array_equal(ours, theirs)
            assert ours.dtype == theirs.dtype
        assert clone.n_users == csr.n_users
        assert clone.n_arcs == csr.n_arcs
    finally:
        release_csr(csr)


def test_attach_is_memoized_per_handle():
    csr = build_tiny_network().csr
    handle = share_csr(csr)
    try:
        assert attach_csr(handle) is attach_csr(handle)
        assert attach_array(handle.out[0]) is attach_array(handle.out[0])
    finally:
        release_csr(csr)


def test_rrset_index_identical_across_process_workers():
    """Frozen sampling through shm task arrays matches serial exactly."""
    instance = build_tiny_instance().frozen()
    serial = RRSetIndex.from_instance(instance, n_samples=16, rng_seed=2)
    with ProcessPoolBackend(workers=2) as backend:
        shipped = RRSetIndex.from_instance(
            instance, n_samples=16, rng_seed=2, backend=backend
        )
    for name in ("present", "member_rows", "roots", "sizes"):
        assert np.array_equal(getattr(serial, name), getattr(shipped, name))


def test_worker_keeps_a_shared_instance_resident():
    """A worker's later tasks of one instance reuse the object it
    loaded first, complementary table still warm."""
    instance = build_tiny_instance()
    backend = ProcessPoolBackend(workers=1)
    try:
        share_for_backend(instance, backend)
        first = backend.executor.submit(_resident_state, instance, 0).result()
        second = backend.executor.submit(_resident_state, instance, 1).result()
    finally:
        backend.close()
    assert first[:2] == second[:2]  # same worker, same object
    assert (first[2], second[2]) == (0, 1)


# ---------------------------------------------------------------------------
# lifecycle / leak checks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SHAREABLES))
def test_backend_close_unlinks_files_and_detaches_handle(kind):
    build, graph_of = SHAREABLES[kind]
    shared = build()
    backend = ProcessPoolBackend(workers=1)
    handle = share_for_backend(shared, backend)
    assert handle is not None
    directories = {_shm_dir(shared), _shm_dir(graph_of(shared))}
    assert all(os.path.isdir(directory) for directory in directories)
    backend.close()
    assert not any(os.path.exists(directory) for directory in directories)
    assert getattr(shared, "_shm_handle", None) is None
    assert getattr(graph_of(shared), "_shm_handle", None) is None
    # Post-release pickles fall back to by-value and stay correct.
    payload = pickle.dumps(shared)
    assert b"attach_" not in payload
    clone = pickle.loads(payload)
    assert np.array_equal(graph_of(clone).out_indices, graph_of(shared).out_indices)


def test_release_is_idempotent_and_resharing_works():
    csr = build_tiny_network().csr
    share_csr(csr)
    directory = _shm_dir(csr)
    release_csr(csr)
    release_csr(csr)  # second release is a no-op
    assert not os.path.exists(directory)
    handle = share_csr(csr)  # sharing again re-exports cleanly
    try:
        assert os.path.isfile(handle.out[0].path)
    finally:
        release_csr(csr)


def test_sharing_twice_reuses_the_export():
    csr = build_tiny_network().csr
    backend = ProcessPoolBackend(workers=1)
    try:
        first = share_for_backend(csr, backend)
        second = share_for_backend(csr, backend)
        assert first is second
        assert len(backend._cleanups) == 1  # one unlink, not two
    finally:
        backend.close()


def test_parent_owns_blocks_across_worker_crash():
    """Worker death must not unlink blocks the parent still owns."""
    csr = build_tiny_network().csr
    backend = ProcessPoolBackend(workers=1)
    try:
        share_for_backend(csr, backend)
        directory = _shm_dir(csr)
        # Simulate the crash aftermath: the pool's workers are gone,
        # but the parent has not closed the backend yet — the files
        # must still exist (this is the bpo-38119 hazard the
        # file-backed design avoids).
        backend.executor.shutdown(wait=True)
        assert os.path.isdir(directory)
    finally:
        backend.close()
    assert not os.path.exists(directory)


@pytest.mark.parametrize("kind", sorted(SHAREABLES))
def test_collected_object_removes_its_export_before_close(kind):
    build, graph_of = SHAREABLES[kind]
    backend = ProcessPoolBackend(workers=1)
    try:
        shared = build()
        share_for_backend(shared, backend)
        directories = {_shm_dir(shared), _shm_dir(graph_of(shared))}
        del shared
        gc.collect()
        assert not any(os.path.exists(directory) for directory in directories)
        assert not backend.closed
    finally:
        backend.close()  # the weakly held object is gone: a no-op


def test_rrset_index_leaves_no_export_behind():
    instance = build_tiny_instance().frozen()
    with ProcessPoolBackend(workers=2) as backend:
        before = own_shm_exports()
        RRSetIndex.from_instance(instance, n_samples=16, rng_seed=2, backend=backend)
        assert own_shm_exports() == before


def test_rrset_estimator_answers_without_exporting():
    """Selection and plain estimates answered from RR sets dispatch
    no replication task, so the estimator exports no graph and no
    instance."""
    instance = build_tiny_instance().frozen()
    universe = [
        (user, item)
        for user in range(instance.n_users)
        for item in range(instance.n_items)
    ]
    with ProcessPoolBackend(workers=2) as backend:
        gc.collect()
        before = own_shm_exports()
        estimator = RRSetSigmaEstimator(
            instance, n_samples=64, rng_factory=RngFactory(3), backend=backend
        )
        result = estimator.select_budgeted(
            universe, lambda pair: instance.cost(*pair), budget=10.0
        )
        estimator.estimate(SeedGroup([Seed(0, 0, 1)]))
        assert result.selected
        assert estimator.coverage_queries > 0
        assert estimator.fallback_queries == 0
        assert own_shm_exports() == before


def test_worker_memo_does_not_grow_across_share_release_cycles():
    """A worker forgets attachments whose owner released the files."""
    backend = ProcessPoolBackend(workers=1)
    released: set[str] = set()
    try:
        for cycle in range(3):
            instance = build_tiny_instance()
            share_for_backend(instance, backend)
            handles = share_task_arrays(
                {"ramp": np.arange(4 + cycle), "ones": np.ones(3)}, backend
            )
            live = {
                instance._shm_handle.path,
                instance.network.csr._shm_handle.out[0].path,
            } | {handle.path for handle in handles.values()}
            attached = backend.executor.submit(
                _attached_paths, instance, handles
            ).result()
            assert live <= attached
            assert not attached & released
            # Releasing the graph takes the instance export with it.
            release_csr(instance.network.csr)
            release_task_arrays(handles)
            released |= live
    finally:
        backend.close()


def test_instance_export_never_outlives_the_graph_export_it_names():
    """Two pools, one network: closing the pool the graph was shared
    for releases the other pool's instance export too, so that pool
    re-exports and keeps returning serial floats without faults."""
    dynamic = build_tiny_instance()
    frozen = dynamic.frozen()  # same network, same graph
    groups = [SeedGroup([Seed(user, 1, 1)]) for user in range(3)]
    serial = SigmaEstimator(dynamic, n_samples=8, rng_factory=RngFactory(5))
    expected = [serial.sigma(group) for group in groups]
    # Empty fault plans mask an ambient one: no activity is expected.
    pool_a = ProcessPoolBackend(workers=2, fault_plan=FaultPlan())
    pool_b = ProcessPoolBackend(workers=2, fault_plan=FaultPlan())
    try:
        SigmaEstimator(frozen, n_samples=8, backend=pool_a).sigma(groups[0])
        # B's workers have not loaded the instance yet: they would
        # follow its payload to the graph export A owns.
        share_for_backend(dynamic, pool_b)
        stale = _shm_dir(dynamic)
        pool_a.close()
        assert not os.path.exists(stale)
        assert getattr(dynamic, "_shm_handle", None) is None
        on_b = SigmaEstimator(
            dynamic, n_samples=8, rng_factory=RngFactory(5), backend=pool_b
        )
        assert [on_b.sigma(group) for group in groups] == expected
        assert not pool_b.fault_stats.activity
    finally:
        pool_a.close()
        pool_b.close()


@pytest.mark.parametrize("kind", sorted(SHAREABLES))
def test_closed_backend_refuses_new_shares(kind):
    build, graph_of = SHAREABLES[kind]
    shared = build()
    backend = ProcessPoolBackend(workers=1)
    backend.close()
    assert share_for_backend(shared, backend) is None
    assert getattr(shared, "_shm_handle", None) is None
    assert getattr(graph_of(shared), "_shm_handle", None) is None


# ---------------------------------------------------------------------------
# serial / thread bypass
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend_factory", [SerialBackend, lambda: ThreadBackend(workers=2)]
)
def test_same_address_space_backends_bypass_shm(backend_factory):
    instance = build_tiny_instance()
    csr = instance.network.csr
    backend = backend_factory()
    try:
        assert share_for_backend(csr, backend) is None
        assert share_for_backend(instance, backend) is None
        assert share_task_arrays({"x": np.arange(4)}, backend) is None
        # Estimates, one by one and in candidate blocks, share nothing.
        estimator = SigmaEstimator(instance, n_samples=8, backend=backend)
        estimator.estimate(SeedGroup([Seed(0, 0, 1)]))
        estimator.estimate_block([SeedGroup([Seed(user, 0, 1)]) for user in range(6)])
        assert getattr(instance, "_shm_handle", None) is None
        assert getattr(csr, "_shm_handle", None) is None
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# generic task arrays
# ---------------------------------------------------------------------------
def test_share_task_arrays_roundtrip_and_cleanup():
    arrays = {
        "indptr": np.arange(5, dtype=np.int64),
        "prob": np.linspace(0.0, 1.0, 7),
    }
    backend = ProcessPoolBackend(workers=1)
    handles = share_task_arrays(arrays, backend)
    assert handles is not None and set(handles) == set(arrays)
    directory = os.path.dirname(handles["indptr"].path)
    for name, handle in handles.items():
        assert isinstance(handle, SharedArrayHandle)
        # Handles survive a pickle round trip (they ride inside tasks)
        # and resolve to bit-identical read-only views.
        restored = resolve_array(pickle.loads(pickle.dumps(handle)))
        assert np.array_equal(restored, arrays[name])
        assert restored.dtype == arrays[name].dtype
        assert not restored.flags.writeable
    backend.close()
    assert not os.path.exists(directory)


def test_release_task_arrays_is_immediate_and_idempotent():
    backend = ProcessPoolBackend(workers=1)
    try:
        handles = share_task_arrays({"x": np.arange(4)}, backend)
        directory = os.path.dirname(handles["x"].path)
        release_task_arrays(handles)
        assert not os.path.exists(directory)
        release_task_arrays(handles)
    finally:
        backend.close()  # the registered safety net finds nothing left


def test_resolve_array_passes_plain_arrays_through():
    array = np.arange(3)
    assert resolve_array(array) is array


# ---------------------------------------------------------------------------
# stale-export sweeper
# ---------------------------------------------------------------------------
def _dead_pid() -> int:
    """PID of a process that has already exited and been reaped."""
    import subprocess

    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def test_sweeper_reclaims_dead_owner_dirs(tmp_path):
    """Hard-killed owners (kill -9, OOM) leak their memmap files; the
    startup/atexit sweeper reclaims them by liveness-probing the PID
    baked into the directory name."""
    from repro.engine.shm import sweep_stale_shm

    stale = tmp_path / f"repro-shm-{_dead_pid()}-deadbeef"
    stale.mkdir()
    (stale / "block.bin").write_bytes(b"\x00" * 64)
    mine = tmp_path / f"repro-shm-{os.getpid()}-cafe"
    mine.mkdir()
    # getppid() is the live pytest parent — another live owner.
    others = tmp_path / f"repro-shm-{os.getppid()}-live"
    others.mkdir()
    unrelated = tmp_path / "scratch-dir"
    unrelated.mkdir()
    not_a_dir = tmp_path / f"repro-shm-{_dead_pid()}-file"
    not_a_dir.write_text("plain file, not an export dir")

    removed = sweep_stale_shm(root=str(tmp_path))

    assert removed == [str(stale)]
    assert not stale.exists()
    for survivor in (mine, others, unrelated, not_a_dir):
        assert survivor.exists()


def test_sweeper_leaves_live_exports_usable():
    """Sweeping must never disturb this process's own live shares."""
    from repro.engine.shm import sweep_stale_shm

    csr = build_tiny_network().csr
    share_csr(csr)
    try:
        directory = _shm_dir(csr)
        removed = sweep_stale_shm()
        assert directory not in removed
        assert os.path.isdir(directory)
        clone = pickle.loads(pickle.dumps(csr))
        assert np.array_equal(clone.out_indptr, csr.out_indptr)
    finally:
        release_csr(csr)
    # Idempotent-release regression: a second release after the sweep
    # interaction is still a no-op, not an error.
    release_csr(csr)
    assert not os.path.exists(directory)
