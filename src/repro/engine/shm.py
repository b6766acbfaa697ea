"""Shared-memory exports: ship each large task payload to workers once.

A :class:`~repro.engine.backends.ProcessPoolBackend` ships one pickle
of the task per chunk, and a Monte-Carlo task embeds its problem
instance.  This module writes what would otherwise cross the pipe on
every chunk to files, once, on the parent, and replaces its pickle
payload with a tiny handle:

* **Graphs.**  A :class:`~repro.social.csr.CSRGraph`'s six arrays
  (hundreds of MB of ``indptr`` / ``indices`` / ``strength`` at 10^6
  users) freeze into files; workers attach them as read-only
  ``np.memmap`` views, one mapping per array per worker process, so the
  graph crosses the process boundary by page table, not by pipe.
* **Instances.**  An ``IMDPPInstance`` pickles by value into one file,
  its graph already a handle inside.  Each worker loads it once and
  memoizes it by handle, so every later chunk gets the same object —
  with its complementary table (DESIGN.md §9) still warm — and a
  dispatch costs a handle, not a rebuilt instance.
* **Task arrays** (:func:`share_task_arrays`): plain arrays of one
  dispatch, e.g. the RR sampler's reversed skeleton.

Estimators export lazily: :func:`share_for_backend` runs right before
the first dispatch that would pickle an instance, so an estimator that
never dispatches a replication task (RR sets, sketch banks) exports
nothing.

``np.memmap`` over ``multiprocessing.shared_memory`` deliberately: on
Python < 3.13 attaching a ``SharedMemory`` block registers it with the
resource tracker, which then unlinks segments still in use when any
worker exits (bpo-38119); plain files mmap identically fast, need no
tracker, and make the leak check trivial (the file either exists or
does not).

Lifecycle: the parent *owns* every export, and an export lives no
longer than its owner.  A shared graph's or instance's files go when
it is garbage-collected or when the backend it was shared for closes,
whichever comes first: :func:`share_for_backend` registers an unlink
callback that holds the object only weakly, and ``backend.close()``
removes the files and detaches the handle (later pickles fall back to
by-value) — including after a worker crash, because ownership never
leaves the parent.  An instance export also never outlives the graph
export its payload names: releasing a graph first releases every
instance export that depends on it.  Task arrays are released by their
consumer as soon as the dispatch that ships them returns
(:func:`release_task_arrays`), with ``backend.close()`` as the safety
net.  Workers memoize what they attach, and forget every attachment
whose files are gone whenever they attach a new one.  An ``atexit``
sweep removes anything this process still owns, and —
because export directories are tagged with the owning PID — a
*hard-killed* session's leftovers are reclaimed by the next session's
startup/atexit :func:`sweep_stale_shm` pass (a dir whose owner PID is
dead is garbage by definition; live owners are never touched).

Serial and thread backends never touch this module's machinery:
:func:`share_for_backend` is a no-op for them (same address space — a
pickle is never taken, so there is nothing to share).
"""

from __future__ import annotations

import atexit
import os
import pickle
import re
import shutil
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from repro.social.csr import CSRGraph

__all__ = [
    "SharedArrayHandle",
    "SharedCSRHandle",
    "SharedInstanceHandle",
    "attach_array",
    "attach_csr",
    "attach_instance",
    "release_csr",
    "release_task_arrays",
    "resolve_array",
    "resolve_arrays",
    "share_csr",
    "share_for_backend",
    "share_task_arrays",
    "sweep_stale_shm",
]

#: Export directories are ``repro-shm-<owner pid>-<random>`` so any
#: process can later decide whether a leftover is garbage: dead owner
#: PID = reclaimable, live owner (or untagged legacy name) = hands off.
_DIR_PID_PATTERN = re.compile(r"^repro-shm-(\d+)-")


def _new_export_dir() -> str:
    return tempfile.mkdtemp(prefix=f"repro-shm-{os.getpid()}-")

#: Directories this process exported and still owns (for the atexit
#: sweep; removed eagerly by :func:`release_csr`).
_owned_dirs: set[str] = set()

#: Worker-side attach cache: one mmap per exported array per process,
#: keyed by handle.  Hit by every chunk after the first, so repeated
#: task pickles of the same graph cost no new mappings.
_attached_arrays: dict["SharedArrayHandle", np.ndarray] = {}

#: Worker-side graph cache: one CSRGraph per handle per process, so
#: its lazily-built derived views (sorted lookup, undirected) are also
#: computed once per worker, not once per chunk.
_attached_graphs: dict["SharedCSRHandle", CSRGraph] = {}

#: Worker-side instance cache: one unpickled instance per handle per
#: process, so every chunk after the first reuses the object and its
#: lazily filled complementary table stays warm.
_attached_instances: dict["SharedInstanceHandle", object] = {}


def _remove_export(directory: str, owner: int) -> None:
    """Delete one export directory, but only in the process that made it.

    Forked workers inherit the parent's finalizers and callbacks; the
    PID check keeps them from deleting files the parent still ships.
    """
    if os.getpid() == owner:
        _owned_dirs.discard(directory)
        shutil.rmtree(directory, ignore_errors=True)


def _forget_removed(memo: dict) -> None:
    """Drop memoized attachments whose export files are gone.

    An owner removes its export once nothing can ship the handle again,
    so such an entry is dead weight: without this a long-lived worker
    would pin every graph, instance and array it ever attached.
    """
    for handle in [handle for handle in memo if not handle.exported]:
        del memo[handle]


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable pointer to one exported array (file + geometry)."""

    path: str
    shape: tuple
    dtype: str

    @property
    def exported(self) -> bool:
        """Do the files behind this handle still exist?"""
        return os.path.exists(self.path)


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable pointer to a full dual-direction CSR export."""

    n_users: int
    out: tuple[SharedArrayHandle, SharedArrayHandle, SharedArrayHandle]
    into: tuple[SharedArrayHandle, SharedArrayHandle, SharedArrayHandle]

    @property
    def exported(self) -> bool:
        """Do the files behind this handle still exist?"""
        return self.out[0].exported


@dataclass(frozen=True)
class SharedInstanceHandle:
    """Picklable pointer to an exported problem instance."""

    path: str

    @property
    def exported(self) -> bool:
        """Does the file behind this handle still exist?"""
        return os.path.exists(self.path)


def _export_array(array: np.ndarray, directory: str, name: str) -> SharedArrayHandle:
    """Write one array to ``directory/name.bin`` and hand back a handle."""
    path = os.path.join(directory, f"{name}.bin")
    np.ascontiguousarray(array).tofile(path)
    return SharedArrayHandle(
        path=path,
        shape=tuple(array.shape),
        dtype=np.dtype(array.dtype).str,
    )


def attach_array(handle: SharedArrayHandle) -> np.ndarray:
    """Read-only zero-copy view of an exported array (memoized)."""
    cached = _attached_arrays.get(handle)
    if cached is None:
        _forget_removed(_attached_arrays)
        cached = np.memmap(
            handle.path,
            dtype=np.dtype(handle.dtype),
            mode="r",
            shape=handle.shape,
        )
        _attached_arrays[handle] = cached
    return cached


def share_csr(csr: CSRGraph, directory: str | None = None) -> SharedCSRHandle:
    """Export a graph's six arrays to files and tag the graph.

    After this call the graph pickles as its handle
    (:meth:`CSRGraph.__reduce__`), so tasks embedding it ship bytes
    proportional to a few path strings.  The caller (parent process)
    owns the files — pair with :func:`release_csr`, or go through
    :func:`share_for_backend` to tie the lifetime to a backend.  A
    graph that is garbage-collected takes its files with it.
    """
    existing = getattr(csr, "_shm_handle", None)
    if existing is not None:
        return existing
    directory = directory or _new_export_dir()
    _owned_dirs.add(directory)
    handle = SharedCSRHandle(
        n_users=csr.n_users,
        out=(
            _export_array(csr.out_indptr, directory, "out_indptr"),
            _export_array(csr.out_indices, directory, "out_indices"),
            _export_array(csr.out_strength, directory, "out_strength"),
        ),
        into=(
            _export_array(csr.in_indptr, directory, "in_indptr"),
            _export_array(csr.in_indices, directory, "in_indices"),
            _export_array(csr.in_strength, directory, "in_strength"),
        ),
    )
    csr._shm_handle = handle
    csr._shm_release = weakref.finalize(csr, _remove_export, directory, os.getpid())
    #: Instance exports whose payload names this graph's handle.
    csr._shm_dependents = weakref.WeakValueDictionary()
    return handle


def attach_csr(handle: SharedCSRHandle) -> CSRGraph:
    """Rebuild a :class:`CSRGraph` over attached memmap views.

    The unpickle target of a shared graph (memoized per process).  The
    views are read-only, matching the frozen contract of the original
    arrays; derived lazy views (sorted lookup, neglog strengths,
    undirected adjacency) rebuild deterministically on first use.
    """
    cached = _attached_graphs.get(handle)
    if cached is None:
        _forget_removed(_attached_graphs)
        cached = CSRGraph(
            handle.n_users,
            tuple(attach_array(part) for part in handle.out),
            tuple(attach_array(part) for part in handle.into),
        )
        _attached_graphs[handle] = cached
    return cached


def _share_instance(instance) -> SharedInstanceHandle:
    """Export a problem instance by value and tag it.

    The instance's graph is shared first, so the payload names the
    graph's handle instead of carrying its arrays.  After this call the
    instance pickles as its handle (``IMDPPInstance.__reduce_ex__``)
    and workers load it through :func:`attach_instance`.  The export
    depends on the graph's: :func:`release_csr` releases it first, so
    a shipped handle can never lead a worker to a graph that is gone.
    An instance that is garbage-collected takes its file with it.
    """
    existing = getattr(instance, "_shm_handle", None)
    if existing is not None:
        return existing
    csr = instance.network.csr
    share_csr(csr)
    directory = _new_export_dir()
    _owned_dirs.add(directory)
    handle = SharedInstanceHandle(os.path.join(directory, "instance.pickle"))
    with open(handle.path, "wb") as payload:
        pickle.dump(instance, payload, pickle.HIGHEST_PROTOCOL)
    instance._shm_handle = handle
    instance._shm_release = weakref.finalize(
        instance, _remove_export, directory, os.getpid()
    )
    csr._shm_dependents[handle] = instance
    return handle


def attach_instance(handle: SharedInstanceHandle):
    """Load an exported instance (memoized per process).

    The unpickle target of a shared instance.  Every chunk after the
    first gets the same object, so what it derives lazily (the
    complementary table, the graph's derived views) is computed once
    per worker, not once per task.  Its graph arrives through
    :func:`attach_csr`.
    """
    cached = _attached_instances.get(handle)
    if cached is None:
        _forget_removed(_attached_instances)
        with open(handle.path, "rb") as payload:
            cached = pickle.load(payload)
        _attached_instances[handle] = cached
    return cached


def _release(shared) -> None:
    """Unlink one shared object's files and detach its handle.

    Idempotent; afterwards the object pickles by value again.
    """
    if getattr(shared, "_shm_handle", None) is None:
        return
    del shared._shm_handle
    shared._shm_release()  # a finalizer runs at most once
    del shared._shm_release


def release_csr(csr: CSRGraph) -> None:
    """Unlink a shared graph's files and detach its handle.

    Idempotent.  Instance exports whose payload names the graph go
    first.  After release the graph pickles by value again, so a
    surviving estimator on a fresh backend keeps working — it just
    loses the zero-copy path until shared again.
    """
    if getattr(csr, "_shm_handle", None) is None:
        return
    for instance in list(csr._shm_dependents.values()):
        _release(instance)
    del csr._shm_dependents
    _release(csr)


def share_for_backend(shared, backend):
    """Share a graph or an instance iff ``backend`` pickles tasks.

    ``shared`` is a :class:`CSRGraph` or an ``IMDPPInstance``; an
    instance shares its graph for the same backend first.  Serial and
    thread backends share the caller's address space — no pickle,
    nothing to export — so they bypass shm entirely (returns None), as
    does a closed pool.  For a live process pool the object is
    exported once and an unlink callback registered on the backend:
    ``backend.close()`` removes the files and detaches the handle,
    including when workers died mid-flight (the parent owns the files
    throughout).  The callback holds the object weakly, so a backend
    that outlives many instances does not keep them (or their files)
    alive.  Returns the handle.
    """
    if backend.name != "process" or backend.closed:
        return None
    if isinstance(shared, CSRGraph):
        share, release = share_csr, release_csr
    else:
        share_for_backend(shared.network.csr, backend)
        share, release = _share_instance, _release
    already_shared = getattr(shared, "_shm_handle", None) is not None
    handle = share(shared)
    if not already_shared:
        owner = weakref.ref(shared)
        # ``owner()`` is None once collected; releasing None is a
        # no-op (the finalizer already removed the files).
        backend.add_cleanup(lambda: release(owner()))
    return handle


def share_task_arrays(
    arrays: dict[str, np.ndarray], backend
) -> dict[str, SharedArrayHandle] | None:
    """Export a task's large arrays iff ``backend`` pickles to workers.

    The generic sibling of :func:`share_for_backend` for tasks whose
    payload is plain arrays rather than a :class:`CSRGraph` — e.g. the
    RR sampler's reversed skeleton
    (:class:`~repro.sketch.rrset.RRSampleTask`), which dwarfs the graph
    itself at scale.  Returns ``{name: handle}`` for the caller to
    substitute into the task (workers re-materialize the arrays with
    :func:`resolve_array`), or None for serial/thread backends, whose
    tasks are never pickled.  The caller releases the files with
    :func:`release_task_arrays` once its dispatch returns;
    ``backend.close()`` (or the atexit sweep) removes whatever is left,
    so a worker crash leaks nothing past the backend's lifetime.
    """
    if backend.name != "process" or backend.closed:
        return None
    directory = _new_export_dir()
    _owned_dirs.add(directory)
    handles = {
        name: _export_array(array, directory, name)
        for name, array in arrays.items()
    }
    backend.add_cleanup(lambda: release_task_arrays(handles))
    return handles


def release_task_arrays(handles: dict[str, SharedArrayHandle]) -> None:
    """Remove the files behind a :func:`share_task_arrays` export.

    Idempotent.  Call it once no dispatch can ship the handles again;
    workers that already attached them keep their mappings.
    """
    for directory in {os.path.dirname(h.path) for h in handles.values()}:
        _remove_export(directory, os.getpid())


def resolve_array(value) -> np.ndarray:
    """Attach a :class:`SharedArrayHandle`; pass arrays through.

    Task bodies call this on fields that may ship either by value
    (serial/thread, small graphs) or by handle
    (:func:`share_task_arrays`), so one code path serves both.
    """
    if isinstance(value, SharedArrayHandle):
        return attach_array(value)
    return value


def resolve_arrays(*values) -> tuple[np.ndarray, ...]:
    """:func:`resolve_array` over several task fields at once."""
    return tuple(resolve_array(value) for value in values)


def _pid_alive(pid: int) -> bool:
    """Is some process with this PID still running?

    ``kill(pid, 0)`` probes without signalling; ``PermissionError``
    means the PID exists under another user, so it counts as alive —
    when in doubt, never reclaim.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def sweep_stale_shm(root: str | None = None) -> list[str]:
    """Reclaim export directories whose owning process is dead.

    The recovery path for hard kills (``kill -9``, OOM): the owner's
    atexit sweep never ran, so its memmap files outlived it.  Scans
    ``root`` (the tempdir by default) for PID-tagged export dirs and
    removes those whose owner PID no longer exists.  Runs at import
    (session startup) and at exit; safe concurrently — live owners,
    this process's own exports and non-matching names are never
    touched, and removal races are ignored.  Returns what it removed.
    """
    root = root or tempfile.gettempdir()
    removed: list[str] = []
    try:
        entries = os.listdir(root)
    except OSError:
        return removed
    for name in entries:
        match = _DIR_PID_PATTERN.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(root, name)
        if path in _owned_dirs or not os.path.isdir(path):
            continue
        shutil.rmtree(path, ignore_errors=True)
        removed.append(path)
    return removed


@atexit.register
def _cleanup_owned() -> None:  # pragma: no cover - interpreter exit
    for directory in list(_owned_dirs):
        shutil.rmtree(directory, ignore_errors=True)
    _owned_dirs.clear()
    try:
        sweep_stale_shm()
    except Exception:
        pass


# Session startup: reclaim what hard-killed predecessors left behind.
try:  # pragma: no cover - environment dependent
    sweep_stale_shm()
except Exception:
    pass
