"""Guaranteed shared-memory segment lifecycle for the execution fabric.

Every fork-pool engine ships one large ndarray (good values, attribute
matrix) to its workers through ``multiprocessing.shared_memory``.  The
failure mode that matters is the *unlink*: a segment whose creator dies
without unlinking it leaks ``/dev/shm`` space until reboot.  Three layers
guarantee cleanup:

1. :func:`owned_ndarray` / :class:`SharedSegment` — a context manager
   whose ``finally`` closes **and unlinks**; worker death never matters
   because only the parent ever owns a segment.
2. A process-local registry + ``atexit`` hook — segments leaked past
   their context (a bug, or an exception path that skipped ``__exit__``)
   are unlinked at interpreter shutdown.
3. :func:`sweep_orphans` — a parent-side sweep for segments whose naming
   pid is dead (the parent itself was ``kill -9``-ed).  Executors call it
   before building a pool, so the next run of *any* fabric user reclaims
   what a hard-killed predecessor left behind.

Segment names encode the owner pid (``repro-exec-<pid>-<seq>-<token>``)
so the sweep can tell a live sibling's segment from a dead one's.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import secrets
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "SharedSegment",
    "owned_ndarray",
    "attached_ndarray",
    "sweep_orphans",
    "live_segment_names",
    "leaked_segment_names",
]

SHM_PREFIX = "repro-exec"

#: where POSIX shared memory appears as files (Linux); sweep is a no-op
#: on platforms without it
_SHM_ROOT = Path("/dev/shm")

_counter = itertools.count()
_lock = threading.Lock()
#: name -> SharedMemory of every segment this process currently owns
_live: dict[str, object] = {}


def _new_name() -> str:
    return f"{SHM_PREFIX}-{os.getpid()}-{next(_counter)}-{secrets.token_hex(4)}"


class SharedSegment:
    """A parent-owned shared-memory copy of one ndarray.

    Create with :meth:`from_array`; workers attach by ``name`` via
    :func:`attached_ndarray`.  The owner must call :meth:`close_unlink`
    (or use the instance as a context manager); the atexit registry and
    :func:`sweep_orphans` are the backstops, not the plan.
    """

    def __init__(self, name: str, shm, array: np.ndarray) -> None:
        self.name = name
        self._shm = shm
        #: parent-side view of the shared buffer
        self.array = array

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedSegment":
        from multiprocessing import shared_memory

        source = np.ascontiguousarray(source)
        name = _new_name()
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, source.nbytes)
        )
        with _lock:
            _live[name] = shm
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        view[:] = source
        return cls(name, shm, view)

    @classmethod
    def zeros(cls, shape, dtype) -> "SharedSegment":
        """An owned zero-filled segment (e.g. an activation slab workers
        fill in place) — same lifecycle guarantees as :meth:`from_array`.
        """
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        name = _new_name()
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nbytes)
        )
        with _lock:
            _live[name] = shm
        # A new segment reads as zeros: no fill, no page faulted in early.
        return cls(name, shm, np.ndarray(shape, dtype=dtype, buffer=shm.buf))

    def close_unlink(self) -> None:
        """Release the parent mapping and remove the segment (idempotent)."""
        with _lock:
            shm = _live.pop(self.name, None)
        if shm is None:
            return
        self.array = None
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close_unlink()


@contextlib.contextmanager
def owned_ndarray(source: np.ndarray):
    """Context manager: share ``source``, guarantee unlink on exit."""
    segment = SharedSegment.from_array(source)
    try:
        yield segment
    finally:
        segment.close_unlink()


@contextlib.contextmanager
def attached_ndarray(name: str, shape, dtype):
    """Worker-side attach; yields the ndarray view, closes on exit.

    Fork context: the parent's resource tracker owns the segment, so
    attaching here is a no-op registration that the parent's unlink
    clears exactly once (the usual worker-side ``unregister`` workaround
    would *cause* a double-unregister).
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        yield np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    finally:
        shm.close()


def _atexit_sweep() -> None:  # pragma: no cover - interpreter teardown
    with _lock:
        leaked = list(_live.items())
        _live.clear()
    for _, shm in leaked:
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()


atexit.register(_atexit_sweep)


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def live_segment_names() -> list[str]:
    """Names of segments this process currently owns (diagnostics)."""
    with _lock:
        return sorted(_live)


def leaked_segment_names() -> list[str]:
    """Fabric segments visible in ``/dev/shm`` right now (test helper)."""
    if not _SHM_ROOT.is_dir():
        return []
    return sorted(p.name for p in _SHM_ROOT.glob(f"{SHM_PREFIX}-*"))


def sweep_orphans() -> list[str]:
    """Unlink fabric segments whose owning process is dead.

    Returns the names removed.  Safe against concurrent sweepers (unlink
    races are suppressed) and against live siblings (their pid check
    passes, so their segments are never touched).
    """
    removed: list[str] = []
    if not _SHM_ROOT.is_dir():
        return removed
    from multiprocessing import shared_memory

    for path in _SHM_ROOT.glob(f"{SHM_PREFIX}-*"):
        parts = path.name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid_alive(pid):
            continue
        try:
            shm = shared_memory.SharedMemory(name=path.name)
        except FileNotFoundError:
            continue
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()
            removed.append(path.name)
    return removed
