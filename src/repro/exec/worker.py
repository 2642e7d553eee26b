"""The one worker loop: what every worker of the fabric runs.

A worker is a connected socket plus :func:`serve_connection`;
:func:`local_worker_main` is the entry point of a child the coordinator
forked onto a ``socketpair``.  Heartbeats, chaos injection, result
sealing and error frames all live here.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
import time

from repro.exec import chaos as chaos_mod
from repro.exec import net as net_mod
from repro.obs import logs
from repro.obs import remote as remote_mod
from repro.resilience.errors import ResultIntegrityError

__all__ = ["serve_connection", "local_worker_main"]


def local_worker_main(sock, inherited, worker_id: str, key: bytes) -> None:
    """Entry point of a forked local worker (serves until EOF/shutdown)."""
    # Handlers the parent installed (``repro serve`` drains on SIGTERM)
    # mean nothing here: a signalled worker must simply die, or the
    # parent's exit would wait on it forever.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # Parent-side ends this child inherited: holding them open would keep
    # a sibling from ever seeing EOF when the parent dies.
    for other in inherited:
        other.close()
    with contextlib.suppress(OSError, EOFError, ResultIntegrityError):
        serve_connection(sock, worker_id, key)


def serve_connection(sock, worker_id, key) -> None:
    """One connection's lifetime, until shutdown or EOF.

    The first frame is a heartbeat.  One task runs at a time; heartbeats
    flow from a side thread even while a task computes, which is what
    lets the coordinator tell *slow* from *silent*.  The run id comes
    with the fork and is refreshed by every ``init`` and ``task`` frame.
    """
    send_lock = threading.Lock()

    def send(*message):
        with send_lock:
            net_mod.send_frame(sock, message, key)

    def receive(*kinds):
        while True:
            message = net_mod.recv_frame(sock, key)
            if net_mod.well_formed(message, kinds):
                return message

    send("heartbeat", worker_id)
    closed = threading.Event()

    def heartbeat_loop():
        while not closed.wait(net_mod.HB_INTERVAL_S):
            try:
                send("heartbeat", worker_id)
            except OSError:
                return

    threading.Thread(
        target=heartbeat_loop, name="repro-exec-heartbeat", daemon=True
    ).start()

    try:
        while True:
            message = receive("shutdown", "init", "task")
            if message[0] == "shutdown":
                return
            if message[0] == "init":
                _, _session, blob, run_id = message
                if run_id:
                    logs.set_run_id(run_id)
                initializer, initargs = net_mod.unpickle(blob)
                if initializer is not None:
                    initializer(*initargs)
                continue
            (_, session, index, task_key, attempt, blob, chaos_spec,
             obs_ctx) = message
            mode = chaos_spec.roll(task_key, attempt) if chaos_spec else None
            capture = remote_mod.WorkerSpanCapture(
                obs_ctx, "exec.task",
                task=task_key, attempt=attempt, worker=worker_id,
            )
            try:
                # Chaos before the task (a crash lands where a real one
                # would), checksum before corruption (so an injected — or
                # real — corrupted return is detectable, not silently
                # wrong).
                if mode == "kill":
                    os._exit(137)
                if mode == "hang":
                    time.sleep(chaos_spec.hang_seconds)
                if mode == "raise":
                    raise chaos_mod.ChaosInjectedError(
                        f"chaos: injected worker failure for task {task_key!r} "
                        f"(attempt {attempt})"
                    )
                with capture:
                    fn, args = net_mod.unpickle(blob)
                    result = fn(*args)
                crc, payload = net_mod.seal(result)
                if mode == "corrupt":
                    payload = chaos_mod.flip_bytes(payload)
            except Exception as exc:  # task failure travels as a frame
                try:
                    exc_blob = pickle.dumps(exc)
                except Exception:
                    exc_blob = None
                send("error", session, index, attempt,
                     f"{type(exc).__name__}: {exc}", exc_blob)
                continue
            send("result", session, index, attempt, crc, payload,
                 capture.span_dict)
    finally:
        closed.set()
