"""The one worker loop: what every worker of the fabric runs.

A worker is a connected socket plus :func:`serve_connection`.  Where the
socket comes from is the only difference between transports:
:func:`run_worker` dials a TCP coordinator (the ``repro exec-worker``
CLI, and thread-based test fleets), :func:`local_worker_main` is the
entry point of a child forked onto a ``socketpair``.  Registration,
heartbeats, telemetry, chaos injection, result sealing and error frames
are the same code either way.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import socket
import threading
import time

from repro.exec import chaos as chaos_mod
from repro.exec import net as net_mod
from repro.obs import logs
from repro.obs import remote as remote_mod
from repro.resilience.errors import ResultIntegrityError

__all__ = ["run_worker", "serve_connection", "local_worker_main"]

_worker_seq = itertools.count()


def run_worker(
    address: tuple[str, int],
    *,
    worker_id: str | None = None,
    max_reconnects: int | None = 1000,
    reconnect_delay: float = 0.05,
    stop: threading.Event | None = None,
) -> int:
    """Connect to a coordinator and serve tasks until shutdown.

    Returns the number of tasks completed.  Reconnects (with a bounded
    budget) after connection loss — including the losses the
    ``disconnect`` chaos mode injects on purpose — so a blip never
    strands a healthy host.
    """
    worker_id = worker_id or (
        f"{socket.gethostname()}-{os.getpid()}-{next(_worker_seq)}"
    )
    completed = 0
    reconnects = 0
    while stop is None or not stop.is_set():
        try:
            sock = socket.create_connection(address, timeout=5.0)
        except OSError:
            sock = None
        if sock is not None:
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                outcome, served = serve_connection(
                    sock, worker_id, net_mod.wire_key(), stop
                )
            except (OSError, EOFError, ResultIntegrityError):
                outcome, served = "reconnect", 0
            finally:
                with contextlib.suppress(OSError):
                    sock.close()
            completed += served
            if outcome == "shutdown":
                return completed
        reconnects += 1
        if max_reconnects is not None and reconnects > max_reconnects:
            return completed
        time.sleep(reconnect_delay)
    return completed


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


def serve_connection(sock, worker_id, key, stop=None) -> tuple[str, int]:
    """One registered connection's lifetime; returns (outcome, completed).

    One task runs at a time; heartbeats flow from a side thread even
    while a task computes, which is what lets the coordinator tell *slow*
    from *partitioned*.
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

    send("register", worker_id, os.getpid(), socket.gethostname())
    _, _, hb_interval, run_id = receive("welcome")
    # The coordinator's run id makes this worker's JSON logs joinable
    # with the submitting run's (refreshed per task by the frame-carried
    # obs context, which may postdate registration).
    if run_id:
        logs.set_run_id(run_id)

    closed = threading.Event()
    #: heartbeats are suppressed until this monotonic instant (the
    #: ``partition`` chaos mode pushes it forward to go dark on purpose)
    suppress_hb_until = [0.0]
    # Telemetry (metric deltas + log records) piggybacks on heartbeats
    # through a bounded never-blocking buffer: a slow or partitioned
    # coordinator drops (and counts) telemetry, never stalls a task.
    forwarder = remote_mod.TelemetryForwarder(worker_id).attach()

    def heartbeat_loop():
        while not closed.is_set() and (stop is None or not stop.is_set()):
            if time.monotonic() >= suppress_hb_until[0]:
                try:
                    send("heartbeat", worker_id, forwarder.collect())
                except OSError:
                    return
            closed.wait(hb_interval)

    threading.Thread(
        target=heartbeat_loop, name="repro-exec-heartbeat", daemon=True
    ).start()

    completed = 0
    try:
        while stop is None or not stop.is_set():
            message = receive("shutdown", "init", "task")
            if message[0] == "shutdown":
                return "shutdown", completed
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
            net_mode = chaos_mod.net_action(chaos_spec, task_key, attempt)
            if net_mode == "disconnect":
                # Drop the link instead of running — the coordinator must
                # requeue onto a healthy peer; a TCP worker then
                # reconnects like a host whose network blipped.
                return "reconnect", completed
            if net_mode == "partition":
                hang = chaos_spec.hang_seconds
                suppress_hb_until[0] = time.monotonic() + hang
                time.sleep(hang)
            capture = remote_mod.WorkerSpanCapture(
                obs_ctx, "exec.task",
                task=task_key, attempt=attempt, worker=worker_id,
            )
            try:
                # Chaos before the task (a crash lands where a real one
                # would), checksum before corruption (so an injected — or
                # real — corrupted return is detectable, not silently
                # wrong).
                if chaos_spec is not None:
                    chaos_mod.inject_before(chaos_spec, task_key, attempt)
                with capture:
                    fn, args = net_mod.unpickle(blob)
                    result = fn(*args)
                crc, payload = net_mod.seal(result)
                if chaos_spec is not None:
                    payload = chaos_mod.corrupt_payload(
                        chaos_spec, task_key, attempt, payload
                    )
            except Exception as exc:  # task failure travels as a frame
                try:
                    exc_blob = pickle.dumps(exc)
                except Exception:
                    exc_blob = None
                send("error", session, index, attempt,
                     f"{type(exc).__name__}: {exc}", exc_blob)
                continue
            if net_mode == "delay":
                # Slow result path: heartbeats keep flowing, the result
                # does not — this is what straggler re-dispatch is for.
                time.sleep(chaos_spec.hang_seconds)
            # ``stale``: answer a previous generation; the coordinator
            # must reject it and re-dispatch instead of reducing it.
            reply_attempt = attempt - 1 if net_mode == "stale" else attempt
            send("result", session, index, reply_attempt, crc, payload,
                 capture.span_dict)
            completed += 1
    finally:
        closed.set()
        forwarder.detach()
    return "reconnect", completed
