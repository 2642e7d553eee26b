"""The coordinator: a worker registry driving one :class:`TaskScheduler`.

A :class:`Coordinator` keeps connected workers (one reader thread each),
turns their frames into scheduler events and performs the scheduler's
actions.  It decides nothing about recovery itself — every such decision
is :mod:`repro.exec.scheduler`'s.  Worker sockets come from two sources,
and that is all a transport is:

* **TCP accept** — ``Coordinator()`` listens on ``REPRO_EXEC_COORD``
  and ``repro exec-worker --connect host:port`` processes dial in.  One
  process-global instance (:func:`get_coordinator`) backs the ``socket``
  backend, so the fleet outlives the executors engines create and close.
* **fork + socketpair** — :meth:`Coordinator.spawn_local` forks children
  that run the same worker loop on an inherited socket.  A private
  ``Coordinator(listen=False)`` is the whole ``forkpool`` backend.

Trust: frames are authenticated before they are unpickled
(:mod:`repro.exec.net`).  Beyond loopback the listener refuses to bind
without ``REPRO_EXEC_TOKEN``; a peer that has not registered gets one
small frame and a short timeout.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import multiprocessing
import os
import pickle
import queue
import socket
import threading
import time
import warnings

from repro.exec import chaos as chaos_mod
from repro.exec import net as net_mod
from repro.exec import shm as shm_mod
from repro.exec import worker as worker_mod
from repro.exec.policy import ExecPolicy, RemoteTaskError
from repro.exec.scheduler import TaskScheduler, ensure_exec_metrics
from repro.obs import logs
from repro.obs import remote as remote_mod
from repro.obs.trace import graft, span
from repro.resilience.errors import ResultIntegrityError

__all__ = ["Coordinator", "get_coordinator", "shutdown_coordinator"]

_log = logs.get_logger("exec.net")

#: how long the driver blocks on worker events between scheduler ticks
_POLL_S = 0.02
_FORK = multiprocessing.get_context("fork")
#: signs socketpair frames; forked workers inherit it, nobody else can
_LOCAL_KEY = os.urandom(32)
#: serialises fork + the parent-side close of the child's socket end, so
#: no other thread's fork can inherit (and pin open) a half-built pair
_fork_lock = threading.Lock()
_local_seq = itertools.count()


class _WorkerConn:
    """One registered worker connection (coordinator side)."""

    def __init__(self, sock, key, proc, worker_id: str, pid: int, host: str):
        self.sock = sock
        self.key = key
        #: the forked child behind this connection (None for TCP workers)
        self.proc = proc
        self.id = worker_id
        self.pid = pid
        self.host = host
        self.send_lock = threading.Lock()
        self.last_hb = time.monotonic()
        self.alive = True
        #: session whose initializer this connection last ran
        self.session: str | None = None
        #: why the connection ended (requeue metric label)
        self.death_reason = "disconnect"

    def __str__(self) -> str:
        return self.id

    def send(self, *message) -> None:
        with self.send_lock:
            net_mod.send_frame(self.sock, message, self.key)

    def kill(self, reason: str = "disconnect") -> None:
        """End the worker: SIGKILL + reap a local child, close the socket.

        Synchronous for local workers — once this returns the child
        cannot touch shared memory again (the scheduler relies on it).
        """
        if self.alive:
            self.death_reason = reason
        self.alive = False
        if self.proc is not None:
            self.proc.kill()
            self.proc.join()
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()


class Coordinator:
    """Worker registry + reader threads + the submit driver.

    Submits are serialized by a lock; registration, heartbeats and
    telemetry are handled by per-connection reader threads at any time.
    """

    def __init__(
        self, address: tuple[str, int] | None = None, *, listen: bool = True
    ):
        #: the backend label of submits served here
        self.kind = "socket" if listen else "forkpool"
        self._workers: dict[str, _WorkerConn] = {}
        self._workers_lock = threading.Lock()
        self._events: queue.Queue = queue.Queue()
        self.closed = False
        self._submit_lock = threading.Lock()
        #: failed attempts during the most recent submit (engine counters)
        self.last_submit_failures = 0
        self._attempt_ids = itertools.count(1)
        self._local: list = []  # forked children, dead ones included
        self._local_target = 0
        self._listener = None
        self.address: tuple[str, int] | None = None
        if listen:
            host, port = address or net_mod.coordinator_address()
            net_mod.require_token(host)
            self._listener = socket.create_server((host, port))
            #: the concrete (host, port) we bound — port resolved if 0
            self.address = self._listener.getsockname()[:2]
            threading.Thread(
                target=self._accept_loop, name="repro-exec-accept", daemon=True
            ).start()

    # ------------------------------------------------------------------ #
    # Socket sources
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        key = net_mod.wire_key()
        while not self.closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._adopt(sock, key)

    def spawn_local(self, target: int) -> int:
        """Fork workers until ``target`` local ones are alive; return how
        many were forked.  Later losses are replaced up to that target."""
        self._local_target = max(self._local_target, target)
        self._local = [proc for proc in self._local if proc.is_alive()]
        missing = self._local_target - len(self._local)
        if missing <= 0 or self.closed:
            return 0
        # Reclaim segments a kill -9'd predecessor left in /dev/shm.
        shm_mod.sweep_orphans()
        started = []
        inherited = [conn.sock for conn in self.workers()]
        with _fork_lock:
            for _ in range(missing):
                ours, theirs = socket.socketpair()
                proc = _FORK.Process(
                    target=worker_mod.local_worker_main,
                    args=(
                        theirs, [*inherited, ours],
                        f"local-{os.getpid()}-{next(_local_seq)}", _LOCAL_KEY,
                    ),
                    daemon=True,
                )
                proc.start()
                theirs.close()
                inherited.append(ours)
                started.append((ours, proc))
        # Reader threads start only after every fork: a child must not be
        # forked while a sibling's reader holds a lock it would inherit.
        for ours, proc in started:
            self._local.append(proc)
            self._adopt(ours, _LOCAL_KEY, proc)
        return missing

    def _adopt(self, sock, key: bytes, proc=None) -> None:
        threading.Thread(
            target=self._reader, args=(sock, key, proc),
            name="repro-exec-reader", daemon=True,
        ).start()

    def _reader(self, sock, key: bytes, proc) -> None:
        """Per-connection thread: register, then route frames until EOF."""
        conn: _WorkerConn | None = None
        malformed = remote_mod.ensure_obs_metrics()["malformed"]
        try:
            sock.settimeout(net_mod.REGISTER_TIMEOUT_S)
            message = net_mod.recv_frame(sock, key, net_mod.MAX_HELLO_BYTES)
            if not net_mod.well_formed(message, ("register",)):
                malformed.labels("unregistered").inc()
                return
            sock.settimeout(None)
            conn = _WorkerConn(sock, key, proc, *message[1:])
            with self._workers_lock:
                previous = self._workers.pop(conn.id, None)
                self._workers[conn.id] = conn
            if previous is not None:  # same id re-registering after a blip
                previous.kill()
            conn.send(
                "welcome", conn.id, net_mod.heartbeat_interval(),
                logs.get_run_id(),
            )
            self._count_workers()
            # Wakes a submit that is waiting for someone to dispatch to
            # (a fresh pool's first, or one whose worker is being replaced)
            # instead of leaving it to the next poll.
            self._events.put(("hello", conn))
            _log.info(
                "worker registered",
                extra={"worker": conn.id, "pid": conn.pid, "host": conn.host},
            )
            while True:
                message = net_mod.recv_frame(sock, key)
                if not net_mod.well_formed(
                    message, ("heartbeat", "result", "error")
                ):
                    # Counted and dropped; the scheduler requeues whatever
                    # the frame should have answered.
                    malformed.labels(conn.id).inc()
                elif message[0] == "heartbeat":
                    conn.last_hb = time.monotonic()
                    # absorb_telemetry is defensive by contract: a bad
                    # batch is counted, never raised into this thread.
                    remote_mod.absorb_telemetry(conn.id, message[2])
                else:
                    self._events.put((message[0], conn, *message[1:]))
        except (EOFError, OSError):
            pass
        except ResultIntegrityError:
            # A peer whose frames do not verify is not one of ours, or
            # its stream is corrupt: nothing that follows can be trusted.
            ensure_exec_metrics()["integrity"].labels(
                "coordinator", self.kind
            ).inc()
        finally:
            if conn is not None:
                conn.alive = False
                with self._workers_lock:
                    if self._workers.get(conn.id) is conn:
                        del self._workers[conn.id]
                self._count_workers()
                self._events.put(("gone", conn))
            with contextlib.suppress(OSError):
                sock.close()

    # ------------------------------------------------------------------ #
    def _count_workers(self) -> None:
        if self._listener is not None:
            ensure_exec_metrics()["workers"].set(self.worker_count())

    def worker_count(self) -> int:
        return len(self.workers())

    def workers(self) -> list[_WorkerConn]:
        with self._workers_lock:
            return [c for c in self._workers.values() if c.alive]

    def wait_for_workers(self, timeout: float, minimum: int = 1) -> bool:
        """Poll until >= ``minimum`` workers are registered (or time out)."""
        end = time.monotonic() + max(0.0, timeout)
        while self.worker_count() < minimum:
            if time.monotonic() >= end:
                return False
            time.sleep(0.01)
        return True

    def close(self) -> None:
        """Shut the listener down and end every worker."""
        if self.closed:
            return
        self.closed = True
        for conn in self.workers():
            with contextlib.suppress(OSError):
                conn.send("shutdown")
            conn.kill()
        for proc in self._local:  # forked but never registered
            proc.kill()
            proc.join()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()

    # ------------------------------------------------------------------ #
    # The driver
    # ------------------------------------------------------------------ #
    def submit(
        self,
        session: str,
        init_blob: bytes,
        tasks,
        policy: ExecPolicy,
        *,
        engine: str = "exec",
    ) -> list:
        """Run ``tasks`` on the registered workers; reduce in task order.

        Tasks the scheduler gives up on (or that have no ``fn``) are
        computed through their parent-side fallbacks when
        ``policy.serial_fallback`` — bit-identical to the in-process
        oracle by construction.
        """
        tasks = list(tasks)
        with self._submit_lock:
            chaos_spec = chaos_mod.ChaosSpec.from_env()
            # The submitting thread's trace/run context travels inside
            # every task frame so workers can open child spans under it.
            obs_ctx = remote_mod.capture_obs_context()
            # Whatever a previous submit left queued is about attempts
            # that no longer exist; the registry, not the queue, says who
            # is connected.
            with contextlib.suppress(queue.Empty):
                while True:
                    self._events.get_nowait()
            sched = TaskScheduler(
                [task.key for task in tasks],
                policy,
                session=session,
                attempt_ids=self._attempt_ids,
                hb_timeout=net_mod.heartbeat_timeout(),
                grace=net_mod.connect_timeout(),
                runnable=[task.fn is not None for task in tasks],
                engine=engine,
                backend=self.kind,
            )
            try:
                while True:
                    for conn in self.workers():
                        sched.heartbeat(conn, conn.last_hb)
                    for kind, *args in sched.tick(time.monotonic()):
                        if kind == "dispatch":
                            index, attempt, conn = args
                            task = tasks[index]
                            try:
                                if conn.session != session:
                                    conn.send(
                                        "init", session, init_blob,
                                        logs.get_run_id(),
                                    )
                                    conn.session = session
                                conn.send(
                                    "task", session, index, task.key, attempt,
                                    pickle.dumps(
                                        (task.fn, task.args),
                                        protocol=pickle.HIGHEST_PROTOCOL,
                                    ),
                                    chaos_spec, obs_ctx,
                                )
                            except OSError:
                                conn.kill()
                                sched.worker_lost(conn)
                        elif kind == "kill":
                            conn, reason = args
                            conn.kill(reason)
                        elif kind == "rescue":
                            self._rescue(tasks, policy, engine, sched, *args)
                        else:
                            return args[0]
                    self._feed(sched, policy, engine)
            finally:
                self.last_submit_failures = sched.failed_attempts

    def _feed(self, sched: TaskScheduler, policy, engine: str) -> None:
        """Block briefly on worker events and hand them to the scheduler."""
        try:
            event = self._events.get(timeout=_POLL_S)
        except queue.Empty:
            return
        while True:
            kind, conn, *fields = event
            if kind == "hello":
                pass  # the registry has the worker; the next tick sees it
            elif kind == "gone":
                sched.worker_lost(conn, conn.death_reason)
                if conn.proc is not None:
                    # EOF can precede the child becoming waitable; reap it
                    # so the head count below does not see a ghost.
                    conn.kill()
                    ensure_exec_metrics()["restarts"].labels(
                        engine, self.kind
                    ).inc(self.spawn_local(0))
            elif kind == "result":
                session, index, attempt, crc, payload, span_blob = fields

                def decode():
                    value = net_mod.unseal(
                        crc, payload, sched.keys[index], policy.verify_integrity
                    )
                    self._graft(span_blob, conn, attempt, engine)
                    return value

                sched.result(conn, session, index, attempt, decode)
            else:
                session, index, attempt, text, exc_blob = fields
                try:
                    exc = net_mod.unpickle(exc_blob)
                    if not isinstance(exc, BaseException):
                        raise TypeError(type(exc))
                except Exception:
                    exc = RemoteTaskError(text)
                sched.error(conn, session, index, attempt, exc)
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                return

    @staticmethod
    def _graft(span_blob, conn, attempt, engine) -> None:
        """Attach a worker's finished span subtree under the submit span —
        best-effort: a corrupt blob can't fail the result."""
        if span_blob is None:
            return
        obs = remote_mod.ensure_obs_metrics()
        try:
            if graft(span_blob, worker=conn.id, attempt=attempt):
                obs["grafts"].labels(engine).inc()
        except Exception:
            obs["malformed"].labels(conn.id).inc()

    def _rescue(self, tasks, policy, engine, sched, rescued, failures, last_exc):
        # Tasks without an ``fn`` are parent-side by design, not failures.
        gave_up = [tasks[i] for i in rescued if tasks[i].fn is not None]
        if gave_up and not policy.serial_fallback:
            if policy.exhausted_error is not None:
                raise policy.exhausted_error(
                    gave_up, failures, last_exc
                ) from last_exc
            raise last_exc
        if gave_up:
            warnings.warn(
                f"failure budget spent for {len(gave_up)} task(s); "
                "computing them serially in-process",
                ResourceWarning,
                stacklevel=5,
            )
            ensure_exec_metrics()["fallbacks"].labels(engine, self.kind).inc(
                len(gave_up)
            )
            _log.warning(
                "degrading to in-process fallback",
                extra={"engine": engine, "tasks": [task.key for task in gave_up]},
            )
        with span("exec.fallback", engine=engine, tasks=len(rescued)):
            for i in rescued:
                sched.results[i] = tasks[i].run_fallback()


# --------------------------------------------------------------------- #
# Process-global coordinator
# --------------------------------------------------------------------- #
_coordinator: Coordinator | None = None
_coordinator_lock = threading.Lock()


def get_coordinator() -> Coordinator:
    """The process-global coordinator, binding ``REPRO_EXEC_COORD`` on
    first use, so every executor in the process shares one fleet."""
    global _coordinator
    with _coordinator_lock:
        if _coordinator is None or _coordinator.closed:
            _coordinator = Coordinator()
        return _coordinator


def shutdown_coordinator() -> None:
    """Close the global coordinator (workers see ``shutdown`` frames)."""
    global _coordinator
    with _coordinator_lock:
        coordinator, _coordinator = _coordinator, None
    if coordinator is not None:
        coordinator.close()


atexit.register(shutdown_coordinator)
