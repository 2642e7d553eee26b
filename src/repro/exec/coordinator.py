"""The coordinator: a worker registry driving one :class:`TaskScheduler`.

A :class:`Coordinator` keeps connected workers (one reader thread each),
turns their frames into scheduler events and performs the scheduler's
actions.  It decides nothing about recovery itself — every such decision
is :mod:`repro.exec.scheduler`'s.  Its workers are children that
:meth:`Coordinator.spawn_local` forks onto a ``socketpair`` each, running
the one worker loop (:mod:`repro.exec.worker`) on the inherited end; a
private coordinator is the whole ``forkpool`` backend.

A worker is registered when it is forked: its id and process are known
then, so its first frame needs no handshake.  Trust: frames are
authenticated before they are unpickled (:mod:`repro.exec.net`) with a
key only this process and its forks hold.
"""

from __future__ import annotations

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

__all__ = ["Coordinator"]

_log = logs.get_logger("exec.net")

#: how long the driver blocks on worker events between scheduler ticks
_POLL_S = 0.02
#: how long a submit tolerates having no worker to dispatch to (while a
#: lost one is being replaced) before it rescues the rest in-process
_NO_WORKER_GRACE_S = 5.0
_FORK = multiprocessing.get_context("fork")
#: signs socketpair frames; forked workers inherit it, nobody else can
_LOCAL_KEY = os.urandom(32)
#: serialises fork + the parent-side close of the child's socket end, so
#: no other thread's fork can inherit (and pin open) a half-built pair
_fork_lock = threading.Lock()
_local_seq = itertools.count()


class _WorkerConn:
    """One registered worker connection (coordinator side)."""

    def __init__(self, sock, worker_id: str, proc):
        self.sock = sock
        self.id = worker_id
        #: the forked child behind this connection (None for a socket
        #: adopted without one)
        self.proc = proc
        self.send_lock = threading.Lock()
        #: registration counts as hearing from the worker, so a worker
        #: dispatched to before it first ran has a whole heartbeat
        #: timeout to send its first frame
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
            net_mod.send_frame(self.sock, message, _LOCAL_KEY)

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

    Submits are serialized by a lock; heartbeats and replies are read by
    per-connection reader threads at any time.
    """

    #: the backend label of submits served here
    kind = "forkpool"

    def __init__(self):
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

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
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
                worker_id = f"local-{os.getpid()}-{next(_local_seq)}"
                proc = _FORK.Process(
                    target=worker_mod.local_worker_main,
                    args=(theirs, [*inherited, ours], worker_id, _LOCAL_KEY),
                    daemon=True,
                )
                proc.start()
                theirs.close()
                inherited.append(ours)
                started.append((ours, worker_id, proc))
        # Reader threads start only after every fork: a child must not be
        # forked while a sibling's reader holds a lock it would inherit.
        for ours, worker_id, proc in started:
            self._local.append(proc)
            self._adopt(ours, worker_id, proc)
        return missing

    def _adopt(self, sock, worker_id: str, proc=None) -> None:
        """Register the worker on the far end of ``sock`` and serve it
        (``proc``, when it is a child of ours, is killed with the
        connection).  Frames sent before the worker runs wait in the
        socket."""
        conn = _WorkerConn(sock, worker_id, proc)
        with self._workers_lock:
            self._workers[worker_id] = conn
        _log.info(
            "worker registered",
            extra={"worker": worker_id, "pid": proc.pid if proc else None},
        )
        threading.Thread(
            target=self._reader, args=(conn,),
            name="repro-exec-reader", daemon=True,
        ).start()

    def _reader(self, conn: _WorkerConn) -> None:
        """Per-connection thread: route frames until EOF."""
        malformed = remote_mod.ensure_obs_metrics()["malformed"]
        try:
            while True:
                message = net_mod.recv_frame(conn.sock, _LOCAL_KEY)
                if not net_mod.well_formed(
                    message, ("heartbeat", "result", "error")
                ):
                    # Counted and dropped; the scheduler requeues whatever
                    # the frame should have answered.
                    malformed.labels(conn.id).inc()
                elif message[0] == "heartbeat":
                    conn.last_hb = time.monotonic()
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
            conn.alive = False
            with self._workers_lock:
                if self._workers.get(conn.id) is conn:
                    del self._workers[conn.id]
            self._events.put(("gone", conn))
            with contextlib.suppress(OSError):
                conn.sock.close()

    # ------------------------------------------------------------------ #
    def worker_count(self) -> int:
        return len(self.workers())

    def workers(self) -> list[_WorkerConn]:
        with self._workers_lock:
            return [c for c in self._workers.values() if c.alive]

    def close(self) -> None:
        """End every worker."""
        if self.closed:
            return
        self.closed = True
        for conn in self.workers():
            with contextlib.suppress(OSError):
                conn.send("shutdown")
            conn.kill()
        for proc in self._local:  # children whose connection already ended
            proc.kill()
            proc.join()

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
        computed through their parent-side fallbacks — bit-identical to
        the in-process oracle by construction.
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
                hb_timeout=net_mod.HB_TIMEOUT_S,
                grace=_NO_WORKER_GRACE_S,
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
                            self._rescue(tasks, engine, sched, *args)
                        else:
                            return args[0]
                    self._feed(sched, engine)
            finally:
                self.last_submit_failures = sched.failed_attempts

    def _feed(self, sched: TaskScheduler, engine: str) -> None:
        """Block briefly on worker events and hand them to the scheduler."""
        try:
            event = self._events.get(timeout=_POLL_S)
        except queue.Empty:
            return
        while True:
            kind, conn, *fields = event
            if kind == "gone":
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
                    value = net_mod.unseal(crc, payload, sched.keys[index])
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

    def _rescue(self, tasks, engine, sched, rescued, last_exc):
        # Tasks without an ``fn`` are parent-side by design, not failures.
        gave_up = [tasks[i] for i in rescued if tasks[i].fn is not None]
        if gave_up:
            warnings.warn(
                f"gave up on {len(gave_up)} task(s) in the pool (last error "
                f"{type(last_exc).__name__}: {last_exc}); "
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
