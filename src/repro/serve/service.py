"""The scoring engine: bounded queue, batching workers, deadlines, drain.

Separated from the HTTP surface so every availability property is testable
without sockets:

* **Backpressure** — a fixed-capacity queue (a deque under the service's
  one lock); a full queue rejects with
  :class:`~repro.serve.protocol.OverloadedError` (HTTP 429) at submit
  time.  Once a job is accepted it is *never* dropped: it either completes
  or is answered with a typed error.
* **Batching, work-conserving** — :meth:`ScoringService.submit_many`
  enqueues a ``/v1/score:batch`` body's members in one critical section,
  and a worker pops its first job *and every queued job the batch budgets
  admit* (:class:`~repro.serve.batch.BatchPolicy`) in one critical
  section, then scores at once.  A batch forms from one body, or from
  jobs that queued while the workers were busy — never from sleeping: no
  stage waits for work that is not known to be coming.  The node budget
  is the only size rule, and ``batchable: false`` requests are scored
  alone; every pass is one graph to the model manager, where a GCN
  scores it with one whole-graph pass.  Batched
  results are bit-identical to solo scoring at float64 and a failed
  batched pass is rescued member-by-member, so batching changes latency
  shape only, never answers.
* **Deadlines** — each job carries an absolute monotonic deadline.  The
  submitting thread waits at most that long; a job whose deadline passes
  while still queued is cancelled (the worker skips it) and the caller
  gets :class:`~repro.serve.protocol.DeadlineExceededError` (HTTP 504)
  instead of hanging.
* **Crash isolation** — a worker wraps each batch; an exception fails
  those jobs only.  Even a ``BaseException`` escaping (thread death)
  fails the in-hand jobs and the pool respawns the thread before the
  next submit.
* **Drain** — ``drain()`` stops admissions, waits for the queue plus
  in-flight work to finish, then stops the workers; SIGTERM handling in
  :mod:`~repro.serve.http` builds on it.

Queue-depth and in-flight gauges count **netlists, not batches** — a
worker holding a 12-request batch reports 12 in flight — so ``/metrics``
dashboards stay comparable with the pre-batching era.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.obs import logs
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import ScoreRequest
from repro.serve.batch import BatchPolicy, merge_graphs
from repro.serve.config import ServeConfig
from repro.serve.models import ModelManager
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)

__all__ = ["Job", "ScoringService"]

_log = logs.get_logger("serve")

#: request lifecycle events mirrored 1:1 into the legacy ``stats()`` keys
_STAT_EVENTS = (
    "accepted",
    "completed",
    "failed",
    "degraded",
    "rejected_overload",
    "rejected_admission",
    "rejected_draining",
    "expired",
)

_PENDING, _RUNNING, _DONE, _FAILED, _CANCELLED = (
    "pending",
    "running",
    "done",
    "failed",
    "cancelled",
)


class Job:
    """One accepted scoring request moving through the queue.

    State machine: ``pending -> running -> done|failed`` on the worker
    side, ``pending -> cancelled`` on the submitter side (deadline).  The
    transitions are lock-guarded so the worker and the waiting submitter
    cannot both claim the job.
    """

    def __init__(
        self,
        request: ScoreRequest,
        deadline: float,
        batchable: bool = False,
        enqueued_at: float = 0.0,
    ) -> None:
        self.request = request
        self.deadline = deadline  #: absolute, on the service clock
        self.batchable = batchable  #: may enter the coalescing lane
        self.enqueued_at = enqueued_at  #: submit time, on the service clock
        self.queue_wait = 0.0  #: seconds from submit to scoring start
        self.result = None
        self.info: dict = {}
        self.error: BaseException | None = None
        self._state = _PENDING
        self._lock = threading.Lock()
        self._finished = threading.Event()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def try_start(self, now: float) -> bool:
        """Worker-side claim; False if cancelled or already past deadline."""
        with self._lock:
            if self._state != _PENDING or now >= self.deadline:
                return False
            self._state = _RUNNING
            return True

    def cancel(self) -> bool:
        """Submitter-side claim after a deadline; False if a worker won."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
        self._finished.set()
        return True

    def finish(self, result, info: dict) -> None:
        with self._lock:
            self._state = _DONE
            self.result = result
            self.info = info
        self._finished.set()

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            self._state = _FAILED
            self.error = exc
        self._finished.set()

    def wait(self, timeout: float | None) -> bool:
        return self._finished.wait(timeout)


class ScoringService:
    """N worker threads over a bounded queue, fronting a ModelManager."""

    def __init__(
        self,
        manager: ModelManager,
        config: ServeConfig | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.manager = manager
        self.config = config or ServeConfig()
        self._clock = clock
        self._sleep = sleep
        self._stop = threading.Event()
        self._draining = threading.Event()
        # One lock over the queue, the depths and the counters, so a
        # snapshot reads them consistently; two conditions on it.
        self._lock = threading.Lock()
        self._queue: deque[Job] = deque()
        self._in_flight = 0
        self._work = threading.Condition(self._lock)  #: queue non-empty, or stop
        self._idle = threading.Condition(self._lock)  #: nothing queued or claimed
        self.registry = registry if registry is not None else MetricsRegistry()
        requests = self.registry.counter(
            "repro_serve_requests_total",
            "scoring requests by lifecycle event",
            labelnames=("event",),
        )
        self._stat_counters = {
            event: requests.labels(event) for event in _STAT_EVENTS
        }
        self._worker_restarts = self.registry.counter(
            "repro_serve_worker_restarts_total",
            "worker threads respawned after dying",
        )
        self._batch_size = self.registry.histogram(
            "repro_serve_batch_size",
            "netlists per coalesced scoring pass (1 = solo)",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._batch_linger = self.registry.histogram(
            "repro_serve_batch_linger_seconds",
            "submit-to-scoring-start wait per netlist",
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
        )
        self._batch_fallbacks = self.registry.counter(
            "repro_serve_batch_fallbacks_total",
            "batches rescued member-by-member after a batched pass failed",
        )
        self.registry.gauge(
            "repro_serve_queue_depth", "netlists waiting in the scoring queue"
        ).set_function(self.queue_depth)
        self.registry.gauge(
            "repro_serve_in_flight",
            "netlists claimed by workers (batch members count individually)",
        ).set_function(self.in_flight)
        self.registry.gauge(
            "repro_serve_workers_alive", "live worker threads"
        ).set_function(self.workers_alive)
        self._workers: list[threading.Thread] = []
        for i in range(self.config.workers):
            self._workers.append(self._spawn(i))

    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_main, name=f"score-worker-{index}", daemon=True
        )
        thread.start()
        return thread

    def ensure_workers(self) -> int:
        """Respawn any dead worker thread; returns the number respawned.

        Called on every submit and health probe, so a worker killed by a
        stray ``BaseException`` is replaced before it costs throughput.
        """
        respawned = 0
        with self._lock:
            if self._stop.is_set():
                return 0
            for i, thread in enumerate(self._workers):
                if not thread.is_alive():
                    self._workers[i] = self._spawn(i)
                    self._worker_restarts.inc()
                    respawned += 1
        return respawned

    def workers_alive(self) -> int:
        with self._lock:
            return sum(1 for t in self._workers if t.is_alive())

    # ------------------------------------------------------------------ #
    def _replace_worker(self, dying: threading.Thread) -> None:
        """Self-heal: a dying worker spawns its replacement before unwinding.

        ``ensure_workers`` alone is racy — a thread mid-unwind still
        reports ``is_alive()``, so a submit landing in that window would
        see a full roster and strand its job.
        """
        with self._lock:
            if self._stop.is_set():
                return
            for i, thread in enumerate(self._workers):
                if thread is dying:
                    self._workers[i] = self._spawn(i)
                    self._worker_restarts.inc()
                    break

    def _take(self) -> list[Job] | None:
        """Pop the next job and every queued job its batch admits, at once.

        One critical section: the members of a body enqueued by
        :meth:`submit_many` are therefore taken together, and so is
        whatever queued while every worker was busy.  The first job that
        does not fit (unbatchable, or over a budget) stays at the head for
        the next pass, and only jobs whose graph the pass already scores
        join from behind it — they add no node.  Returns None once the
        service is stopped.
        """
        with self._work:
            while not self._stop.is_set() and not self._queue:
                self._work.wait()
            if self._stop.is_set():
                return None  # a hard stop abandons what is still queued
            batch = [self._queue.popleft()]
            if batch[0].batchable:
                policy = BatchPolicy(self.config)
                policy.add(batch[0])
                waiting: deque[Job] = deque()
                for job in self._queue:
                    if job.batchable and policy.admits(job) and (
                        not waiting or policy.holds(job)
                    ):
                        policy.add(job)
                        batch.append(job)
                    else:
                        waiting.append(job)
                self._queue = waiting
            self._in_flight += len(batch)
            if self._queue:
                self._work.notify()  # what is left is another worker's
        return batch

    def _worker_main(self) -> None:
        while (batch := self._take()) is not None:
            try:
                self._run_batch(batch)
            except BaseException as exc:
                # Thread-killing exceptions (injected SystemExit,
                # MemoryError) must still answer every claimed job before
                # the thread dies and spawns its own replacement.
                for member in batch:
                    if member.state in (_RUNNING, _PENDING):
                        member.fail(exc)
                self._replace_worker(threading.current_thread())
                raise
            finally:
                with self._idle:
                    self._in_flight -= len(batch)
                    if self._in_flight == 0 and not self._queue:
                        self._idle.notify_all()

    def _run_batch(self, jobs: list[Job]) -> None:
        """Score one coalesced batch (or a solo job, ``len == 1``)."""
        now = self._clock()
        live = []
        for job in jobs:
            if job.try_start(now):
                live.append(job)
            elif job.cancel():
                # Sat in the queue past its deadline with no waiter left.
                with self._lock:
                    self._stat_counters["expired"].inc()
        if not live:
            return
        self._batch_size.observe(len(live))
        for job in live:
            job.queue_wait = max(0.0, now - job.enqueued_at)
            self._batch_linger.observe(job.queue_wait)
        # Members of one admission lane share its graph: score each
        # distinct graph once, merged only if there are several.
        lanes: dict[int, list[Job]] = {}
        for job in live:
            lanes.setdefault(id(job.request.graph), []).append(job)
        if len(lanes) == 1:
            self._score_graph(live, batched=len(live) > 1)
            return
        started = time.perf_counter()
        merged = merge_graphs([jobs[0].request.graph for jobs in lanes.values()])
        starts = {key: rows.start for key, rows in zip(lanes, merged.slices)}
        merge_s = time.perf_counter() - started
        try:
            labels, info = self._predict(
                merged.graph, max(job.request.debug_sleep_s for job in live)
            )
            labels = np.asarray(labels)
        except Exception:
            # One poisoned member must not fail its batch peers: rescue
            # each lane's graph in a pass of its own (bit-identical by
            # construction, so the answers cannot change — only cost).
            self._batch_fallbacks.inc()
            for jobs in lanes.values():
                self._score_graph(jobs, batched=False)
            return
        self._answer(
            live,
            [labels[starts[id(job.request.graph)]:][job.request.rows] for job in live],
            info,
            merge_s,
        )

    def _predict(self, graph, debug_sleep_s: float) -> tuple[object, dict]:
        """``manager.predict`` with its wall time as ``info["stages"]``
        (the debug sleep stands in for slow scoring, so it counts)."""
        started = time.perf_counter()
        if debug_sleep_s:
            self._sleep(debug_sleep_s)
        labels, info = self.manager.predict(graph)
        return labels, dict(info, stages={"predict": time.perf_counter() - started})

    def _score_graph(self, jobs: list[Job], batched: bool) -> None:
        """Score the graph ``jobs`` share in one pass and answer each from
        its rows; ``batched`` reports the pass as a batch of them all."""
        try:
            labels, info = self._predict(
                jobs[0].request.graph, max(job.request.debug_sleep_s for job in jobs)
            )
            labels = np.asarray(labels)
        except Exception as exc:
            with self._lock:
                self._stat_counters["failed"].inc(len(jobs))
            for job in jobs:
                job.fail(exc)
            return
        parts = [labels[job.request.rows] for job in jobs]
        self._answer(jobs, parts, info, 0.0 if batched else None)

    def _answer(self, jobs: list[Job], parts: list, info: dict, merge_s: float | None) -> None:
        """Answer ``jobs`` from one pass, each with its ``parts``: as a
        batch of them all that took ``merge_s`` to assemble, or (None) as
        a pass of their own."""
        with self._lock:
            self._stat_counters["completed"].inc(len(jobs))
            if info.get("degraded"):
                self._stat_counters["degraded"].inc(len(jobs))
        for job, part in zip(jobs, parts):
            if merge_s is None:
                stages = {"queue_wait": job.queue_wait, **info["stages"]}
                job.finish(part, dict(info, stages=stages))
            else:
                stages = {"queue_wait": job.queue_wait, "merge": merge_s, **info["stages"]}
                job.finish(part, dict(info, batched=True, batch_size=len(jobs), stages=stages))

    def note_admission_reject(self) -> None:
        """Count a request turned away at the HTTP admission gate."""
        with self._lock:
            self._stat_counters["rejected_admission"].inc()

    # ------------------------------------------------------------------ #
    def submit(self, request: ScoreRequest) -> Job:
        """Admit ``request`` to the queue or raise 429/503 typed errors."""
        [outcome] = self.submit_many([request])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def submit_many(
        self, requests: list[ScoreRequest]
    ) -> "list[Job | BaseException]":
        """Enqueue ``requests`` in one critical section, in order.

        Returns one entry per request: its :class:`Job`, or the typed
        error that refused it (429 once capacity runs out, 503 while
        draining) — a body larger than the room left loses only its tail.
        Because no worker can run between two members, the first worker
        to wake finds the whole set queued and coalesces it in one pass.
        """
        self.ensure_workers()
        now = self._clock()
        outcomes: list[Job | BaseException] = []
        with self._work:
            for request in requests:
                if self._draining.is_set() or self._stop.is_set():
                    self._stat_counters["rejected_draining"].inc()
                    outcomes.append(
                        DrainingError("server is draining; not accepting new work")
                    )
                elif len(self._queue) >= self.config.queue_capacity:
                    self._stat_counters["rejected_overload"].inc()
                    outcomes.append(
                        OverloadedError(
                            f"work queue full ({self.config.queue_capacity} jobs)",
                            retry_after_s=self.config.retry_after_s,
                        )
                    )
                else:
                    job = Job(
                        request,
                        deadline=now + request.deadline_s,
                        batchable=request.batchable,
                        enqueued_at=now,
                    )
                    self._queue.append(job)
                    self._stat_counters["accepted"].inc()
                    outcomes.append(job)
            self._work.notify()  # one worker: it takes all its batch admits
        return outcomes

    def score(self, request: ScoreRequest) -> tuple[object, dict]:
        """Submit and wait: returns ``(labels, info)`` or raises typed errors.

        The wait is bounded by the request deadline; on expiry the queued
        job is cancelled and :class:`DeadlineExceededError` raised.  A job
        a worker already started cannot be cancelled — its (too late)
        result is discarded but the 504 is still returned on time.
        """
        return self.wait_for(self.submit(request))

    def wait_for(self, job: Job) -> tuple[object, dict]:
        """Wait out one submitted job; returns ``(labels, info)`` or raises.

        Split from :meth:`score` so ``/v1/score:batch`` can
        :meth:`submit_many` first and only then wait on each in turn.
        """
        request = job.request
        remaining = job.deadline - self._clock()
        if not job.wait(timeout=max(0.0, remaining)):
            job.cancel()
            with self._lock:
                self._stat_counters["expired"].inc()
            raise DeadlineExceededError(
                f"deadline of {request.deadline_s:.3f}s expired for "
                f"design {request.design!r}"
            )
        if job.error is not None:
            raise job.error
        if job.state == _CANCELLED:  # worker-side expiry beat our wait
            raise DeadlineExceededError(
                f"deadline of {request.deadline_s:.3f}s expired for "
                f"design {request.design!r}"
            )
        return job.result, job.info

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> dict:
        """Legacy dict view of the lifecycle counters (now registry-backed)."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        stats = {
            event: int(counter.value)
            for event, counter in self._stat_counters.items()
        }
        stats["worker_restarts"] = int(self._worker_restarts.value)
        return stats

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> dict:
        """Consistent point-in-time view: counters and depths under one lock.

        Every mutation site increments its counter and moves the job
        between the queue and ``_in_flight`` while holding ``self._lock``,
        so within one snapshot ``completed + failed + expired <= accepted``
        and, once drained, ``accepted == completed + failed + expired``.
        """
        with self._lock:
            stats = self._stats_locked()
            stats["queue_depth"] = len(self._queue)
            stats["in_flight"] = self._in_flight
            stats["workers_alive"] = sum(1 for t in self._workers if t.is_alive())
            stats["draining"] = self._draining.is_set()
        return stats

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions, finish queued + in-flight work, stop workers.

        Returns True if everything completed within ``timeout``.  Already
        idempotent: repeated calls just re-wait.
        """
        self._draining.set()
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            # A worker lost to a thread-killing exception mid-drain would
            # strand the queue; respawn outside the condition's lock.
            self.ensure_workers()
            with self._idle:
                if self._in_flight == 0 and not self._queue:
                    break
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                wait = 0.1 if remaining is None else min(0.1, remaining)
                self._idle.wait(timeout=wait)
        self.stop()
        return True

    def stop(self) -> None:
        """Hard-stop the workers (drain() calls this once idle)."""
        self._stop.set()
        with self._work:
            self._work.notify_all()
        for thread in self._workers:
            thread.join(timeout=2.0)
