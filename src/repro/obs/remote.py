"""Cross-host telemetry plane: trace propagation + telemetry forwarding.

Everything a worker process observes — spans, metric increments,
structured log lines — used to die with that worker.  This module is the
plumbing that brings it home:

* **Trace-context propagation.**  The submitting side captures an
  :func:`capture_obs_context` tuple (run id + whether a trace is active)
  that travels inside every task frame.  The worker wraps task execution
  in :class:`WorkerSpanCapture`, which scopes the run id onto its logs
  and opens a *detached* trace root; the finished subtree serialises into
  the result frame and the parent grafts it back with
  :func:`repro.obs.trace.graft`, so ``last_trace()`` shows one tree
  spanning coordinator -> worker -> shard.

* **Telemetry forwarding.**  A :class:`TelemetryForwarder` pairs a
  bounded, never-blocking :class:`TelemetryBuffer` (drop counter, sized
  by ``REPRO_OBS_TELEMETRY_BUFFER``) with a :class:`MetricsDeltaTracker`
  over the worker's live registry.  Batches piggyback on heartbeat
  frames; the coordinator merges metric deltas into per-worker-labelled
  ``repro_fleet_*`` families (:func:`merge_fleet_delta`) and re-emits
  forwarded log records, so ``GET /metrics`` and ``repro exec-info``
  report fleet-wide truth.  A slow coordinator can never block task
  execution: the buffer drops (and counts) rather than waits.

The wire format is plain dicts/tuples of JSON-able values — the frames
themselves are authenticated by :mod:`repro.exec.net`, and a malformed
telemetry batch is counted and dropped, never allowed to fail a task.
Forked local workers and remote ones run the same worker loop, so this
is the one telemetry path.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque

import importlib

from repro.obs import logs
from repro.obs.metrics import MetricsRegistry, get_registry

# The package re-exports the trace() *function* as `repro.obs.trace`,
# shadowing the submodule on attribute imports; resolve the module by
# its canonical name instead.
trace = importlib.import_module("repro.obs.trace")

__all__ = [
    "OBS_BUFFER_ENV",
    "FLEET_PREFIX",
    "ensure_obs_metrics",
    "capture_obs_context",
    "WorkerSpanCapture",
    "MetricsDeltaTracker",
    "TelemetryBuffer",
    "ForwardingLogHandler",
    "TelemetryForwarder",
    "merge_fleet_delta",
    "absorb_telemetry",
]

#: worker-side telemetry buffer capacity (records); the buffer NEVER
#: blocks — beyond capacity it drops newest-first and counts the drops
OBS_BUFFER_ENV = "REPRO_OBS_TELEMETRY_BUFFER"
DEFAULT_BUFFER_CAPACITY = 256

#: forwarded metric families are mirrored under this prefix with a
#: leading ``worker`` label, so they can never collide with the
#: coordinator's locally registered families of the same name
FLEET_PREFIX = "repro_fleet_"

_log = logs.get_logger("obs.remote")


def ensure_obs_metrics(registry: MetricsRegistry | None = None):
    """Register (get-or-create) the telemetry plane's own metric families.

    Called lazily by the forwarding path and eagerly by ``repro serve``
    so the families are scrapeable before the first remote submit.
    """
    reg = registry or get_registry()
    return {
        "dropped": reg.counter(
            "repro_obs_telemetry_dropped_total",
            "telemetry records dropped worker-side (bounded buffer full)",
            labelnames=("worker",),
        ),
        "batches": reg.counter(
            "repro_obs_telemetry_batches_total",
            "telemetry batches absorbed by the coordinator",
            labelnames=("worker",),
        ),
        "grafts": reg.counter(
            "repro_obs_remote_spans_total",
            "remote span subtrees grafted into the submitting trace",
            labelnames=("engine",),
        ),
        "malformed": reg.counter(
            "repro_obs_telemetry_malformed_total",
            "telemetry batches discarded as malformed (never fail a task)",
            labelnames=("worker",),
        ),
    }


# --------------------------------------------------------------------- #
# Submitting side: context capture
# --------------------------------------------------------------------- #
def capture_obs_context() -> tuple | None:
    """The trace context a task frame carries: ``(run_id, tracing)``.

    ``None`` when the submitting process has neither a run id nor an
    active trace — workers then skip capture entirely, keeping the
    un-observed fast path free.
    """
    run_id = logs.get_run_id()
    tracing = trace.current_span() is not None
    if run_id is None and not tracing:
        return None
    return (run_id, tracing)


# --------------------------------------------------------------------- #
# Worker side: span capture under the propagated context
# --------------------------------------------------------------------- #
class WorkerSpanCapture:
    """Wrap one remote task in the submitting run's trace context.

    Scopes the propagated run id onto the worker's log lines and, when
    the submitter is tracing, records the task under a detached root
    whose finished subtree is available as :attr:`span_dict` — the blob
    that travels home inside the result frame.  A no-op (and near-free)
    when ``obs_ctx`` is ``None``.
    """

    def __init__(self, obs_ctx: tuple | None, name: str, **attrs):
        self._ctx = obs_ctx
        self._name = name
        self._attrs = attrs
        self._run_token = None
        self._trace_ctx = None
        self._span = None
        self.span_dict: dict | None = None

    def __enter__(self) -> "WorkerSpanCapture":
        if self._ctx is None:
            return self
        run_id, tracing = self._ctx[0], bool(self._ctx[1])
        if run_id:
            self._run_token = logs.run_id_var.set(run_id)
        if tracing:
            self._trace_ctx = trace.trace(
                self._name, register_last=False, **self._attrs
            )
            self._span = self._trace_ctx.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._trace_ctx is not None:
            if exc is not None and self._span is not None:
                self._span.attrs = {**self._span.attrs, "error": repr(exc)}
            self._trace_ctx.__exit__(exc_type, exc, tb)
            if self._span is not None:
                self.span_dict = self._span.to_dict()
        if self._run_token is not None:
            logs.run_id_var.reset(self._run_token)


# --------------------------------------------------------------------- #
# Metric deltas
# --------------------------------------------------------------------- #
class MetricsDeltaTracker:
    """Changes in a registry's state since the previous ``delta()`` call.

    Counters and histograms forward *deltas* (mergeable by addition),
    gauges forward their latest absolute value.  Families already under
    :data:`FLEET_PREFIX` are skipped so a coordinator that is also a
    worker (loopback fleets) can never amplify its own mirrors.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self._registry = registry
        self._last: dict = {}
        self._lock = threading.Lock()
        self.delta()  # establish the baseline at attach time

    def _collect(self) -> dict:
        reg = self._registry or get_registry()
        out: dict = {}
        for metric in reg.collect():
            if metric.name.startswith(FLEET_PREFIX):
                continue
            out[metric.name] = (
                metric.kind,
                metric.help,
                tuple(metric.labelnames),
                tuple(getattr(metric, "buckets", ()) or ()),
                metric._samples(),
            )
        return out

    def delta(self) -> dict | None:
        """Changed families since last call, or ``None`` when quiet."""
        with self._lock:
            current = self._collect()
            previous, self._last = self._last, current
        out: dict = {}
        for name, (kind, help_, labelnames, buckets, samples) in current.items():
            prev_samples = dict(previous.get(name, (None, None, None, None, []))[4])
            changed = []
            for labelvalues, state in samples:
                before = prev_samples.get(labelvalues)
                if kind == "counter":
                    d = state - (before or 0.0)
                    if d:
                        changed.append((labelvalues, d))
                elif kind == "gauge":
                    if before is None or state != before:
                        changed.append((labelvalues, state))
                else:  # histogram: (counts, sum)
                    counts, total = state
                    if before is None:
                        d_counts, d_sum = counts, total
                    else:
                        d_counts = [a - b for a, b in zip(counts, before[0])]
                        d_sum = total - before[1]
                    if any(d_counts):
                        changed.append((labelvalues, (d_counts, d_sum)))
            if changed:
                out[name] = {
                    "kind": kind,
                    "help": help_,
                    "labelnames": list(labelnames),
                    "buckets": list(buckets),
                    "samples": [[list(lv), state] for lv, state in changed],
                }
        return out or None


def merge_fleet_delta(
    worker_id: str, delta: dict, registry: MetricsRegistry | None = None
) -> int:
    """Merge a worker's metric delta into per-worker ``repro_fleet_*`` families.

    Returns the number of samples merged.  Families that cannot be
    registered compatibly are counted as malformed and skipped — fleet
    aggregation must never raise into the heartbeat path.
    """
    reg = registry or get_registry()
    merged = 0
    for name, fam in delta.items():
        fleet_name = FLEET_PREFIX + name.removeprefix("repro_")
        labelnames = ("worker", *fam.get("labelnames", ()))
        kind = fam.get("kind")
        try:
            if kind == "counter":
                metric = reg.counter(fleet_name, fam.get("help", ""), labelnames)
                for labelvalues, value in fam["samples"]:
                    metric.labels(worker_id, *labelvalues).inc(float(value))
                    merged += 1
            elif kind == "gauge":
                metric = reg.gauge(fleet_name, fam.get("help", ""), labelnames)
                for labelvalues, value in fam["samples"]:
                    metric.labels(worker_id, *labelvalues).set(float(value))
                    merged += 1
            elif kind == "histogram":
                metric = reg.histogram(
                    fleet_name,
                    fam.get("help", ""),
                    labelnames,
                    buckets=tuple(fam["buckets"]),
                )
                for labelvalues, (d_counts, d_sum) in fam["samples"]:
                    child = metric.labels(worker_id, *labelvalues)
                    with child._lock:
                        for i, d in enumerate(d_counts):
                            child._counts[i] += int(d)
                        child._sum += float(d_sum)
                    merged += 1
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        except (ValueError, TypeError, KeyError, IndexError):
            ensure_obs_metrics(reg)["malformed"].labels(worker_id).inc()
    return merged


# --------------------------------------------------------------------- #
# Bounded buffering + log forwarding
# --------------------------------------------------------------------- #
class TelemetryBuffer:
    """Bounded, never-blocking record buffer with a drop counter.

    ``offer`` is safe from any thread and returns immediately: beyond
    ``capacity`` the new record is dropped and counted, so a slow (or
    partitioned) coordinator back-pressures telemetry, never the task.
    """

    def __init__(self, capacity: int | None = None, worker_id: str = "worker"):
        if capacity is None:
            raw = os.environ.get(OBS_BUFFER_ENV, "").strip()
            capacity = int(raw) if raw else DEFAULT_BUFFER_CAPACITY
        self.capacity = max(1, int(capacity))
        self.worker_id = worker_id
        self._records: deque = deque()
        self._lock = threading.Lock()
        self.dropped = 0
        self._dropped_metric = None

    def offer(self, record) -> bool:
        with self._lock:
            if len(self._records) >= self.capacity:
                self.dropped += 1
                dropped_metric = self._dropped_metric
            else:
                self._records.append(record)
                return True
        # Count the drop outside the buffer lock (metric has its own).
        if dropped_metric is None:
            try:
                dropped_metric = ensure_obs_metrics()["dropped"].labels(
                    self.worker_id
                )
                self._dropped_metric = dropped_metric
            except ValueError:  # pragma: no cover - conflicting registry
                return False
        dropped_metric.inc()
        return False

    def drain(self) -> list:
        with self._lock:
            records = list(self._records)
            self._records.clear()
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class ForwardingLogHandler(logging.Handler):
    """Capture ``repro.*`` log records as JSON-able dicts into a buffer.

    Re-emitted fleet records (marked ``fleet_worker``) are skipped so a
    loopback fleet — coordinator and workers in one process — can never
    forward its own forwards.
    """

    def __init__(self, buffer: TelemetryBuffer, level: int = logging.INFO):
        super().__init__(level=level)
        self.buffer = buffer
        self._formatter = logs.JsonFormatter()
        self.addFilter(logs._ContextFilter())

    def emit(self, record: logging.LogRecord) -> None:
        if getattr(record, "fleet_worker", None) is not None:
            return
        try:
            payload = json.loads(self._formatter.format(record))
        except Exception:  # malformed extras must never break logging
            return
        self.buffer.offer(payload)


def _reemit_log(worker_id: str, payload: dict) -> None:
    """Re-emit one forwarded log record under the coordinator's logger."""
    if not isinstance(payload, dict):
        raise TypeError("forwarded log record must be a dict")
    component = str(payload.get("component", "worker"))
    level = getattr(logging, str(payload.get("level", "info")).upper(), logging.INFO)
    extra = {
        key: value
        for key, value in payload.items()
        if key not in ("ts", "level", "component", "message")
    }
    extra["fleet_worker"] = worker_id
    logs.get_logger(f"fleet.{component}").log(
        level, str(payload.get("message", "")), extra=extra
    )


class TelemetryForwarder:
    """Worker-side bundle: log capture + metric deltas, batched for send.

    ``attach()`` hooks the buffer onto the ``repro`` logger namespace and
    baselines the metric tracker; each :meth:`collect` call drains one
    batch to piggyback on a heartbeat frame (``None`` when quiet).
    """

    def __init__(
        self,
        worker_id: str,
        capacity: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.worker_id = worker_id
        self.buffer = TelemetryBuffer(capacity, worker_id=worker_id)
        self._handler = ForwardingLogHandler(self.buffer)
        self._tracker = MetricsDeltaTracker(registry)
        self._attached = False

    def attach(self) -> "TelemetryForwarder":
        if not self._attached:
            logging.getLogger("repro").addHandler(self._handler)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            logging.getLogger("repro").removeHandler(self._handler)
            self._attached = False

    def __enter__(self) -> "TelemetryForwarder":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def collect(self) -> dict | None:
        """One heartbeat batch: drained log records + metric delta."""
        records = self.buffer.drain()
        delta = self._tracker.delta()
        if not records and not delta:
            return None
        batch: dict = {"worker": self.worker_id}
        if records:
            batch["logs"] = records
        if delta:
            batch["metrics"] = delta
        return batch


def absorb_telemetry(
    worker_id: str, batch, registry: MetricsRegistry | None = None
) -> None:
    """Coordinator side: merge one forwarded batch into the live plane.

    Defensive by contract — a malformed batch is counted and dropped; it
    must never propagate an exception into the heartbeat reader thread.
    """
    if not batch:
        return
    metrics = ensure_obs_metrics(registry)
    metrics["batches"].labels(worker_id).inc()
    try:
        delta = batch.get("metrics")
        if delta:
            merge_fleet_delta(worker_id, delta, registry)
        for payload in batch.get("logs") or ():
            _reemit_log(worker_id, payload)
    except Exception:
        metrics["malformed"].labels(worker_id).inc()
        _log.warning(
            "discarded malformed telemetry batch", extra={"worker": worker_id}
        )
