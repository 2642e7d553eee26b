"""Trace propagation between the coordinator and its workers.

A worker process's spans would die with it; this module brings them
home.  The submitting side captures an :func:`capture_obs_context` tuple
(run id + whether a trace is active) that travels inside every task
frame.  The worker wraps task execution in :class:`WorkerSpanCapture`,
which scopes the run id onto its logs and opens a *detached* trace root;
the finished subtree serialises into the result frame and the parent
grafts it back with :func:`repro.obs.trace.graft`, so ``last_trace()``
shows one tree spanning coordinator -> worker -> shard.

The frames themselves are authenticated by :mod:`repro.exec.net`; a
span tree that does not graft is counted as malformed and dropped, never
allowed to fail a task.
"""

from __future__ import annotations

import importlib

from repro.obs import logs
from repro.obs.metrics import get_registry

# The package re-exports the trace() *function* as `repro.obs.trace`,
# shadowing the submodule on attribute imports; resolve the module by
# its canonical name instead.
trace = importlib.import_module("repro.obs.trace")

__all__ = [
    "ensure_obs_metrics",
    "capture_obs_context",
    "WorkerSpanCapture",
]


def ensure_obs_metrics():
    """Register (get-or-create) the trace plane's own metric families.

    Called lazily by the coordinator and eagerly by ``repro serve`` so
    the families are scrapeable before the first pooled submit.
    """
    reg = get_registry()
    return {
        "grafts": reg.counter(
            "repro_obs_remote_spans_total",
            "remote span subtrees grafted into the submitting trace",
            labelnames=("engine",),
        ),
        "malformed": reg.counter(
            "repro_obs_telemetry_malformed_total",
            "worker frames or span trees discarded as malformed (never "
            "fail a task)",
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
