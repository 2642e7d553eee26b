"""Unified observability layer: metrics, structured logs, trace spans,
run manifests.

Four pieces, all stdlib-only:

* :mod:`repro.obs.metrics` — thread-safe Counter/Gauge/Histogram registry
  with Prometheus-text and JSON renderers (``GET /metrics`` serves it);
* :mod:`repro.obs.logs` — JSON-lines structured logging with run/request
  ids propagated via contextvars (``--log-level/--log-format/--log-file``);
* :mod:`repro.obs.trace` — nested wall/CPU span trees, near-free when no
  trace is active;
* :mod:`repro.obs.manifest` — atomic ``results/<run>/manifest.json``
  records (config, git SHA, seed, dataset fingerprint, metric snapshot).

:mod:`repro.obs.remote` carries trace context into the execution
fabric's worker processes and grafts their spans back (see
``docs/architecture.md``).

Speed is not measured here: ``perf/`` + ``BENCHMARK.json`` are the one
benchmark, and ``python -m cProfile -m repro <cmd>`` is the profiler.

Metric naming convention: ``repro_<subsystem>_<name>_<unit>``.
"""

from repro.obs.logs import configure as configure_logging
from repro.obs.logs import get_logger, request_context, run_context
from repro.obs.manifest import RunRecorder, dataset_fingerprint, git_sha
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    Span,
    annotate,
    current_span,
    format_tree,
    graft,
    last_trace,
    span,
    trace,
)

__all__ = [
    "configure_logging",
    "get_logger",
    "run_context",
    "request_context",
    "RunRecorder",
    "dataset_fingerprint",
    "git_sha",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "Span",
    "span",
    "trace",
    "annotate",
    "graft",
    "current_span",
    "last_trace",
    "format_tree",
]
