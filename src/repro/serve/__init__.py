"""Online netlist-scoring service (stdlib HTTP, no new dependencies).

The paper's systems claim is that sparse-matrix GCN inference is fast
enough to score million-gate netlists interactively (Section 5, Figure 9);
this package is the layer that makes that claim *operable*: a long-running
daemon that accepts ``.bench`` netlists over HTTP and returns per-node
difficult-to-observe predictions, staying correct and available under
malformed inputs, overload, and model failure — and throughput-scalable
via cross-request batching (many small netlists, one block-diagonal
sparse-matmul pass).

The request path is **work-conserving**: no stage waits for work that is
not known to be coming, and no lane idles while a body still has members
to admit.  A ``/v1/score:batch`` body is admitted in strides on every
idle admission worker, its members are enqueued in one critical section,
and a scoring worker takes everything queued that fits one batch and
scores at once — batches form from one body or from a standing queue,
never from lingering.  ``repro_stage_seconds{stage=...}`` (echoed as
``stages_ms``) says where each call's time went.

Structure:

* :mod:`~repro.serve.config` — :class:`ServeConfig`, validated limits;
* :mod:`~repro.serve.protocol` — error-code mapping (typed exception →
  HTTP status + structured JSON body with the CLI exit-code taxonomy);
* :mod:`~repro.serve.admission` — request gate: size/schema checks,
  ``.bench`` parsing, structural validation, graph construction, and the
  :class:`AdmissionPool` of forked workers ``repro serve`` runs them in
  (a batch body split over the idle ones; the graph framed as CSR alone);
* :mod:`~repro.serve.batch` — the coalescing layer: block-diagonal
  merging with bit-identical per-request row slices, plus the
  request/node budgets of one pass;
* :mod:`~repro.serve.models` — :class:`ModelManager`: hot reload with
  validation + rollback, per-model circuit breaker, heuristic degrade,
  shared-memory weight store;
* :mod:`~repro.serve.service` — :class:`ScoringService`: bounded queue
  with atomic batch enqueue, crash-isolated workers that flush on what is
  queued, per-request deadlines, drain;
* :mod:`~repro.serve.http` — the HTTP surface (``/v1/score``,
  ``/v1/score:batch``, the deprecated ``/score`` alias, ``/reload``,
  ``/healthz``, ``/readyz``) and the SIGTERM-draining ``serve()`` runner;
* :mod:`~repro.serve.client` — :class:`ServeClient`, the typed ``/v1``
  client every script/example must use instead of hand-rolled HTTP.
"""

from repro.serve.admission import AdmissionPool, ScoreRequest, admit, admit_batch
from repro.serve.batch import BatchPolicy, MergedBatch, merge_graphs
from repro.serve.client import ServeClient, ServeClientError, ServeScore
from repro.serve.config import ServeConfig
from repro.serve.http import NetlistScoreServer, serve
from repro.serve.models import ModelManager
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    MalformedRequestError,
    OverloadedError,
    PayloadTooLargeError,
    RequestError,
    error_payload,
    exit_code_for,
    status_for,
)
from repro.serve.service import Job, ScoringService

__all__ = [
    "ServeConfig",
    "ScoreRequest",
    "admit",
    "admit_batch",
    "AdmissionPool",
    "BatchPolicy",
    "MergedBatch",
    "merge_graphs",
    "ServeClient",
    "ServeClientError",
    "ServeScore",
    "ModelManager",
    "Job",
    "ScoringService",
    "NetlistScoreServer",
    "serve",
    "RequestError",
    "MalformedRequestError",
    "PayloadTooLargeError",
    "OverloadedError",
    "DeadlineExceededError",
    "DrainingError",
    "error_payload",
    "exit_code_for",
    "status_for",
]
