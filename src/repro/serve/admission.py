"""Admission control: everything that happens before work is queued.

A request only reaches the model if it survives, in order: a byte-size
gate, JSON decoding, schema validation, ``.bench`` parsing, a node-count
gate, structural validation (:func:`~repro.circuit.validate.
validate_netlist` in strict mode), and graph construction.  Each failure
raises a typed error that :mod:`~repro.serve.protocol` maps to a 4xx —
malformed input must never cost a worker thread or crash the daemon.

The request envelope is the ``/v1/score`` contract: ``netlist`` plus the optional
``request_id`` (echoed in the response and in error bodies),
``deadline_ms``, ``batchable`` (opt-out hint for the coalescing lane),
``design``, ``return_predictions`` and — debug servers only —
``debug_sleep_ms``.  ``admit_batch`` validates the ``/v1/score:batch``
envelope (``{"requests": [...]}``) item by item, returning per-item
requests *or* typed errors so one malformed netlist cannot reject its
neighbours.

Process model.  Admission is pure Python (linear-time parsing, SCOAP
attribute construction), so under ``repro serve`` it runs off the
daemon's interpreter lock: :class:`AdmissionPool` holds
``ServeConfig.workers`` forked admission workers, a handler thread hands
its raw body to an idle one and sleeps on a socket until the finished
:class:`ScoreRequest` comes back, both CSR caches built.  The worker runs
:func:`run_admission` — the same function an embedded
:class:`~repro.serve.http.NetlistScoreServer` without a pool calls in the
handler thread, and the one the execution fabric's ladder re-runs in the
handler thread when a worker is killed or hangs.  A typed admission
failure (400 / 413 / 422) is that function's *return value*: the ladder
sees a finished task, so bad input is never retried and never counts
against a worker.  Handler threads are spawned per connection without
bound — so the HTTP layer holds a slot of the server's ``admission_gate``
semaphore (capacity ``ServeConfig.admission_capacity``) from reading the
body to the end of admission, answering 429 when saturated; waiting for
an idle worker happens inside that slot.  Only model inference is queued.

Split admission.  A ``/v1/score:batch`` body takes one lane blocking
*and every lane idle at that moment*: lane ``i`` of ``k`` runs
``admit_batch(raw, config, part=(i, k))`` — the same envelope checks,
then members ``i::k`` — and the ``(index, outcome)`` lists are merged in
index order, so no lane idles while a body still has members to admit
and the answer does not depend on ``k``.

Shared sweeps, one graph.  The members a lane admits are parsed and
checked one by one, then levelized, given their SCOAP measures and built
into one :class:`~repro.core.graphdata.GraphData` over their
block-diagonal union: each member is its ``rows`` of that graph, which
equal the graph it would get alone.  A solo body, and each ``batchable:
false`` member, is a union of one.

One format across the boundary.  A lane's outcomes pickle its graph once,
its adjacency as CSR arrays alone (:class:`~repro.nn.sparse.COOMatrix`;
triples only where duplicate pins were summed), with each request's
``stages``: seconds in ``parse``, ``validate``, ``build``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from functools import partial

from repro.circuit.bench import parse_bench
from repro.circuit.graph import adjacency_pair
from repro.circuit.levelize import levelize, levelize_members
from repro.circuit.netlist import Netlist
from repro.circuit.structure import counts_to_ptr
from repro.circuit.validate import NetlistValidationError, validate_netlist
from repro.core.attributes import build_attributes
from repro.core.graphdata import GraphData
from repro.exec import ExecPolicy, ShardTask, make_executor
from repro.resilience.errors import NetlistFormatError
from repro.resilience.retry import RetryPolicy
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    MalformedRequestError,
    PayloadTooLargeError,
    RequestError,
)
from repro.testability.scoap import compute_scoap

__all__ = [
    "ScoreRequest",
    "admit",
    "admit_payload",
    "admit_batch",
    "run_admission",
    "AdmissionPool",
]

_ALLOWED_KEYS = {
    "netlist",
    "design",
    "request_id",
    "deadline_ms",
    "batchable",
    "return_predictions",
    "debug_sleep_ms",
}

#: request_id length cap — ids are echoed into logs, metrics exemplars
#: and error bodies, so an unbounded id is an amplification vector
_MAX_REQUEST_ID = 128


@dataclass
class ScoreRequest:
    """A fully admitted scoring request, ready for a worker: its ``rows``
    of the ``graph`` its admission lane built (by default all of them)."""

    graph: GraphData
    design: str
    deadline_s: float  #: relative deadline in seconds (absolute set on submit)
    request_id: str = ""  #: client correlation id, echoed in responses
    batchable: bool = True  #: may the coalescer merge this request?
    return_predictions: bool = True
    debug_sleep_s: float = 0.0  #: fault-injection aid, honoured only in debug
    warnings: list[str] = field(default_factory=list)
    #: seconds spent in ``parse`` / ``validate`` / ``build``, measured where
    #: the admission ran (a forked worker under ``repro serve``)
    stages: dict[str, float] = field(default_factory=dict)
    rows: slice | None = None
    #: this request's pins, a pin read twice counted twice (None: the graph's)
    num_edges: int | None = None

    def __post_init__(self) -> None:
        self.rows = self.rows or slice(0, self.graph.num_nodes)
        if self.num_edges is None:
            self.num_edges = self.graph.num_edges

    @property
    def num_nodes(self) -> int:
        return self.rows.stop - self.rows.start


def _schema_error(message: str) -> MalformedRequestError:
    return MalformedRequestError(f"invalid score request: {message}")


def admit(raw: bytes, config: ServeConfig) -> ScoreRequest:
    """Validate a raw score body and build the request's graph.

    Raises (all mapped to 4xx by the protocol layer):

    * :class:`PayloadTooLargeError` — body bytes or node count over limit;
    * :class:`MalformedRequestError` — not JSON / not the score schema;
    * :class:`~repro.circuit.bench.BenchParseError` — malformed netlist;
    * :class:`~repro.circuit.validate.NetlistValidationError` — structurally
      broken netlist (combinational loop, no observation sites, ...).
    """
    if len(raw) > config.max_body_bytes:
        raise PayloadTooLargeError(
            f"request body is {len(raw)} bytes; limit is {config.max_body_bytes}"
        )
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _schema_error(f"body is not valid JSON ({exc})") from exc
    return admit_payload(payload, config)


def admit_payload(payload, config: ServeConfig) -> ScoreRequest:
    """Validate one decoded score envelope: a batch of one."""
    [outcome] = _admit_all([payload], config)
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _parse_member(payload, config: ServeConfig) -> tuple[Netlist, dict, float]:
    """Schema-check one envelope and parse its netlist.

    Returns the netlist, the :class:`ScoreRequest` fields the envelope
    sets and the seconds parsing took.
    """
    if not isinstance(payload, dict):
        raise _schema_error("body must be a JSON object")
    unknown = sorted(set(payload) - _ALLOWED_KEYS)
    if unknown:
        raise _schema_error(f"unknown keys {unknown}")

    netlist_text = payload.get("netlist")
    if not isinstance(netlist_text, str) or not netlist_text.strip():
        raise _schema_error('"netlist" must be a non-empty string of .bench text')

    design = payload.get("design", "request")
    if not isinstance(design, str):
        raise _schema_error('"design" must be a string')

    request_id = payload.get("request_id", "")
    if not isinstance(request_id, str):
        raise _schema_error('"request_id" must be a string')
    if len(request_id) > _MAX_REQUEST_ID:
        raise _schema_error(
            f'"request_id" longer than {_MAX_REQUEST_ID} characters'
        )

    deadline_ms = payload.get("deadline_ms", config.default_deadline_ms)
    if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool):
        raise _schema_error('"deadline_ms" must be an integer')
    if deadline_ms < 1:
        raise _schema_error('"deadline_ms" must be >= 1')
    deadline_ms = min(deadline_ms, config.max_deadline_ms)

    batchable = payload.get("batchable", True)
    if not isinstance(batchable, bool):
        raise _schema_error('"batchable" must be a boolean')

    return_predictions = payload.get("return_predictions", True)
    if not isinstance(return_predictions, bool):
        raise _schema_error('"return_predictions" must be a boolean')

    debug_sleep_ms = payload.get("debug_sleep_ms", 0)
    if not isinstance(debug_sleep_ms, (int, float)) or isinstance(debug_sleep_ms, bool):
        raise _schema_error('"debug_sleep_ms" must be a number')
    if debug_sleep_ms and not config.debug:
        raise _schema_error('"debug_sleep_ms" requires the server to run with --debug')

    # BenchParseError (a NetlistFormatError) propagates to the 400 mapping.
    started = time.perf_counter()
    netlist = parse_bench(netlist_text, name=design)
    if netlist.num_nodes > config.max_nodes:
        raise PayloadTooLargeError(
            f"netlist has {netlist.num_nodes} nodes; limit is {config.max_nodes}"
        )
    fields = {
        "design": design,
        "deadline_s": deadline_ms / 1000.0,
        "request_id": request_id,
        "batchable": batchable,
        "return_predictions": return_predictions,
        "debug_sleep_s": max(0.0, float(debug_sleep_ms)) / 1000.0,
    }
    return netlist, fields, time.perf_counter() - started


def _admit_all(payloads: list, config: ServeConfig) -> list["ScoreRequest | Exception"]:
    """Admit decoded envelopes, one outcome per envelope in order.

    Each envelope is schema-checked, parsed and size-checked on its own,
    so each gets its own error; the batchable members that parsed then
    share one graph (:func:`_admit_parsed`), the others get one each.
    """
    outcomes: list = []
    for payload in payloads:
        try:
            outcomes.append(_parse_member(payload, config))
        except Exception as exc:  # typed by the protocol layer per item
            outcomes.append(exc)
    parsed = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, tuple)]
    alone = [i for i in parsed if not outcomes[i][1]["batchable"]]
    shared = [i for i in parsed if i not in alone]
    for group in filter(None, [shared, *([i] for i in alone)]):
        for i, outcome in zip(group, _admit_parsed([outcomes[i] for i in group])):
            outcomes[i] = outcome
    return outcomes


def _admit_parsed(members: list[tuple[Netlist, dict, float]]) -> list:
    """:func:`_admit_together`, or each member alone if the shared sweeps fail."""
    try:
        return _admit_together(members)
    except Exception as exc:
        if len(members) == 1:
            return [exc]
        # A combinational loop (or any other fault one member brings to the
        # union's sweeps) must not reach its neighbours: each member is
        # then admitted alone and answers for itself, as it would solo.
        return [outcome for member in members for outcome in _admit_parsed([member])]


def _admit_together(members: list[tuple[Netlist, dict, float]]) -> list:
    """Validate parsed members and build one graph over their union.

    The union of the members is as deep as its deepest member, so one
    levelize and one SCOAP sweep over it make the per-level calls once
    for all of them, and one adjacency and attribute build follow.  Each
    member's levelization is memoised from the union's
    (:func:`levelize_members`); its rows of the union's SCOAP, adjacency
    and attributes are its own, since no wire crosses members.  A single
    member is its own union, not a copy.  Each member is still validated
    on its own (its errors and warnings stay its own; a refused member's
    rows are scored by nobody), and the shared seconds are split between
    the members by node count.  A validation failure is the member's
    outcome; any other exception is raised.
    """
    netlists = [netlist for netlist, _, _ in members]
    started = time.perf_counter()
    if len(members) == 1:
        union = netlists[0]  # its validation levelizes it, timed below
    else:
        union = Netlist.disjoint_union(netlists)
        levelize_members(netlists, union)
    levelize_s = time.perf_counter() - started

    reports: list = []
    for netlist in netlists:
        started = time.perf_counter()
        try:
            # Strict: structural errors raise NetlistValidationError (422).
            report = validate_netlist(netlist, strict=True)
        except NetlistValidationError as exc:
            report = exc
        reports.append((report, time.perf_counter() - started))
    built_s, graph = 0.0, None
    if not all(isinstance(report, Exception) for report, _ in reports):
        started = time.perf_counter()
        scoap = compute_scoap(union)
        pred, succ = adjacency_pair(union)
        attributes = build_attributes(union, scoap, levelize(union).levels)
        name = members[0][1]["design"] if len(members) == 1 else union.name
        graph = GraphData(pred, succ, attributes, name=name)
        built_s = time.perf_counter() - started

    outcomes: list = []
    bounds = counts_to_ptr([netlist.num_nodes for netlist in netlists]).tolist()
    total = max(1, bounds[-1])
    for (netlist, fields, parse_s), (report, validate_s), lo, hi in zip(
        members, reports, bounds[:-1], bounds[1:]
    ):
        if isinstance(report, Exception):
            outcomes.append(report)
            continue
        weight = (hi - lo) / total
        outcomes.append(ScoreRequest(
            graph=graph,
            **fields,
            warnings=list(report.warnings),
            stages={
                "parse": parse_s,
                "validate": validate_s + weight * levelize_s,
                "build": weight * built_s,
            },
            rows=slice(lo, hi),
            num_edges=netlist.num_edges,
        ))
    return outcomes


def admit_batch(
    raw: bytes, config: ServeConfig, part: tuple[int, int] = (0, 1)
) -> list[tuple[int, "ScoreRequest | BaseException"]]:
    """Validate a ``/v1/score:batch`` body item by item.

    Returns ``(index, admitted-or-error)`` per item in submission order:
    a malformed member becomes its own typed error entry while its
    neighbours still score.  The envelope itself (non-object body,
    missing/empty/oversized ``requests`` array) raises, because there is
    nothing per-item to answer.

    ``part=(i, k)`` admits members ``i::k`` only, after the same envelope
    checks: the ``k`` parts of one body are disjoint, cover it, and merged
    by index equal the unsplit result, per-item errors included.
    """
    if len(raw) > config.max_body_bytes:
        raise PayloadTooLargeError(
            f"request body is {len(raw)} bytes; limit is {config.max_body_bytes}"
        )
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _schema_error(f"body is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise _schema_error("body must be a JSON object")
    unknown = sorted(set(payload) - {"requests"})
    if unknown:
        raise _schema_error(f"unknown keys {unknown}")
    items = payload.get("requests")
    if not isinstance(items, list) or not items:
        raise _schema_error('"requests" must be a non-empty array of score envelopes')
    if len(items) > config.batch_max_requests:
        raise PayloadTooLargeError(
            f"batch of {len(items)} requests exceeds the per-call limit of "
            f"{config.batch_max_requests}"
        )
    first, stride = part
    indices = range(first, len(items), stride)
    return list(zip(indices, _admit_all([items[i] for i in indices], config)))


#: what a client can get wrong: returned by :func:`run_admission`, never raised
_ADMISSION_ERRORS = (RequestError, NetlistFormatError, NetlistValidationError)

#: the smallest body that crosses every admission stage; an admission
#: worker runs it once when forked, which resolves the front end's lazy
#: imports there and proves the worker before the listener opens
_PROBE_BODY = b'{"netlist": "INPUT(a)\\nOUTPUT(y)\\ny = NOT(a)\\n"}'


def run_admission(admit_fn, raw: bytes, config: ServeConfig):
    """``admit_fn(raw, config)`` (:func:`admit` or :func:`admit_batch`),
    with a typed admission failure *returned*.

    This is the whole task an admission worker runs, and the only call of
    the admission functions in the serve layer.  Returning the 400 / 413 /
    422 instead of raising it is what keeps bad input out of the ladder's
    retry and failure accounting; the caller re-raises it.  The graphs
    come with both CSR caches built (:func:`adjacency_pair`), so the
    scoring threads build none under the daemon's interpreter lock.
    """
    try:
        return admit_fn(raw, config)
    except _ADMISSION_ERRORS as exc:
        return exc


class AdmissionPool:
    """Forked admission workers, one per lane, lent to handler threads.

    A lane is a single-worker fork pool of :mod:`repro.exec`: lanes run
    concurrently, and each brings the fabric's ladder — a worker that is
    killed, goes silent or outlives ``default_deadline_ms`` is replaced,
    and the body it held is admitted in the calling thread instead (one
    attempt, then the in-process rung: the caller is a waiting client).
    ``REPRO_EXEC_BACKEND=inprocess`` turns the lanes into plain calls.

    Build it before the process starts its serving threads, so the
    workers inherit none of them: each lane forks once the
    lane before it has answered a probe admission, when the only other
    threads are earlier lanes' socket readers, parked in ``recv``.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1),
            worker_timeout=config.default_deadline_ms / 1000.0,
        )
        self._executors = [
            make_executor(name="admission", max_workers=1, policy=policy)
            for _ in range(config.workers)
        ]
        # Last in, first out: the probe below lands on the lane just
        # added, and under light load one worker takes every body while
        # the others wait for overlap.
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for executor in self._executors:
            self._idle.put(executor)
            # Forks the lane's worker and waits for its first answer.
            self.run(admit, _PROBE_BODY)

    def run(self, admit_fn, raw: bytes):
        """:func:`run_admission` on an idle lane; blocks (off the GIL)
        until one is free and has answered.

        A batch body (``admit_fn is admit_batch``) also takes every other
        lane idle right now and is admitted in strides, one helper thread
        per extra lane; each lane keeps its own ladder, so a lost
        worker's stride is admitted inline by the thread that drove it.
        An envelope error (or a lane's failure) is the answer.
        """
        lanes = [self._idle.get()]
        if admit_fn is admit_batch:
            try:
                while True:
                    lanes.append(self._idle.get_nowait())
            except queue.Empty:
                pass
        k = len(lanes)
        outcomes: list = [None] * k

        def drive(i: int) -> None:
            fn = admit_fn if k == 1 else partial(admit_fn, part=(i, k))
            try:
                [outcomes[i]] = lanes[i].submit(
                    [ShardTask("admit", fn=run_admission,
                               args=(fn, raw, self.config))]
                )
            except Exception as exc:  # the caller raises it, like a 4xx
                outcomes[i] = exc
            finally:
                self._idle.put(lanes[i])

        helpers = [
            threading.Thread(target=drive, args=(i,), name=f"admit-lane-{i}")
            for i in range(1, k)
        ]
        for helper in helpers:
            helper.start()
        try:
            drive(0)
        finally:
            for helper in helpers:
                helper.join()
        if k == 1:
            return outcomes[0]
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                return outcome
        return sorted(
            (entry for outcome in outcomes for entry in outcome),
            key=lambda entry: entry[0],
        )

    def close(self) -> None:
        """End the workers (idempotent)."""
        for executor in self._executors:
            executor.close()
