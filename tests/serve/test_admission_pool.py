"""Admission across the process boundary: ``AdmissionPool`` and its ladder.

``repro serve`` admits request bodies in forked workers
(:class:`~repro.serve.admission.AdmissionPool`); an embedded server admits
in the handler thread.  Both run :func:`~repro.serve.admission.
run_admission`, so everything here is an equality: typed errors survive
pickling, a pooled admission builds the arrays an inline one builds, the
two kinds of server answer with the same bytes, and a worker that dies or
hangs mid-request costs that request nothing but the inline re-run.

A batch body is admitted in strides on every lane idle at that moment and
reassembled in index order; the adjacency crosses the boundary as its CSR
alone; and the stages a pool-backed server reports add up to its latency.

No test sleeps.  A worker dies *inside* the admission it was handed: the
front end's ``parse_bench`` is patched before the pool forks, the workers
inherit the patch, and the patched function ends the process it runs in
unless that process is the test's own.
"""

from __future__ import annotations

import http.client
import io
import json
import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.circuit.bench import BenchParseError, write_bench
from repro.circuit.validate import NetlistValidationError
from repro.core.model import GCN, GCNConfig
from repro.core.serialize import save_gcn
from repro.exec import ensure_exec_metrics, leaked_segment_names
from repro.serve import NetlistScoreServer, ServeConfig, admission
from repro.serve.admission import (
    AdmissionPool,
    ScoreRequest,
    admit,
    admit_batch,
    run_admission,
)
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    MalformedRequestError,
    OverloadedError,
    PayloadTooLargeError,
    error_payload,
    status_for,
)

FIXTURES = Path(__file__).resolve().parent.parent / "circuit" / "fixtures"
CONFIG = ServeConfig(port=0, workers=1, max_nodes=400)


def design_text(gates: int, seed: int) -> str:
    buf = io.StringIO()
    write_bench(generate_design(gates, seed=seed), buf)
    return buf.getvalue()


def body_of(netlist: str, **fields) -> bytes:
    return json.dumps({"netlist": netlist, **fields}).encode()


#: generated designs on both sides of the 256-node lazy-netlist threshold,
#: and the two ISCAS fixtures (s27 has flip-flops)
DESIGNS = {
    "gen30": design_text(30, seed=1),
    "gen120": design_text(120, seed=7),
    "gen300": design_text(300, seed=3),
    "c17": (FIXTURES / "c17.bench").read_text(),
    "s27": (FIXTURES / "s27.bench").read_text(),
}

#: one body per admission failure class
BAD_BODIES = {
    "not_json": (400, b"{"),
    "unknown_key": (400, json.dumps({"netlist": "x", "bogus": 1}).encode()),
    "parse_error": (400, body_of("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")),
    "too_many_nodes": (413, body_of(design_text(600, seed=2))),
    "invalid_netlist": (422, body_of("INPUT(a)\nb = NOT(a)\n")),
}


def worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def exec_count(name: str) -> float:
    return ensure_exec_metrics()[name].labels("admission", "forkpool").value


@pytest.fixture(scope="module")
def pool():
    pool = AdmissionPool(CONFIG)
    yield pool
    pool.close()


# --------------------------------------------------------------------- #
# Typed errors across pickle
# --------------------------------------------------------------------- #
def admission_error(raw: bytes) -> BaseException:
    outcome = run_admission(admit, raw, CONFIG)
    assert isinstance(outcome, BaseException)
    return outcome


@pytest.mark.parametrize(
    "exc",
    [
        MalformedRequestError("invalid score request: body must be a JSON object"),
        PayloadTooLargeError("request body is 9 bytes; limit is 8"),
        OverloadedError("work queue full (16 jobs)", retry_after_s=7),
        DeadlineExceededError("deadline of 0.100s expired for design 'd'"),
        DrainingError("server is draining; not accepting new work"),
        BenchParseError("line 3: unknown gate 'FROB'"),
        NetlistValidationError("netlist has no observation sites"),
        *(admission_error(raw) for _, raw in BAD_BODIES.values()),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_typed_errors_round_trip_pickle(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert status_for(copy) == status_for(exc)
    assert error_payload(copy) == error_payload(exc)
    assert getattr(copy, "retry_after_s", None) == getattr(exc, "retry_after_s", None)


def test_bench_parse_error_keeps_its_line_number(pool):
    outcome = pool.run(admit, BAD_BODIES["parse_error"][1])
    assert isinstance(outcome, BenchParseError)
    assert str(outcome).startswith("line 3:")


# --------------------------------------------------------------------- #
# Pooled admission == inline admission
# --------------------------------------------------------------------- #
def assert_same_request(pooled: ScoreRequest, inline: ScoreRequest) -> None:
    assert np.array_equal(pooled.graph.attributes, inline.graph.attributes)
    for side in ("pred", "succ"):
        ours, theirs = getattr(pooled.graph, side), getattr(inline.graph, side)
        assert ours.shape == theirs.shape
        # The CSR came over the wire; to_scipy() must not have to build it.
        assert ours._csr is not None and theirs._csr is not None
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(ours.to_scipy(), part), getattr(theirs.to_scipy(), part)
            )
        # The triples (rebuilt on demand on the pooled side, in CSR order)
        # are the same entries.
        assert ours.nnz == theirs.nnz
        for part in ("rows", "cols", "values"):
            assert np.array_equal(
                getattr(ours, part)[np.lexsort((ours.cols, ours.rows))],
                getattr(theirs, part)[np.lexsort((theirs.cols, theirs.rows))],
            )
    for name in ("design", "deadline_s", "request_id", "batchable",
                 "return_predictions", "debug_sleep_s", "warnings"):
        assert getattr(pooled, name) == getattr(inline, name), name
    assert set(pooled.stages) == set(inline.stages) == {"parse", "validate", "build"}
    assert pooled.graph.name == inline.graph.name


@pytest.mark.parametrize("name", DESIGNS)
def test_pooled_admission_builds_the_same_request(pool, name):
    raw = body_of(DESIGNS[name], design=name, request_id=f"id-{name}", deadline_ms=1234)
    pooled = pool.run(admit, raw)
    assert pooled.graph.pred._rows is None and pooled.graph.succ._rows is None
    assert_same_request(pooled, run_admission(admit, raw, CONFIG))


def test_pooled_batch_admission_matches_item_by_item(pool):
    envelopes = [{"netlist": text, "design": name} for name, text in DESIGNS.items()]
    envelopes.insert(2, {"netlist": "y = FROB(a)\n"})
    envelopes.append({"netlist": DESIGNS["c17"], "deadline_ms": "soon"})
    raw = json.dumps({"requests": envelopes}).encode()
    pooled, inline = pool.run(admit_batch, raw), run_admission(admit_batch, raw, CONFIG)
    assert [index for index, _ in pooled] == list(range(len(envelopes)))
    assert_same_batch(pooled, inline)


@pytest.fixture(scope="module")
def two_lanes():
    pool = AdmissionPool(ServeConfig(port=0, workers=2, max_nodes=400))
    yield pool
    pool.close()


def batch_body(extra: list | None = None) -> tuple[bytes, int]:
    envelopes = [{"netlist": text, "design": name} for name, text in DESIGNS.items()]
    envelopes[1:1] = extra or []
    return json.dumps({"requests": envelopes}).encode(), len(envelopes)


def assert_same_batch(pooled: list, inline: list) -> None:
    assert [index for index, _ in pooled] == [index for index, _ in inline]
    for (index, ours), (_, theirs) in zip(pooled, inline):
        if isinstance(theirs, BaseException):
            assert type(ours) is type(theirs) and str(ours) == str(theirs), index
        else:
            assert_same_request(ours, theirs)


def test_batch_body_is_split_over_the_idle_lanes(two_lanes):
    raw, count = batch_body([{"netlist": "y = FROB(a)\n"}, {"netlist": 7}])
    tasks = exec_count("tasks")
    pooled = two_lanes.run(admit_batch, raw)
    # Both lanes were idle, so both took a stride of the one body ...
    assert exec_count("tasks") - tasks == 2
    # ... and the answer is the unsplit one, errors at the same indices.
    assert [index for index, _ in pooled] == list(range(count))
    assert_same_batch(pooled, run_admission(admit_batch, raw, two_lanes.config))
    # A solo body takes one lane; an envelope error is the call's answer.
    tasks = exec_count("tasks")
    assert isinstance(two_lanes.run(admit, body_of(DESIGNS["c17"])), ScoreRequest)
    assert exec_count("tasks") - tasks == 1
    refused = two_lanes.run(admit_batch, b'{"requests": []}')
    assert isinstance(refused, MalformedRequestError)


def test_adjacency_crosses_the_boundary_as_csr_alone():
    """The 2.1k-node design of ``serve_2k``: 368 627 bytes when the triples
    and both caches travelled, CSR + attributes now."""
    from repro.core.inference import FastInference

    raw = body_of(design_text(2000, seed=11))
    request = run_admission(admit, raw, ServeConfig())
    assert 2000 < request.graph.num_nodes < 2300
    frame = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(frame) <= 200_000
    shipped = pickle.loads(frame)
    engine = FastInference(GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,))).layer_weights())
    assert np.array_equal(engine.logits(shipped.graph), engine.logits(request.graph))
    assert shipped.graph.pred._rows is None  # scoring never rebuilt the triples


@pytest.mark.parametrize("name", BAD_BODIES)
def test_admission_failures_come_back_as_values(pool, name):
    status, raw = BAD_BODIES[name]
    before = exec_count("retries"), exec_count("fallbacks")
    pooled, inline = pool.run(admit, raw), run_admission(admit, raw, CONFIG)
    assert status_for(pooled)[0] == status
    assert type(pooled) is type(inline) and str(pooled) == str(inline)
    # A finished task: nothing retried, nothing rescued, no worker blamed.
    assert (exec_count("retries"), exec_count("fallbacks")) == before


def test_inprocess_backend_is_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
    before = worker_pids()
    switched_off = AdmissionPool(CONFIG)
    try:
        outcome = switched_off.run(admit, body_of(DESIGNS["c17"]))
        assert worker_pids() == before
    finally:
        switched_off.close()
    assert outcome.graph.num_nodes == 11


# --------------------------------------------------------------------- #
# Pooled server == embedded server, byte for byte
# --------------------------------------------------------------------- #
def post(srv, path: str, raw: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*srv.address, timeout=30)
    try:
        # One request per connection, ended by the server: a replacement
        # worker forked by *this* process inherits the client's end too, so
        # the client closing it would not reach the handler as an EOF.
        conn.request("POST", path, body=raw, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    model_file = save_gcn(
        GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,))),
        tmp_path_factory.mktemp("model") / "model.npz",
    )
    pooled = NetlistScoreServer(
        config=CONFIG, model_path=model_file, admission_pool=AdmissionPool(CONFIG)
    )
    inline = NetlistScoreServer(config=CONFIG, model_path=model_file)
    assert inline.admission_pool is None
    for srv in (pooled, inline):
        srv.start()
    yield pooled, inline
    for srv in (pooled, inline):
        srv.close()


def scored(raw: bytes) -> dict:
    body = json.loads(raw)
    body.pop("stages_ms", None)
    for entry in body.get("results", [body]):
        entry.pop("latency_ms", None)
    return body


def test_served_labels_agree(servers):
    pooled, inline = servers
    before = exec_count("tasks")
    for name, text in DESIGNS.items():
        raw = body_of(text, design=name, request_id=name)
        (status, ours), (_, theirs) = post(pooled, "/v1/score", raw), post(inline, "/v1/score", raw)
        assert status == 200
        assert scored(ours) == scored(theirs)
        assert len(scored(ours)["predictions"]) == scored(ours)["num_nodes"]
    raw = json.dumps(
        {"requests": [{"netlist": text, "design": name} for name, text in DESIGNS.items()]}
    ).encode()
    (status, ours), (_, theirs) = (
        post(pooled, "/v1/score:batch", raw), post(inline, "/v1/score:batch", raw)
    )
    assert status == 200 and scored(ours)["ok"] == len(DESIGNS)
    assert scored(ours) == scored(theirs)
    # One task per body, the batch included, and all of them on the pooled side.
    assert exec_count("tasks") - before == len(DESIGNS) + 1


def test_stages_add_up_to_the_request_latency(servers):
    """``stages_ms`` of a request through forked admission workers accounts
    for its ``repro_serve_request_latency_seconds`` sample to within 10 %,
    and nothing waits in the queue of an idle server.  Best of three: the
    remainder is thread hand-offs, which a loaded host stretches."""
    pooled, _ = servers
    raw = body_of(DESIGNS["gen300"], return_predictions=False)
    attempts = []
    for _ in range(3):
        before = pooled.request_latency.sum, pooled.stage_seconds.labels("predict").sum
        status, answer = post(pooled, "/v1/score", raw)
        assert status == 200
        stages = json.loads(answer)["stages_ms"]
        assert set(stages) == {"read_body", "lane_wait", "parse", "validate", "build",
                               "queue_wait", "predict"}
        latency_ms = 1000.0 * (pooled.request_latency.sum - before[0])
        attempts.append((abs(sum(stages.values()) / latency_ms - 1.0), stages["queue_wait"]))
        # The histogram got the very number the response echoes.
        observed_ms = 1000.0 * (pooled.stage_seconds.labels("predict").sum - before[1])
        assert observed_ms == pytest.approx(stages["predict"], abs=1e-3)
    assert min(gap for gap, _ in attempts) < 0.10
    assert min(wait for _, wait in attempts) < 2.0


@pytest.mark.parametrize("name", BAD_BODIES)
def test_error_responses_are_byte_identical(servers, name):
    pooled, inline = servers
    status, raw = BAD_BODIES[name]
    for path in ("/v1/score", "/score"):
        assert post(pooled, path, raw) == post(inline, path, raw)
        assert post(pooled, path, raw)[0] == status
    batch = b'{"requests": [' + raw + b"]}"
    ours, theirs = post(pooled, "/v1/score:batch", batch), post(inline, "/v1/score:batch", batch)
    assert ours == theirs
    if name != "not_json":  # a member's failure is its own entry, not the call's
        assert ours[0] == 200 and json.loads(ours[1])["results"][0]["status"] == status


# --------------------------------------------------------------------- #
# The ladder: a worker lost mid-request
# --------------------------------------------------------------------- #
def die_by_sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


def die_by_exit():
    # The ordinary way out of a process, finalizers and all: what must
    # not take the parent's shared-memory segments along.
    raise SystemExit(0)


def hang():
    time.sleep(3600)  # ended by the ladder's SIGKILL, never by the clock


@pytest.fixture
def sabotage(monkeypatch):
    """``arm(action)``: from now on a *forked* process that parses a design
    named ``poison`` runs ``action`` instead; this process parses it."""
    test_pid = os.getpid()
    real_parse = admission.parse_bench

    def arm(action):
        def parse_bench(text, name="netlist"):
            if name == "poison" and os.getpid() != test_pid:
                action()
            return real_parse(text, name=name)

        monkeypatch.setattr(admission, "parse_bench", parse_bench)

    return arm


def segments_of(srv) -> set[str]:
    arrays = srv.manager.weight_store.manifest()["arrays"]
    return {spec["segment"] for spec in arrays.values()}


@pytest.mark.parametrize("death", [die_by_sigkill, die_by_exit])
def test_worker_lost_mid_request_answers_through_the_inline_rung(
    sabotage, model_file, death
):
    config = ServeConfig(port=0, workers=1)
    before_workers = worker_pids()
    # Weights first, then the pool: the worker (and its replacement)
    # inherits this process's bookkeeping of the segments, the worst case
    # for "a worker's exit never unlinks them".
    reference = NetlistScoreServer(config=config, model_path=model_file)
    sabotage(death)
    srv = NetlistScoreServer(
        config=config, model_path=model_file, admission_pool=AdmissionPool(config)
    )
    try:
        for each in (reference, srv):
            each.start()
        (first_worker,) = worker_pids() - before_workers
        published = segments_of(srv) | segments_of(reference)
        assert published and published <= set(leaked_segment_names())
        counts = {name: exec_count(name) for name in ("fallbacks", "restarts", "tasks")}

        raw = body_of(DESIGNS["gen120"], design="poison")
        status, answer = post(srv, "/v1/score", raw)
        assert status == 200
        assert scored(answer) == scored(post(reference, "/v1/score", raw)[1])

        assert exec_count("fallbacks") - counts["fallbacks"] == 1
        assert exec_count("restarts") - counts["restarts"] == 1
        (second_worker,) = worker_pids() - before_workers
        assert second_worker != first_worker
        # The dead worker took nothing with it ...
        assert published <= set(leaked_segment_names())
        # ... and its replacement serves the next body (no second rescue).
        status, _ = post(srv, "/v1/score", body_of(DESIGNS["c17"], design="c17"))
        assert status == 200
        assert exec_count("fallbacks") - counts["fallbacks"] == 1
        assert exec_count("tasks") - counts["tasks"] == 2
    finally:
        reference.close()
        assert srv.drain_and_stop(timeout=10.0)
    # Drained: no child process, no segment.
    assert worker_pids() == before_workers
    assert not published & set(leaked_segment_names())


def test_lane_killed_mid_split_still_answers_every_member(sabotage):
    config = ServeConfig(port=0, workers=2, max_nodes=400)
    raw, count = batch_body([{"netlist": DESIGNS["gen30"], "design": "poison"}])
    expected = run_admission(admit_batch, raw, config)  # before the trap is armed
    sabotage(die_by_sigkill)
    before_workers = worker_pids()
    pool = AdmissionPool(config)
    try:
        lanes = worker_pids() - before_workers
        assert len(lanes) == 2
        fallbacks, restarts = exec_count("fallbacks"), exec_count("restarts")
        pooled = pool.run(admit_batch, raw)
        # Member 1 killed the lane that held stride 1::2; that stride was
        # admitted by the thread driving the lane, the other lane never knew.
        assert exec_count("fallbacks") - fallbacks == 1
        assert exec_count("restarts") - restarts == 1
        assert len(pooled) == count
        assert_same_batch(pooled, expected)
        assert len((worker_pids() - before_workers) & lanes) == 1
    finally:
        pool.close()
    assert worker_pids() == before_workers


def test_worker_hung_past_the_deadline_is_killed_and_bypassed(sabotage, model_file):
    config = ServeConfig(port=0, workers=1, default_deadline_ms=300)
    before_workers = worker_pids()
    sabotage(hang)
    srv = NetlistScoreServer(
        config=config, model_path=model_file, admission_pool=AdmissionPool(config)
    )
    try:
        srv.start()
        (hung_worker,) = worker_pids() - before_workers
        fallbacks = exec_count("fallbacks")
        status, answer = post(srv, "/v1/score", body_of(DESIGNS["c17"], design="poison"))
        assert status == 200 and json.loads(answer)["num_nodes"] == 11
        assert exec_count("fallbacks") - fallbacks == 1
        assert hung_worker not in worker_pids()
    finally:
        srv.close()
    assert worker_pids() == before_workers
