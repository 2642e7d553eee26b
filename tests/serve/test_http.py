"""End-to-end HTTP tests over a real loopback socket."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit.bench import parse_bench
from repro.core.graphdata import GraphData
from repro.serve import ModelManager, NetlistScoreServer, ServeConfig
from repro.serve.admission import ScoreRequest
from repro.serve.http import _Handler
from repro.serve.protocol import MalformedRequestError, encode_json

C17 = Path(__file__).resolve().parent.parent / "circuit" / "fixtures" / "c17.bench"


@pytest.fixture
def server():
    created = []

    def make(**kwargs) -> NetlistScoreServer:
        config = kwargs.pop(
            "config",
            ServeConfig(port=0, workers=1, queue_capacity=2, debug=True),
        )
        srv = NetlistScoreServer(config=config, **kwargs)
        srv.start()
        created.append(srv)
        return srv

    yield make
    for srv in created:
        srv.close()


def call(srv, path, payload=None, method=None):
    host, port = srv.address
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=data,
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestScore:
    def test_score_ok(self, server, bench_text):
        srv = server()
        status, _, body = call(srv, "/score", {"netlist": bench_text, "design": "d1"})
        assert status == 200
        assert body["design"] == "d1"
        assert body["num_nodes"] == len(body["predictions"])
        assert body["positive_count"] == sum(body["predictions"])
        assert body["predictor_level"] == "heuristic"
        assert body["degraded"] is True  # no model configured

    def test_score_with_model_not_degraded(self, server, bench_text, model_file):
        srv = server(model_path=model_file)
        status, _, body = call(srv, "/score", {"netlist": bench_text})
        assert status == 200
        assert body["degraded"] is False
        assert body["predictor_level"] == "gcn"

    def test_predictions_elided_on_request(self, server, bench_text):
        srv = server()
        status, _, body = call(
            srv, "/score", {"netlist": bench_text, "return_predictions": False}
        )
        assert status == 200
        assert "predictions" not in body

    @pytest.mark.parametrize(
        "payload, status, code",
        [
            ({"netlist": "INPUT(a)\nb = FROB(a)\n"}, 400, "netlist_parse_error"),
            ({"netlist": "INPUT(a)\nb = NOT(a)\n"}, 422, "netlist_invalid"),
            ({"design": "no netlist"}, 400, "bad_request"),
        ],
    )
    def test_bad_input_maps_to_4xx(self, server, payload, status, code):
        srv = server()
        got_status, _, body = call(srv, "/score", payload)
        assert got_status == status
        assert body["error"]["code"] == code
        assert body["error"]["type"]  # typed, never a traceback

    def test_empty_body_is_400(self, server):
        srv = server()
        host, port = srv.address
        req = urllib.request.Request(f"http://{host}:{port}/score", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

    def test_unknown_route_404(self, server):
        srv = server()
        status, _, _ = call(srv, "/nope")
        assert status == 404


class TestBackpressureAndDeadline:
    def test_overload_gets_429_with_retry_after(self, server, bench_text):
        srv = server(
            config=ServeConfig(port=0, workers=1, queue_capacity=1, debug=True)
        )
        slow = {"netlist": bench_text, "debug_sleep_ms": 800}
        results = []

        def fire(payload):
            results.append(call(srv, "/score", payload))

        threads = [
            threading.Thread(target=fire, args=({**slow},)) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        statuses = sorted(s for s, _, _ in results)
        assert 429 in statuses, statuses
        assert set(statuses) <= {200, 429}
        overloaded = next(r for r in results if r[0] == 429)
        assert overloaded[1].get("Retry-After") == "1"
        assert overloaded[2]["error"]["code"] == "overloaded"

    def test_saturated_admission_gate_is_429(self, server, bench_text):
        srv = server()
        slots = srv.config.admission_capacity
        assert all(srv.admission_gate.acquire(blocking=False) for _ in range(slots))
        try:
            status, headers, body = call(srv, "/score", {"netlist": bench_text})
            assert status == 429
            assert body["error"]["code"] == "overloaded"
            assert headers.get("Retry-After") == "1"
            assert srv.service.snapshot()["rejected_admission"] == 1
        finally:
            for _ in range(slots):
                srv.admission_gate.release()
        # Releasing the gate restores service.
        status, _, _ = call(srv, "/score", {"netlist": bench_text})
        assert status == 200

    def test_deadline_gets_504(self, server, bench_text):
        srv = server()
        status, _, body = call(
            srv,
            "/score",
            {"netlist": bench_text, "debug_sleep_ms": 2000, "deadline_ms": 100},
        )
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"


class TestConnectionHygiene:
    """Raw-socket tests: urllib sends ``Connection: close``, which hides
    every persistent-connection bug — these speak HTTP/1.1 keep-alive."""

    @staticmethod
    def _read_response(sock):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(body) < length:
            chunk = sock.recv(4096)
            if not chunk:
                break
            body += chunk
        return status, headers, body

    def test_idle_keepalive_client_does_not_block_drain(self, server):
        srv = server(
            config=ServeConfig(
                port=0, workers=1, queue_capacity=2, debug=True,
                keepalive_timeout_s=0.5,
            )
        )
        with socket.create_connection(srv.address, timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, _ = self._read_response(sock)
            assert status == 200
            # The connection is now idle keep-alive: its handler thread sits
            # in readline() waiting for a next request that never comes.
            # Drain must still complete (and well under the drain timeout).
            start = time.monotonic()
            assert srv.drain_and_stop(timeout=10) is True
            assert time.monotonic() - start < 8
            assert srv.wait_drained(timeout=1) is True

    def test_oversized_body_closes_connection(self, server):
        srv = server(
            config=ServeConfig(
                port=0, workers=1, queue_capacity=2, debug=True,
                max_body_bytes=64,
            )
        )
        body = b"x" * 200
        with socket.create_connection(srv.address, timeout=10) as sock:
            sock.sendall(
                b"POST /score HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            status, headers, payload = self._read_response(sock)
            assert status == 413
            assert headers.get("connection") == "close"
            assert json.loads(payload)["error"]["code"] == "payload_too_large"
            # The refused (never-read) body must not be parsed as a second
            # request on this connection: the server hangs up instead.
            assert sock.recv(4096) == b""


class TestReload:
    def test_reload_then_rollback_identical_predictions(
        self, server, bench_text, model_file, corrupt_file
    ):
        srv = server()
        status, _, body = call(srv, "/reload", {"path": str(model_file)})
        assert status == 200
        assert body["model"]["level"] == "gcn"

        _, _, before = call(srv, "/score", {"netlist": bench_text})
        status, _, body = call(srv, "/reload", {"path": str(corrupt_file)})
        assert status == 422
        assert body["error"]["code"] == "checkpoint_corrupt"
        assert body["rollback"]["level"] == "gcn"
        assert body["rollback"]["last_good"] == str(model_file)

        _, _, after = call(srv, "/score", {"netlist": bench_text})
        assert before["predictions"] == after["predictions"]
        assert after["degraded"] is False

    def test_reload_missing_is_404(self, server, tmp_path):
        srv = server()
        status, _, body = call(srv, "/reload", {"path": str(tmp_path / "ghost.npz")})
        assert status == 404
        assert body["error"]["code"] == "model_not_found"

    def test_reload_bad_body_is_400(self, server):
        srv = server()
        status, _, body = call(srv, "/reload", {"nope": 1})
        assert status == 400


class TestLifecycle:
    def test_healthz_and_readyz(self, server, bench_text):
        srv = server()
        status, _, body = call(srv, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["model"]["level"] == "heuristic"
        assert body["service"]["workers_alive"] == 1
        status, _, body = call(srv, "/readyz")
        assert status == 200 and body["ready"] is True

    def test_drain_completes_inflight_then_rejects(self, server, bench_text):
        srv = server()
        inflight = {}

        def slow_score():
            inflight["result"] = call(
                srv, "/score", {"netlist": bench_text, "debug_sleep_ms": 500}
            )

        t = threading.Thread(target=slow_score)
        t.start()
        # Wait until the slow request is actually being worked on.
        deadline = 50
        while srv.service.in_flight() == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.02)

        done = {}
        drainer = threading.Thread(
            target=lambda: done.setdefault("clean", srv.drain_and_stop(timeout=10))
        )
        drainer.start()
        t.join(timeout=15)
        drainer.join(timeout=15)
        assert done["clean"] is True
        # The in-flight request completed with a real answer.
        status, _, body = inflight["result"]
        assert status == 200
        assert body["num_nodes"] > 0

    def test_timed_out_drain_reports_unclean(self, server, bench_text):
        srv = server()
        t = threading.Thread(
            target=lambda: call(
                srv, "/score", {"netlist": bench_text, "debug_sleep_ms": 1500}
            )
        )
        t.start()
        while srv.service.in_flight() == 0:
            threading.Event().wait(0.02)
        # A drain that cannot finish in time must surface as unclean via
        # wait_drained() — that is where serve() takes the exit code from.
        drainer = threading.Thread(target=lambda: srv.drain_and_stop(timeout=0.05))
        drainer.start()
        assert srv.wait_drained(timeout=15) is False
        t.join(timeout=15)
        drainer.join(timeout=15)

    def test_readyz_not_ready_while_draining(self, server, bench_text):
        srv = server()
        # Park a long job so drain() stays in its wait loop.
        t = threading.Thread(
            target=lambda: call(
                srv, "/score", {"netlist": bench_text, "debug_sleep_ms": 1500}
            )
        )
        t.start()
        while srv.service.in_flight() == 0:
            threading.Event().wait(0.02)
        drainer = threading.Thread(target=lambda: srv.drain_and_stop(timeout=10))
        drainer.start()
        while not srv.service.draining:
            threading.Event().wait(0.02)
        status, _, body = call(srv, "/readyz")
        assert status == 503
        assert body["reason"] == "draining"
        status, _, body = call(srv, "/score", {"netlist": bench_text})
        assert status == 503
        assert body["error"]["code"] == "draining"
        t.join(timeout=15)
        drainer.join(timeout=15)


def fetch_metrics(srv):
    host, port = srv.address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=30
    ) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


class TestMetricsEndpoint:
    def test_prometheus_text_content_type(self, server):
        status, ctype, text = fetch_metrics(server())
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_request_latency_seconds histogram" in text
        assert "repro_serve_queue_depth 0" in text

    def test_exec_fabric_families_scrapeable_before_any_failure(self, server):
        # The execution fabric's recovery counters are registered eagerly
        # by render_metrics, so dashboards can alert on them from scrape
        # one — not only after the first worker failure.
        _, _, text = fetch_metrics(server())
        assert "# TYPE repro_exec_tasks_total counter" in text
        assert "# TYPE repro_exec_task_retries_total counter" in text
        assert "# TYPE repro_exec_worker_restarts_total counter" in text
        assert "# TYPE repro_exec_fallbacks_total counter" in text
        assert "# TYPE repro_exec_tasks_quarantined_total counter" in text
        assert "# TYPE repro_exec_integrity_failures_total counter" in text
        assert "# TYPE repro_exec_submit_seconds histogram" in text
        # One ladder, one counter set: the distributed backend's copies of
        # these four are gone; its fleet-only families remain.
        for folded in ("tasks_quarantined_total", "integrity_failures_total",
                       "fallbacks_total", "submit_seconds"):
            assert f"repro_exec_net_{folded}" not in text
        assert "# TYPE repro_exec_net_workers gauge" in text
        assert "# TYPE repro_exec_net_requeues_total counter" in text

    def test_counters_and_latency_move_with_traffic(self, server, bench_text):
        srv = server()
        status, _, _ = call(srv, "/score", {"netlist": bench_text, "design": "m"})
        assert status == 200
        _, _, text = fetch_metrics(srv)
        assert 'repro_serve_requests_total{event="accepted"} 1' in text
        assert 'repro_serve_requests_total{event="completed"} 1' in text
        assert "repro_serve_request_latency_seconds_count 1" in text
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"} 1' in text

    def test_rejections_are_counted(self, server):
        srv = server()
        status, _, _ = call(srv, "/score", {"netlist": "not a bench"})
        assert status in (400, 422)
        _, _, text = fetch_metrics(srv)
        # Admission failures happen before the queue; the request counter
        # families exist regardless, so scrapers see stable series.
        assert 'repro_serve_requests_total{event="rejected_overload"} 0' in text

    def test_servers_have_isolated_registries(self, server, bench_text):
        a = server()
        b = server()
        call(a, "/score", {"netlist": bench_text, "design": "m"})
        _, _, text_a = fetch_metrics(a)
        _, _, text_b = fetch_metrics(b)
        assert 'repro_serve_requests_total{event="accepted"} 1' in text_a
        assert 'repro_serve_requests_total{event="accepted"} 0' in text_b


class _RecordingWfile:
    """Stands where the handler's unbuffered socket writer stands."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


def _bare_handler() -> _Handler:
    """A handler wired to fakes: what ``_respond`` touches, and no socket."""
    app = SimpleNamespace(
        config=ServeConfig(),
        service=SimpleNamespace(draining=False),
        health=lambda: {"status": "ok"},
        render_metrics=lambda: "repro_up 1\n",
    )
    handler = _Handler.__new__(_Handler)
    handler.server = SimpleNamespace(app=app)
    handler.wfile = _RecordingWfile()
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET / HTTP/1.1"
    handler.command = "GET"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    return handler


class TestOneWritePerResponse:
    """Headers and body leave in one ``sendall``: with Nagle on, a header
    block sent alone holds the body back until the peer's delayed ACK."""

    @pytest.mark.parametrize(
        "respond",
        [
            lambda h: setattr(h, "path", "/healthz") or h.do_GET(),
            lambda h: setattr(h, "path", "/metrics") or h.do_GET(),
            lambda h: h._send(429, {"error": {"code": "overloaded"}}, {"Retry-After": "1"}),
            lambda h: h._send_error(MalformedRequestError("request body is empty")),
        ],
        ids=["healthz", "metrics", "json_with_headers", "typed_error"],
    )
    def test_single_write_carries_head_and_body(self, respond):
        handler = _bare_handler()
        respond(handler)
        (wire,) = handler.wfile.writes
        head, separator, body = wire.partition(b"\r\n\r\n")
        assert wire.startswith(b"HTTP/1.1 ") and separator and body
        assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")

    def test_keep_alive_responses_stay_apart(self):
        handler = _bare_handler()
        for _ in range(2):
            handler._send(200, {"ok": True})
        for wire in handler.wfile.writes:  # nothing of one leaks into the next
            assert wire.count(b"HTTP/1.1 200") == 1 and wire.endswith(b'{"ok": true}')
        assert len(handler.wfile.writes) == 2


def test_score_payload_bytes_are_pinned():
    """The response body of a scored request, byte for byte (the labels
    are serialised from the array, not through a per-node loop)."""
    graph = GraphData.from_netlist(parse_bench(C17.read_text(), name="c17"))
    request = ScoreRequest(
        graph=graph, design="c17", deadline_s=1.0, request_id="r-1", warnings=["w"]
    )
    labels = np.array([0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int64)
    info = {"predictor_level": "gcn", "degraded": False, "batched": True, "batch_size": 3}
    expected = (
        b'{"design": "c17", "num_nodes": 11, "num_edges": 12, "positive_count": 5, '
        b'"degraded": false, "predictor_level": "gcn", "batched": true, '
        b'"batch_size": 3, "latency_ms": 1.235, "request_id": "r-1", "warnings": ["w"], '
        b'"predictions": [0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1]}'
    )
    assert encode_json(_Handler._score_payload(request, labels, info, 1.23456)) == expected
    # A predictor handing back a plain list serialises the same.
    assert encode_json(
        _Handler._score_payload(request, labels.tolist(), info, 1.23456)
    ) == expected
    request.return_predictions = False
    assert b"predictions" not in encode_json(
        _Handler._score_payload(request, labels, info, 1.23456)
    )
