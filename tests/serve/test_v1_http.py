"""The versioned ``/v1`` wire contract: envelopes, batch calls, error bodies.

Complements ``test_http.py`` (transport-level behaviour): everything here
is specific to the ``/v1`` surface — the request/response envelope,
``/v1/score:batch`` per-item semantics, the structured error body with
the CLI's exit-code taxonomy, and the unversioned paths answering 404.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.circuit.bench import BenchParseError
from repro.serve import NetlistScoreServer, ServeConfig
from repro.serve.protocol import (
    DeadlineExceededError,
    MalformedRequestError,
    OverloadedError,
    PayloadTooLargeError,
    error_payload,
    exit_code_for,
)


@pytest.fixture
def server():
    created = []

    def make(**kwargs) -> NetlistScoreServer:
        config = kwargs.pop(
            "config",
            ServeConfig(port=0, workers=1, queue_capacity=8, debug=True),
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


class TestV1Score:
    def test_v1_route_scores(self, server, bench_text):
        srv = server()
        status, headers, body = call(
            srv, "/v1/score", {"netlist": bench_text, "design": "d1"}
        )
        assert status == 200
        assert body["design"] == "d1"
        assert body["num_nodes"] == len(body["predictions"])
        assert "Deprecation" not in headers

    def test_request_id_echoed_on_success(self, server, bench_text):
        srv = server()
        _, _, body = call(
            srv,
            "/v1/score",
            {"netlist": bench_text, "request_id": "req-42"},
        )
        assert body["request_id"] == "req-42"

    def test_request_id_echoed_on_post_admission_failure(
        self, server, bench_text
    ):
        srv = server()
        status, _, body = call(
            srv,
            "/v1/score",
            {
                "netlist": bench_text,
                "request_id": "req-dead",
                "deadline_ms": 100,
                "debug_sleep_ms": 1_000,
            },
        )
        assert status == 504
        assert body["request_id"] == "req-dead"
        assert body["error"]["code"] == "deadline_exceeded"

    def test_error_body_carries_exit_code(self, server):
        srv = server()
        status, _, body = call(srv, "/v1/score", {"netlist": "not a bench"})
        assert status == 400
        error = body["error"]
        assert error["code"] == "netlist_parse_error"
        assert error["exit_code"] == 3  # EXIT_INPUT: bad client input
        assert "type" in error and "message" in error

    def test_batched_flag_in_response(self, server, bench_text):
        srv = server()
        _, _, body = call(srv, "/v1/score", {"netlist": bench_text})
        assert body["batched"] in (True, False)


class TestV1ScoreBatch:
    def test_members_answered_in_index_order(self, server, bench_text):
        srv = server()
        payload = {
            "requests": [
                {"netlist": bench_text, "design": f"d{i}"} for i in range(4)
            ]
        }
        status, _, body = call(srv, "/v1/score:batch", payload)
        assert status == 200
        assert body["count"] == 4 and body["ok"] == 4
        assert [r["index"] for r in body["results"]] == [0, 1, 2, 3]
        assert [r["design"] for r in body["results"]] == [
            "d0",
            "d1",
            "d2",
            "d3",
        ]

    def test_bad_member_fails_alone(self, server, bench_text):
        srv = server()
        payload = {
            "requests": [
                {"netlist": bench_text, "design": "good"},
                {"netlist": "INPUT(", "design": "broken"},
                {"netlist": bench_text, "design": "also-good"},
            ]
        }
        status, _, body = call(srv, "/v1/score:batch", payload)
        assert status == 200  # per-item errors ride inside the 200 envelope
        assert body["ok"] == 2
        by_index = {r["index"]: r for r in body["results"]}
        assert by_index[0]["design"] == "good"
        assert by_index[2]["design"] == "also-good"
        failed = by_index[1]
        assert failed["status"] == 400
        assert failed["error"]["code"] == "netlist_parse_error"
        assert failed["error"]["exit_code"] == 3

    def test_member_request_id_rides_error_entries(self, server, bench_text):
        srv = server()
        payload = {
            "requests": [
                {
                    "netlist": bench_text,
                    "request_id": "will-expire",
                    "deadline_ms": 100,
                    "debug_sleep_ms": 1_000,
                }
            ]
        }
        status, _, body = call(srv, "/v1/score:batch", payload)
        assert status == 200
        entry = body["results"][0]
        assert entry["status"] == 504
        assert entry["request_id"] == "will-expire"

    def test_empty_requests_rejected(self, server):
        srv = server()
        status, _, body = call(srv, "/v1/score:batch", {"requests": []})
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_oversized_batch_rejected(self, server, bench_text):
        srv = server(
            config=ServeConfig(
                port=0, workers=1, batch_max_requests=2, debug=True
            )
        )
        payload = {"requests": [{"netlist": bench_text}] * 3}
        status, _, body = call(srv, "/v1/score:batch", payload)
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_burst_coalesces_into_batches(self, server, bench_text):
        """A score:batch body is enqueued in one critical section, so its
        members are one scoring pass — whichever worker wakes first."""
        for workers in (1, 2):
            srv = server(
                config=ServeConfig(
                    port=0, workers=workers, queue_capacity=16, debug=True
                )
            )
            payload = {
                "requests": [
                    {"netlist": bench_text, "return_predictions": False}
                    for _ in range(6)
                ]
            }
            status, _, body = call(srv, "/v1/score:batch", payload)
            assert status == 200 and body["ok"] == 6
            assert all(r["batched"] and r["batch_size"] == 6 for r in body["results"])
            sizes = srv.registry.get("repro_serve_batch_size")
            assert (sizes.count, sizes.sum) == (1, 6.0)
            assert {"read_body", "lane_wait", "parse", "queue_wait", "merge",
                    "predict"} <= set(body["stages_ms"])


class TestDeprecatedAlias:
    """The unversioned alias is gone: ``/score`` and ``/score:batch``
    answer 404 like any unknown path."""

    def test_v1_batch_has_no_unversioned_alias(self, server, bench_text):
        srv = server()
        for path, body in (
            ("/score:batch", {"requests": [{"netlist": bench_text}]}),
            ("/score", {"netlist": bench_text}),
        ):
            status, _, payload = call(srv, path, body)
            assert status == 404
            assert payload == {"error": {"code": "not_found", "message": path}}


class TestExitCodeTaxonomy:
    """The wire and the shell must agree on one failure vocabulary."""

    @pytest.mark.parametrize(
        "exc, want",
        [
            (MalformedRequestError("bad"), 3),
            (PayloadTooLargeError("big"), 3),
            (BenchParseError("broken"), 3),
            (OverloadedError("full"), 4),
            (DeadlineExceededError("late"), 4),
        ],
    )
    def test_exit_codes(self, exc, want):
        assert exit_code_for(exc) == want

    def test_error_payload_shape(self):
        payload = error_payload(
            OverloadedError("queue full"), request_id="r1"
        )
        assert payload["request_id"] == "r1"
        error = payload["error"]
        assert error["code"] == "overloaded"
        assert error["type"] == "OverloadedError"
        assert error["exit_code"] == 4
