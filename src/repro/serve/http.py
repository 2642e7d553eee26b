"""HTTP surface of the scoring daemon.

Endpoints (the versioned ``/v1`` paths are the contract; see
``docs/architecture.md``):

===================  ======  ===========================================
``/v1/score``        POST    admit + queue + wait; per-node predictions
``/v1/score:batch``  POST    many netlists in one call, coalesced into
                             block-diagonal batches; per-item results
``/score``           POST    deprecated alias of ``/v1/score`` — same
                             body, answers with a ``Deprecation`` header
``/reload``          POST    validate-then-swap a model checkpoint
``/healthz``         GET     liveness: always 200 while the process serves
``/readyz``          GET     readiness: 200 only when accepting traffic
``/metrics``         GET     Prometheus exposition
===================  ======  ===========================================

Every error response carries the structured body from
:func:`~repro.serve.protocol.error_payload` (machine-readable ``code``
plus the CLI's 2/3/4 ``exit_code`` taxonomy); a traceback never reaches a
client.  ``serve()`` is the blocking runner behind ``repro serve``: it
installs a SIGTERM/SIGINT handler that drains (stop accepting, finish
in-flight work, flush responses) and exits 0.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.obs import logs
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve.admission import (
    AdmissionPool,
    ScoreRequest,
    admit,
    admit_batch,
    run_admission,
)
from repro.serve.config import ServeConfig
from repro.serve.models import ModelManager
from repro.serve.protocol import (
    DrainingError,
    MalformedRequestError,
    OverloadedError,
    PayloadTooLargeError,
    encode_json,
    error_payload,
    status_for,
)
from repro.serve.service import ScoringService

__all__ = ["NetlistScoreServer", "serve"]

_log = logs.get_logger("serve")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The NetlistScoreServer that owns this handler's listener.
    @property
    def app(self) -> "NetlistScoreServer":
        return self.server.app  # type: ignore[attr-defined]

    def setup(self) -> None:
        # A socket timeout on every connection: an idle keep-alive client
        # wakes the blocked rfile.readline() (handle_one_request treats the
        # timeout as close_connection), so drain never waits on a reader
        # that has nothing to say.
        self.timeout = self.app.config.keepalive_timeout_s
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.app.config.debug:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    def _respond(
        self, status: int, content_type: str, body: bytes,
        headers: dict | None = None,
    ) -> None:
        """Status line, headers and ``body`` in one write.

        ``wfile`` is unbuffered and the socket has Nagle on: a header
        block sent on its own leaves the body waiting for the peer's
        (delayed) ACK off loopback.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        # Shed persistent connections when draining (so server_close() never
        # joins a handler parked on an idle keep-alive socket) and advertise
        # any close already decided (e.g. a refused, unread body).
        if self.close_connection or self.app.service.draining:
            self.send_header("Connection", "close")
        # end_headers() is this blank line plus flush_headers(); the body
        # rides the same flush.
        self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(body)
        self.flush_headers()

    def _send(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> tuple[float, float]:
        """Send ``payload`` as JSON; returns the seconds spent in
        ``(encode, write)`` for the caller's stage accounting."""
        if getattr(self, "_deprecated_route", False):
            # RFC 8594-style signalling on the unversioned alias; the body
            # and behaviour stay identical to /v1/score until removal.
            headers = {
                "Deprecation": "true",
                "Link": '</v1/score>; rel="successor-version"',
                **(headers or {}),
            }
        started = time.perf_counter()
        body = encode_json(payload)
        encoded = time.perf_counter()
        self._respond(status, "application/json", body, headers)
        return encoded - started, time.perf_counter() - encoded

    def _send_error(self, exc: BaseException, **extra) -> None:
        status, _ = status_for(exc)
        headers = {}
        if isinstance(exc, OverloadedError):
            headers["Retry-After"] = str(exc.retry_after_s)
        self._send(status, error_payload(exc, **extra), headers)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.app.config.max_body_bytes:
            # Refuse before reading an oversized body off the socket.  The
            # unread bytes would be parsed as the next request on a
            # keep-alive connection, so the connection must die with them.
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body is {length} bytes; "
                f"limit is {self.app.config.max_body_bytes}"
            )
        if length <= 0:
            raise MalformedRequestError("request body is empty")
        return self.rfile.read(length)

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send(200, self.app.health())
        elif self.path == "/readyz":
            ready, payload = self.app.readiness()
            self._send(200 if ready else 503, payload)
        elif self.path == "/metrics":
            self._respond(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.app.render_metrics().encode("utf-8"),
            )
        else:
            self._send(404, {"error": {"code": "not_found", "message": self.path}})

    def do_POST(self) -> None:
        self._deprecated_route = self.path == "/score"
        try:
            with logs.request_context():
                if self.path in ("/v1/score", "/score"):
                    self._score()
                elif self.path == "/v1/score:batch":
                    self._score_batch()
                elif self.path == "/reload":
                    self._reload()
                else:
                    self._send(
                        404, {"error": {"code": "not_found", "message": self.path}}
                    )
        except ConnectionError:
            return  # client went away; nothing to answer
        except BaseException as exc:  # never leak a traceback to the wire
            self._send_error(exc)

    def _admit(self, admit_fn):
        """Read this request's body and admit it, holding a gate slot.

        Admission (JSON decode, .bench parse, validation, graph build) is
        real CPU work started from an unbounded per-connection thread —
        the gate bounds it the same way the queue bounds inference.  With
        an admission pool the work happens in a forked worker while this
        thread sleeps off the GIL; without one (embedded servers) it
        happens here.  Either way a 400 / 413 / 422 comes back as a value.

        Returns ``(admitted, stages)``: ``stages`` holds the seconds of
        ``read_body``, of the worker's own ``parse`` / ``validate`` /
        ``build`` (summed over a batch body's members, so lanes that
        overlapped count twice), and ``lane_wait`` — the rest of the
        admission call: waiting for an idle lane, the envelope's JSON
        decode, the frame there and back.
        """
        app = self.app
        if not app.admission_gate.acquire(blocking=False):
            app.service.note_admission_reject()
            raise OverloadedError(
                f"admission gate saturated "
                f"({app.config.admission_capacity} concurrent requests)",
                retry_after_s=app.config.retry_after_s,
            )
        try:
            started = time.perf_counter()
            raw = self._read_body()
            read = time.perf_counter()
            if app.admission_pool is not None:
                outcome = app.admission_pool.run(admit_fn, raw)
            else:
                outcome = run_admission(admit_fn, raw, app.config)
            admitted = time.perf_counter()
        finally:
            app.admission_gate.release()
        if isinstance(outcome, BaseException):
            raise outcome
        stages = dict.fromkeys(
            ("read_body", "lane_wait", "parse", "validate", "build"), 0.0
        )
        stages["read_body"] = read - started
        for _, member in outcome if isinstance(outcome, list) else [(0, outcome)]:
            if isinstance(member, ScoreRequest):  # not a member's own error
                for stage, seconds in member.stages.items():
                    stages[stage] += seconds
        worked = stages["parse"] + stages["validate"] + stages["build"]
        stages["lane_wait"] = max(0.0, admitted - read - worked)
        return outcome, stages

    @staticmethod
    def _score_payload(
        request: ScoreRequest, labels, info: dict, latency_ms: float
    ) -> dict:
        labels = np.asarray(labels)
        payload = {
            "design": request.design,
            "num_nodes": request.graph.num_nodes,
            "num_edges": request.graph.num_edges,
            "positive_count": int(labels.sum()),
            "degraded": bool(info.get("degraded", False)),
            "predictor_level": info.get("predictor_level"),
            "batched": bool(info.get("batched", False)),
            "batch_size": int(info.get("batch_size", 1)),
            "latency_ms": round(latency_ms, 3),
        }
        if request.request_id:
            payload["request_id"] = request.request_id
        if "reason" in info:
            payload["degraded_reason"] = info["reason"]
        if request.warnings:
            payload["warnings"] = request.warnings
        if request.return_predictions:
            payload["predictions"] = labels.tolist()
        return payload

    def _finish(self, payload: dict, stages: dict | None, began: float) -> None:
        """Answer a scoring call: latency sample, stage samples, ``stages_ms``.

        Everything is observed before the response is written, so a
        scrape racing the client never sees a 200 whose samples are
        missing — except ``encode`` and ``write``, which are only known
        afterwards and so reach the histogram but not the echo.
        ``stages`` is None for a batch call none of whose members was
        scored: its body is its members' errors and nothing else.
        """
        self.app.request_latency.observe(time.perf_counter() - began)
        if stages is None:
            self._send(200, payload)
            return
        observe = self.app.stage_seconds.labels
        for stage, seconds in stages.items():
            observe(stage).observe(seconds)
        payload["stages_ms"] = {
            stage: round(seconds * 1000.0, 3) for stage, seconds in stages.items()
        }
        encode_s, write_s = self._send(200, payload)
        observe("encode").observe(encode_s)
        observe("write").observe(write_s)

    def _score(self) -> None:
        service = self.app.service
        if service.draining:
            raise DrainingError("server is draining; not accepting new work")
        began = time.perf_counter()
        request, stages = self._admit(admit)
        start = time.perf_counter()
        try:
            labels, info = service.score(request)
        except Exception as exc:
            # Echo the correlation id on post-admission failures too.
            if request.request_id:
                self._send_error(exc, request_id=request.request_id)
                return
            raise
        latency_ms = (time.perf_counter() - start) * 1000.0
        stages.update(info.get("stages", {}))
        self._finish(self._score_payload(request, labels, info, latency_ms), stages, began)

    def _score_batch(self) -> None:
        """``/v1/score:batch``: enqueue every member at once, then wait on each.

        :meth:`~repro.serve.service.ScoringService.submit_many` puts the
        admitted members in the queue in one critical section, so one
        worker takes them as one pass; per-item failures (malformed
        netlist, deadline, queue overflow) become per-item error entries
        so one bad member never rejects its neighbours.
        """
        service = self.app.service
        if service.draining:
            raise DrainingError("server is draining; not accepting new work")
        began = time.perf_counter()
        items, stages = self._admit(admit_batch)
        jobs = iter(
            service.submit_many(
                [item for _, item in items if isinstance(item, ScoreRequest)]
            )
        )
        results = []
        ok = 0
        slowest: dict = {}  # scoring stages of the member that took longest
        for index, item in items:
            request, outcome = (
                (item, next(jobs)) if isinstance(item, ScoreRequest) else (None, item)
            )
            if not isinstance(outcome, BaseException):
                start = time.perf_counter()
                try:
                    labels, info = service.wait_for(outcome)
                except Exception as exc:
                    outcome = exc
                else:
                    latency_ms = (time.perf_counter() - start) * 1000.0
                    entry = self._score_payload(request, labels, info, latency_ms)
                    entry["index"] = index
                    results.append(entry)
                    ok += 1
                    scoring = info.get("stages", {})
                    if sum(scoring.values()) >= sum(slowest.values()):
                        slowest = scoring
                    continue
            status, _ = status_for(outcome)
            entry = error_payload(outcome)
            entry["index"] = index
            entry["status"] = status
            if request is not None and request.request_id:
                entry["request_id"] = request.request_id
            results.append(entry)
        stages.update(slowest)
        self._finish(
            {"results": results, "count": len(results), "ok": ok},
            stages if ok else None,
            began,
        )

    def _reload(self) -> None:
        raw = self._read_body()
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedRequestError(
                f"reload body is not valid JSON ({exc})"
            ) from exc
        if not isinstance(body, dict) or not isinstance(body.get("path"), str):
            raise MalformedRequestError('reload body must be {"path": "<model.npz>"}')
        try:
            description = self.app.manager.reload(body["path"])
        except Exception as exc:
            # Validation failed before the swap: last-good keeps serving.
            self._send_error(exc, rollback=self.app.manager.describe())
            return
        self._send(200, {"status": "reloaded", "model": description})


class _Server(ThreadingHTTPServer):
    # Join handler threads on server_close() so every in-flight response
    # is flushed before a drained process exits.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class NetlistScoreServer:
    """The assembled daemon: listener + scoring service + model manager."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        manager: ModelManager | None = None,
        model_path=None,
        registry: MetricsRegistry | None = None,
        admission_pool: AdmissionPool | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        #: forked admission workers (``serve()`` passes them in, forked
        #: before this constructor maps shared memory and starts threads);
        #: None admits in the handler thread.  Closed with the server.
        self.admission_pool = admission_pool
        self.manager = manager or ModelManager(
            model_path,
            breaker_threshold=self.config.breaker_threshold,
            breaker_reset_s=self.config.breaker_reset_s,
        )
        # Per-instance registry so parallel test servers never share counts;
        # /metrics also appends the process-default registry (library
        # instrumentation like inference spans land there).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.service = ScoringService(self.manager, self.config, registry=self.registry)
        self.request_latency = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "wall time of scoring requests, admission through response",
        )
        #: where a scored call's wall time went, one sample per call and
        #: stage; all but ``encode`` / ``write`` are echoed as ``stages_ms``
        self.stage_seconds = self.registry.histogram(
            "repro_stage_seconds",
            "wall time of one scored call by stage (read_body, lane_wait, "
            "parse, validate, build, queue_wait, merge, predict, encode, write)",
            labelnames=("stage",),
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                     0.025, 0.05, 0.1, 0.25, 1.0),
        )
        self.admission_gate = threading.BoundedSemaphore(
            self.config.admission_capacity
        )
        self._httpd = _Server((self.config.host, self.config.port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._drained = threading.Event()
        self._drain_clean = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._httpd.server_address[:2]

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        self.service.ensure_workers()
        return {
            "status": "draining" if self.service.draining else "ok",
            "model": self.manager.describe(),
            "service": self.service.snapshot(),
        }

    def render_metrics(self) -> str:
        """Prometheus text for this server plus the process-default registry."""
        # Register the execution fabric's recovery counters eagerly so the
        # families are scrapeable before the first worker failure.
        from repro.exec import ensure_exec_metrics
        from repro.obs.remote import ensure_obs_metrics

        ensure_exec_metrics()
        ensure_obs_metrics()
        text = self.registry.render_prometheus()
        default = get_registry()
        if default is not self.registry:
            text += default.render_prometheus()
        return text

    def readiness(self) -> tuple[bool, dict]:
        ready = not self.service.draining and self.service.workers_alive() > 0
        payload = {"ready": ready}
        if self.service.draining:
            payload["reason"] = "draining"
        elif not ready:
            payload["reason"] = "no live workers"
        return ready, payload

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Serve in a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-listener", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`drain_and_stop`."""
        self._httpd.serve_forever()

    def drain_and_stop(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, stop.

        Returns True when all accepted work completed within ``timeout``.
        """
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        clean = self.service.drain(timeout=timeout)
        self._httpd.shutdown()  # stop the accept loop
        self._httpd.server_close()  # join handler threads, flush responses
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._release()
        self._drain_clean = clean  # published before the event: see wait_drained
        self._drained.set()
        return clean

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until :meth:`drain_and_stop` finished; True iff it was clean.

        ``serve_forever()`` returns as soon as the drain thread calls
        ``shutdown()`` — *before* handler threads are joined and the drain
        outcome is known — so the exit code must come from here, not from
        whatever the drain thread has written so far.
        """
        if not self._drained.wait(timeout):
            return False
        return self._drain_clean

    def close(self) -> None:
        """Immediate teardown (tests); in-flight work is abandoned."""
        self.service.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._release()

    def _release(self) -> None:
        """What outlives the handler threads: admission workers, weights."""
        if self.admission_pool is not None:
            self.admission_pool.close()
        self.manager.close()  # release the shared-memory weight segments


def serve(
    config: ServeConfig | None = None,
    model_path=None,
    install_signals: bool = True,
    announce=None,
) -> int:
    """Blocking runner behind ``repro serve``; returns the exit status.

    Forks ``config.workers`` admission workers first
    (:class:`~repro.serve.admission.AdmissionPool`), then builds the server
    around them; embedded servers (``NetlistScoreServer`` alone) fork
    nothing and admit in their handler threads.

    SIGTERM/SIGINT initiate the drain sequence from a helper thread (the
    signal handler itself only sets it off): stop accepting, finish every
    accepted request, flush responses, end the admission workers, exit 0.

    ``announce`` is called with the one-line startup banner once the socket
    is bound; the CLI passes ``print`` so wrappers (smoke tests, systemd
    logs) can watch stdout for readiness regardless of log configuration.
    """
    config = config or ServeConfig()
    # Forked first: the workers must inherit no thread's held lock and no
    # shared-memory mapping, and the server below creates both.
    pool = AdmissionPool(config)
    try:
        server = NetlistScoreServer(
            config=config, model_path=model_path, admission_pool=pool
        )
    except BaseException:
        pool.close()
        raise

    def _on_signal(signum, frame):
        threading.Thread(
            target=server.drain_and_stop, name="serve-drain", daemon=True
        ).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    host, port = server.address
    model = server.manager.describe()
    banner = (
        f"repro-serve listening on http://{host}:{port} "
        f"(model level={model['level']}, workers={server.config.workers}, "
        f"queue={server.config.queue_capacity})"
    )
    _log.info(
        "listening",
        extra={
            "host": host,
            "port": port,
            "model_level": model["level"],
            "workers": server.config.workers,
            "queue": server.config.queue_capacity,
        },
    )
    if announce is not None:
        announce(banner)
    server.serve_forever()  # returns once the drain thread calls shutdown()
    # Handler threads are still being joined at this point; wait for the
    # drain to actually finish before deciding the exit status.  The join
    # is bounded by the keep-alive timeout, so cap the wait accordingly.
    clean = server.wait_drained(timeout=server.config.keepalive_timeout_s + 30.0)
    return 0 if clean else 1
