"""Typed client for the scoring daemon's versioned ``/v1`` API.

:class:`ServeClient` is the supported way for scripts, examples and
pipelines to talk to ``repro serve`` — the boundary lint
(``scripts/check_api_boundaries.py``) rejects hand-rolled HTTP against
the serve endpoints outside this module.  It speaks only the versioned
contract (``/v1/score``, ``/v1/score:batch``, ``/healthz``, ``/readyz``,
``/metrics``) and gives callers:

* **connect** — :meth:`ServeClient.connect` waits for a freshly spawned
  server to answer ``/healthz``, replacing every ad-hoc poll loop;
* **retry on 429** — overload and admission-gate rejections are retried
  honouring the server's ``Retry-After`` header, within the caller's
  deadline;
* **deadline propagation** — one ``deadline_ms`` both rides the request
  envelope (server-side queue deadline) and bounds the client-side
  socket wait, so a hung connection cannot outlive the request budget;
* **typed results** — :class:`ServeScore` wraps the facade's
  :class:`~repro.api.ScoreResult` plus the serving metadata (degraded
  flag, predictor level, batching provenance), and failures raise
  :class:`ServeClientError` carrying the structured error body (machine
  ``code`` plus the CLI's 2/3/4 ``exit_code`` taxonomy).

``urllib`` is used deliberately: the client must not grow dependencies
the library itself does not have.
"""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.resilience.errors import ReproError

__all__ = ["ServeClient", "ServeClientError", "ServeScore"]

#: ceiling on one honoured ``Retry-After`` pause, so a misconfigured
#: server cannot park a client for minutes per attempt
_MAX_RETRY_PAUSE_S = 5.0


class ServeClientError(ReproError, RuntimeError):
    """A request the server answered with a structured error body."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        code: str = "",
        exit_code: int = 4,
        request_id: str = "",
        body: dict | None = None,
        headers: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status  #: HTTP status, 0 when the transport failed
        self.code = code  #: machine-readable error code (``overloaded``, ...)
        self.exit_code = exit_code  #: the CLI's 2/3/4 taxonomy
        self.request_id = request_id
        self.body = body or {}
        self.headers = headers or {}  #: response headers (``Retry-After``, ...)


@dataclass
class ServeScore:
    """One scored netlist: facade result + serving metadata."""

    result: "ScoreResult"  #: the facade's typed result (labels, proba, ...)
    design: str
    num_nodes: int
    positive_count: int
    degraded: bool
    predictor_level: str | None
    batched: bool  #: served from a coalesced block-diagonal pass
    latency_ms: float  #: server-side scoring latency
    request_id: str = ""
    warnings: list[str] = field(default_factory=list)
    batch_size: int = 1  #: netlists in the scoring pass that served this one
    #: where the call's server-side time went, by stage (``queue_wait``,
    #: ``predict``, ...); one breakdown per call, shared by a batch's members
    stages_ms: dict[str, float] = field(default_factory=dict)

    @property
    def labels(self):
        return self.result.labels

    @property
    def n_positive(self) -> int:
        return self.positive_count


def _netlist_text(netlist) -> str:
    """Accept ``.bench`` text or a :class:`~repro.circuit.Netlist`."""
    if isinstance(netlist, str):
        return netlist
    from repro.circuit import write_bench

    stream = io.StringIO()
    write_bench(netlist, stream)
    return stream.getvalue()


class ServeClient:
    """HTTP client bound to one scoring daemon.

    ``deadline_ms`` set here is the default for every request; per-call
    arguments override it.  The client is stateless between calls (one
    connection per request), so it is safe to share across threads.
    """

    def __init__(
        self,
        base_url: str,
        deadline_ms: int | None = None,
        max_retries: int = 3,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        wait_s: float = 10.0,
        deadline_ms: int | None = None,
        max_retries: int = 3,
    ) -> "ServeClient":
        """Build a client and wait until ``/healthz`` answers.

        Polls through connection-refused (a just-spawned server that has
        not bound yet) for up to ``wait_s`` seconds; raises
        :class:`ServeClientError` if the server never comes up.
        """
        client = cls(
            f"http://{host}:{port}", deadline_ms=deadline_ms, max_retries=max_retries
        )
        deadline = time.monotonic() + wait_s
        while True:
            try:
                client.health()
                return client
            except (ServeClientError, OSError):
                if time.monotonic() >= deadline:
                    raise ServeClientError(
                        f"server at {client.base_url} not healthy within {wait_s}s"
                    ) from None
                time.sleep(0.05)

    # ------------------------------------------------------------------ #
    def _http(
        self, method: str, path: str, body: bytes | None, timeout_s: float
    ) -> tuple[int, dict, dict]:
        """One raw exchange: ``(status, headers, decoded-json)``.

        4xx/5xx responses are returned, not raised — the retry loop and
        the typed-error mapping live in :meth:`_request`.
        """
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as response:
                raw = response.read()
                status, headers = response.status, dict(response.headers)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status, headers = exc.code, dict(exc.headers)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {}
        return status, headers, payload

    def _request(
        self, method: str, path: str, payload: dict | None, deadline_ms: int | None
    ) -> dict:
        """Exchange with 429 retry (honouring ``Retry-After``) + deadline.

        The socket timeout is the request deadline plus a small margin:
        the server already answers 504 at the deadline, the margin only
        covers the response's flight time.
        """
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        timeout_s = 30.0 if deadline_ms is None else deadline_ms / 1000.0 + 5.0
        give_up = time.monotonic() + (
            timeout_s if deadline_ms is None else deadline_ms / 1000.0
        )
        attempt = 0
        while True:
            try:
                status, headers, decoded = self._http(method, path, body, timeout_s)
            except OSError as exc:
                raise ServeClientError(
                    f"{method} {path} failed: {exc}", body={}
                ) from exc
            if status == 429 and attempt < self.max_retries:
                attempt += 1
                try:
                    pause = float(headers.get("Retry-After", 1))
                except ValueError:
                    pause = 1.0
                pause = min(max(pause, 0.0), _MAX_RETRY_PAUSE_S)
                if time.monotonic() + pause < give_up:
                    time.sleep(pause)
                    continue
            if status >= 400:
                raise _client_error(status, decoded, headers)
            return decoded

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The server's ``/healthz`` body (model provenance, depths)."""
        return self._request("GET", "/healthz", None, deadline_ms=None)

    def metrics(self) -> str:
        """Raw Prometheus exposition text from ``/metrics``."""
        request = urllib.request.Request(f"{self.base_url}/metrics")
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.read().decode("utf-8")

    def reload(self, path) -> dict:
        """Hot-swap the serving model via ``/reload`` (validate-then-swap).

        A rejected candidate raises :class:`ServeClientError` whose
        ``body["rollback"]`` records the still-serving last-good model.
        """
        return self._request("POST", "/reload", {"path": str(path)}, None)

    def score(
        self,
        netlist,
        design: str = "request",
        deadline_ms: int | None = None,
        batchable: bool = True,
        request_id: str = "",
        return_predictions: bool = True,
        debug_sleep_ms: int = 0,
    ) -> ServeScore:
        """Score one netlist (``.bench`` text or a ``Netlist``) via ``/v1/score``.

        ``debug_sleep_ms`` is the fault-injection knob honoured only by
        ``--debug`` servers (smoke tests); production servers reject it.
        """
        deadline_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        payload = self._envelope(
            netlist, design, deadline_ms, batchable, request_id, return_predictions
        )
        if debug_sleep_ms:
            payload["debug_sleep_ms"] = int(debug_sleep_ms)
        body = self._request("POST", "/v1/score", payload, deadline_ms)
        return _serve_score(body)

    def score_many(
        self,
        netlists,
        design: str = "request",
        deadline_ms: int | None = None,
        batchable: bool = True,
        return_predictions: bool = True,
        strict: bool = True,
    ) -> list["ServeScore | ServeClientError"]:
        """Score a set of netlists in one ``/v1/score:batch`` call.

        Results come back in submission order.  With ``strict`` (the
        default) the first failed member raises its
        :class:`ServeClientError`; with ``strict=False`` failed members
        appear in the list as the error object so callers can salvage
        the rest.
        """
        deadline_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        payload = {
            "requests": [
                self._envelope(
                    netlist,
                    f"{design}[{i}]" if len(netlists) > 1 else design,
                    deadline_ms,
                    batchable,
                    "",
                    return_predictions,
                )
                for i, netlist in enumerate(netlists)
            ]
        }
        body = self._request("POST", "/v1/score:batch", payload, deadline_ms)
        results: list[ServeScore | ServeClientError] = []
        for entry in sorted(body.get("results", []), key=lambda e: e.get("index", 0)):
            if "error" in entry:
                error = _client_error(int(entry.get("status", 500)), entry)
                if strict:
                    raise error
                results.append(error)
            else:
                results.append(_serve_score(entry, body.get("stages_ms")))
        return results

    @staticmethod
    def _envelope(
        netlist,
        design: str,
        deadline_ms: int | None,
        batchable: bool,
        request_id: str,
        return_predictions: bool,
    ) -> dict:
        payload = {
            "netlist": _netlist_text(netlist),
            "design": design,
            "batchable": batchable,
            "return_predictions": return_predictions,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = int(deadline_ms)
        if request_id:
            payload["request_id"] = request_id
        return payload


def _client_error(
    status: int, body: dict, headers: dict | None = None
) -> ServeClientError:
    error = body.get("error") or {}
    return ServeClientError(
        error.get("message") or f"server answered HTTP {status}",
        status=status,
        code=error.get("code", ""),
        exit_code=int(error.get("exit_code", 4)),
        request_id=str(body.get("request_id", "")),
        body=body,
        headers=headers,
    )


def _serve_score(body: dict, stages_ms: dict | None = None) -> ServeScore:
    import numpy as np

    # Deferred: repro.api re-exports ServeClient, so importing it at
    # module level here would be circular.
    from repro.api import ScoreResult

    predictions = body.get("predictions")
    labels = np.asarray(
        predictions if predictions is not None else [], dtype=np.int64
    )
    result = ScoreResult(
        labels=labels,
        proba=None,
        logits=None,
        backend="serve",
        model_kind=str(body.get("predictor_level") or "unknown"),
    )
    return ServeScore(
        result=result,
        design=str(body.get("design", "")),
        num_nodes=int(body.get("num_nodes", 0)),
        positive_count=int(body.get("positive_count", 0)),
        degraded=bool(body.get("degraded", False)),
        predictor_level=body.get("predictor_level"),
        batched=bool(body.get("batched", False)),
        latency_ms=float(body.get("latency_ms", 0.0)),
        request_id=str(body.get("request_id", "")),
        warnings=list(body.get("warnings", [])),
        batch_size=int(body.get("batch_size", 1)),
        stages_ms=dict(stages_ms or body.get("stages_ms") or {}),
    )
