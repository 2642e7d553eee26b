"""The ``repro serve`` subprocess the serve workloads drive, and its ``/metrics``."""

from __future__ import annotations

import re
import signal
import subprocess
import sys
from pathlib import Path

from perf import common

_BANNER = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Server:
    """One ``python -m repro serve --model <asset> --port 0 --workers 2`` process."""

    def __init__(self, results_dir: Path, workers: int = 2) -> None:
        from repro.api import ServeClient

        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--model", str(common.ASSET),
                "--port", "0",
                "--workers", str(workers),
            ],
            env=common.child_env(results_dir),
            cwd=str(results_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            host, port = self._read_banner()
            # No retries: a refused call must count as failed, not be hidden.
            self.client = ServeClient.connect(host, port, wait_s=30.0, max_retries=0)
        except BaseException:
            self.stop()
            raise

    def _read_banner(self) -> tuple[str, int]:
        for _ in range(200):
            line = self.process.stdout.readline()
            if not line:
                break
            match = _BANNER.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("repro serve exited before announcing its port")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, read while it is still alive."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def parse_metrics(text: str) -> dict[str, float]:
    """``{series text: value}`` of a Prometheus exposition body.

    The key is the sample line without its value, labels included
    (``repro_serve_requests_total{event="completed"}``).  Deliberately
    lenient: the harness reads six series and must not fail on the rest.
    """
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            values[key.strip()] = float(value)
        except ValueError:
            continue
    return values


def metrics_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-series increase between two scrapes; a series new in ``after`` starts at 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _ratio(delta: dict[str, float], numerator: str, denominator: str) -> float:
    count = delta.get(denominator, 0.0)
    return delta.get(numerator, 0.0) / count if count else 0.0


def service_metrics(delta: dict[str, float], window_s: float) -> dict[str, tuple[float, str]]:
    """The serve-layer numbers a ``/metrics`` delta over ``window_s`` seconds gives."""

    def events(*names: str) -> float:
        return sum(
            delta.get(f'repro_serve_requests_total{{event="{name}"}}', 0.0) for name in names
        )

    return {
        "serve.service.passes": (delta.get("repro_serve_batch_size_count", 0.0), "count"),
        "serve.service.batch_size_mean": (
            _ratio(delta, "repro_serve_batch_size_sum", "repro_serve_batch_size_count"),
            "count",
        ),
        "serve.service.queue_wait_ms_mean": (
            1000.0
            * _ratio(
                delta,
                "repro_serve_batch_linger_seconds_sum",
                "repro_serve_batch_linger_seconds_count",
            ),
            "ms",
        ),
        "serve.requests.rejected": (
            events("rejected_overload", "rejected_admission", "rejected_draining"),
            "count",
        ),
        "serve.requests.expired": (events("expired"), "count"),
        "serve.requests.degraded": (events("degraded"), "count"),
        "core.inference.busy_share": (
            delta.get("repro_inference_seconds_sum", 0.0) / window_s if window_s else 0.0,
            "ratio",
        ),
    }
