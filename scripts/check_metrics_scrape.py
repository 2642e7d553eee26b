#!/usr/bin/env python
"""CI gate: the ``/metrics`` scrape must satisfy strict Prometheus 0.0.4.

Two sections:

1. **In-process**: populate a registry the way the library actually does
   — the execution-fabric, net, and observability-plane pre-registration
   helpers, plus families holding adversarial label values (``\\``,
   ``"``, newlines) and an exercised histogram — render it, and run
   :mod:`repro.obs.promtext` over the output.

2. **End-to-end**: boot the serve daemon on a loopback port, ``GET
   /metrics`` over real HTTP, and validate the scrape body the same way
   (this covers the per-server registry + process-default concatenation
   in ``render_metrics``).

Exits non-zero with a one-line FAIL diagnostic on the first violation.
"""

from __future__ import annotations

import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def check_inprocess() -> int:
    from repro.exec import ensure_exec_metrics
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.obs.promtext import parse_prometheus, validate
    from repro.obs.remote import ensure_obs_metrics

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        ensure_exec_metrics()
        ensure_obs_metrics()
        adversarial = registry.counter(
            "repro_scrape_check_total",
            'help with a \\ backslash and "quotes"\nand a newline',
            labelnames=("path",),
        )
        adversarial.labels('C:\\netlists\\"b1"\nline2').inc()
        adversarial.labels("plain").inc(2)
        hist = registry.histogram(
            "repro_scrape_check_seconds",
            "exercised histogram",
            labelnames=("mode",),
            buckets=(0.1, 1.0, 10.0),
        )
        for mode, value in (("a", 0.05), ("a", 5.0), ("b", 50.0)):
            hist.labels(mode).observe(value)
        body = registry.render_prometheus()
    finally:
        set_registry(previous)
    problems = validate(body)
    if problems:
        return fail(f"in-process scrape invalid: {problems[0]}")
    families = parse_prometheus(body)
    expected = (
        "repro_obs_telemetry_dropped_total",
        "repro_scrape_check_total",
        "repro_scrape_check_seconds",
    )
    for name in expected:
        if name not in families:
            return fail(f"in-process scrape missing family {name}")
    roundtrip = {
        dict(labels).get("path")
        for _, labels, _ in families["repro_scrape_check_total"]["samples"]
    }
    if 'C:\\netlists\\"b1"\nline2' not in roundtrip:
        return fail("adversarial label value did not round-trip")
    print(
        f"in-process scrape ok: {len(families)} families, "
        "adversarial labels round-trip"
    )
    return 0


def check_serve() -> int:
    from repro.obs.promtext import parse_prometheus, validate
    from repro.serve import NetlistScoreServer, ServeConfig

    config = ServeConfig(host="127.0.0.1", port=0, workers=1)
    server = NetlistScoreServer(config=config)
    server.start()
    try:
        host, port = server.address
        url = f"http://{host}:{port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode()
    finally:
        server.close()
    problems = validate(body)
    if problems:
        return fail(f"serve /metrics scrape invalid: {problems[0]}")
    families = parse_prometheus(body)
    if not any(name.startswith("repro_serve_") for name in families):
        return fail("serve scrape carries no repro_serve_* families")
    if "repro_obs_telemetry_dropped_total" not in families:
        return fail("serve scrape missing observability-plane families")
    print(f"serve /metrics scrape ok: {len(families)} families over HTTP")
    return 0


def main() -> int:
    status = check_inprocess()
    if status:
        return status
    return check_serve()


if __name__ == "__main__":
    sys.exit(main())
