"""Telemetry-plane units: span capture, deltas, buffers, envelopes."""

from __future__ import annotations

import logging
import sys
import threading

import pytest

import repro.obs.trace  # noqa: F401 - imported for its sys.modules entry
from repro.obs import logs
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.remote import (
    FLEET_PREFIX,
    ForwardingLogHandler,
    MetricsDeltaTracker,
    TelemetryBuffer,
    TelemetryForwarder,
    WorkerSpanCapture,
    absorb_telemetry,
    capture_obs_context,
    merge_fleet_delta,
)

tr = sys.modules["repro.obs.trace"]


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


def _value(registry, name, **labels):
    total = 0.0
    snap = registry.snapshot()
    for sample in snap.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


# --------------------------------------------------------------------- #
class TestObsContext:
    def test_none_when_unobserved(self):
        assert logs.get_run_id() is None
        assert capture_obs_context() is None

    def test_run_id_without_trace(self):
        with logs.run_context("run-abc"):
            assert capture_obs_context() == ("run-abc", False)

    def test_trace_without_run_id(self):
        with tr.trace("root", register_last=False):
            assert capture_obs_context() == (None, True)


class TestWorkerSpanCapture:
    def test_noop_on_none_context(self):
        with WorkerSpanCapture(None, "exec.task") as capture:
            assert tr.current_span() is None
        assert capture.span_dict is None

    def test_captures_detached_subtree(self):
        before = tr.last_trace()
        with WorkerSpanCapture(("run-x", True), "exec.task", task="t0") as cap:
            assert logs.get_run_id() == "run-x"
            with tr.span("shard"):
                pass
        assert logs.get_run_id() is None
        assert cap.span_dict["name"] == "exec.task"
        assert cap.span_dict["attrs"]["task"] == "t0"
        assert [c["name"] for c in cap.span_dict["children"]] == ["shard"]
        # Detached: the submitting process's last_trace is untouched.
        assert tr.last_trace() is before

    def test_error_recorded_on_span(self):
        with pytest.raises(RuntimeError):
            with WorkerSpanCapture(("run-x", True), "exec.task") as cap:
                raise RuntimeError("boom")
        assert "boom" in cap.span_dict["attrs"]["error"]

    def test_run_id_only_context_skips_tracing(self):
        with WorkerSpanCapture(("run-y", False), "exec.task") as cap:
            assert logs.get_run_id() == "run-y"
            assert tr.current_span() is None
        assert cap.span_dict is None


# --------------------------------------------------------------------- #
class TestMetricsDeltaTracker:
    def test_counter_and_histogram_deltas(self, registry):
        counter = registry.counter("repro_unit_total", "", ("kind",))
        counter.labels("a").inc(3)
        tracker = MetricsDeltaTracker(registry)
        assert tracker.delta() is None  # baseline consumed pre-existing state
        counter.labels("a").inc(2)
        hist = registry.histogram("repro_unit_seconds", "", buckets=(1.0,))
        hist.observe(0.5)
        delta = tracker.delta()
        assert delta["repro_unit_total"]["samples"] == [[["a"], 2.0]]
        counts, total = delta["repro_unit_seconds"]["samples"][0][1]
        assert counts == [1, 0] and total == 0.5
        assert tracker.delta() is None  # quiet again

    def test_gauge_forwards_absolute_value(self, registry):
        gauge = registry.gauge("repro_unit_gauge", "")
        tracker = MetricsDeltaTracker(registry)
        gauge.set(7)
        delta = tracker.delta()
        assert delta["repro_unit_gauge"]["samples"] == [[[], 7.0]]
        gauge.set(3)  # down, not a delta — absolute value travels
        assert delta_value(tracker) == 3.0

    def test_fleet_families_never_reforwarded(self, registry):
        tracker = MetricsDeltaTracker(registry)
        registry.counter(FLEET_PREFIX + "unit_total", "", ("worker",)).labels(
            "w0"
        ).inc()
        registry.counter("repro_plain_total", "").inc()
        delta = tracker.delta()
        assert "repro_plain_total" in delta
        assert not any(name.startswith(FLEET_PREFIX) for name in delta)


def delta_value(tracker):
    delta = tracker.delta()
    return delta["repro_unit_gauge"]["samples"][0][1]


# --------------------------------------------------------------------- #
class TestMergeFleetDelta:
    def test_counter_gauge_histogram_merge(self, registry):
        delta = {
            "repro_unit_total": {
                "kind": "counter",
                "labelnames": ["kind"],
                "samples": [[["a"], 2.0]],
            },
            "repro_unit_gauge": {
                "kind": "gauge",
                "labelnames": [],
                "samples": [[[], 5.0]],
            },
            "repro_unit_seconds": {
                "kind": "histogram",
                "labelnames": [],
                "buckets": [1.0],
                "samples": [[[], [[1, 1], 3.0]]],
            },
        }
        merged = merge_fleet_delta("w0", delta, registry)
        assert merged == 3
        assert _value(registry, "repro_fleet_unit_total", worker="w0", kind="a") == 2.0
        assert _value(registry, "repro_fleet_unit_gauge", worker="w0") == 5.0
        snap = registry.snapshot()
        hist = snap["repro_fleet_unit_seconds"]["samples"][0]
        assert hist["labels"] == {"worker": "w0"}
        assert hist["count"] == 2 and hist["sum"] == 3.0
        # A second delta accumulates instead of overwriting.
        merge_fleet_delta("w0", delta, registry)
        assert _value(registry, "repro_fleet_unit_total", worker="w0", kind="a") == 4.0

    def test_malformed_family_counted_not_raised(self, registry):
        delta = {"repro_bad_total": {"kind": "nonsense", "samples": []}}
        assert merge_fleet_delta("w1", delta, registry) == 0
        assert (
            _value(registry, "repro_obs_telemetry_malformed_total", worker="w1")
            == 1.0
        )


# --------------------------------------------------------------------- #
class TestTelemetryBuffer:
    def test_drops_beyond_capacity_and_counts(self, registry):
        buf = TelemetryBuffer(capacity=2, worker_id="w0")
        assert buf.offer({"n": 1}) and buf.offer({"n": 2})
        assert not buf.offer({"n": 3})
        assert not buf.offer({"n": 4})
        assert buf.dropped == 2
        assert len(buf) == 2
        assert (
            _value(registry, "repro_obs_telemetry_dropped_total", worker="w0")
            == 2.0
        )
        assert [r["n"] for r in buf.drain()] == [1, 2]
        assert len(buf) == 0
        assert buf.offer({"n": 5})  # capacity freed by the drain

    def test_capacity_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TELEMETRY_BUFFER", "7")
        assert TelemetryBuffer().capacity == 7
        monkeypatch.delenv("REPRO_OBS_TELEMETRY_BUFFER")
        assert TelemetryBuffer().capacity == 256
        assert TelemetryBuffer(capacity=0).capacity == 1  # floor, never 0

    def test_offer_never_blocks_under_contention(self, registry):
        buf = TelemetryBuffer(capacity=8, worker_id="w0")
        errors: list[Exception] = []

        def hammer():
            try:
                for i in range(500):
                    buf.offer({"i": i})
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(buf) + buf.dropped == 4 * 500


class TestForwardingLogHandler:
    def test_captures_repro_records_as_dicts(self, registry):
        buf = TelemetryBuffer(capacity=16, worker_id="w0")
        handler = ForwardingLogHandler(buf)
        logger = logging.getLogger("repro")
        logger.addHandler(handler)
        try:
            logs.get_logger("unit").warning("hello %s", "fleet", extra={"k": 1})
        finally:
            logger.removeHandler(handler)
        records = buf.drain()
        assert len(records) == 1
        assert records[0]["message"] == "hello fleet"
        assert records[0]["component"] == "unit"
        assert records[0]["k"] == 1

    def test_skips_reemitted_fleet_records(self, registry):
        buf = TelemetryBuffer(capacity=16, worker_id="w0")
        handler = ForwardingLogHandler(buf)
        logger = logging.getLogger("repro")
        logger.addHandler(handler)
        try:
            # absorb_telemetry re-emits under fleet.* with a fleet_worker
            # marker; a loopback fleet must not forward its own forwards.
            absorb_telemetry(
                "w1",
                {"logs": [{"level": "warning", "component": "unit",
                           "message": "from afar"}]},
                registry,
            )
        finally:
            logger.removeHandler(handler)
        assert buf.drain() == []
        assert (
            _value(registry, "repro_obs_telemetry_batches_total", worker="w1")
            == 1.0
        )


class TestAbsorbTelemetry:
    def test_malformed_batch_counted_never_raises(self, registry):
        absorb_telemetry("w2", {"logs": ["not-a-dict"]}, registry)
        assert (
            _value(registry, "repro_obs_telemetry_malformed_total", worker="w2")
            == 1.0
        )

    def test_empty_batch_is_a_noop(self, registry):
        absorb_telemetry("w2", None, registry)
        absorb_telemetry("w2", {}, registry)
        assert (
            _value(registry, "repro_obs_telemetry_batches_total", worker="w2")
            == 0.0
        )

    def test_metric_delta_lands_as_fleet_family(self, registry):
        absorb_telemetry(
            "w3",
            {"metrics": {"repro_unit_total": {
                "kind": "counter", "labelnames": [], "samples": [[[], 4.0]],
            }}},
            registry,
        )
        assert _value(registry, "repro_fleet_unit_total", worker="w3") == 4.0


class TestForwarder:
    def test_collect_returns_none_when_quiet(self, registry):
        forwarder = TelemetryForwarder("w0", capacity=8, registry=registry)
        with forwarder:
            assert forwarder.collect() is None
            registry.counter("repro_unit_total", "").inc()
            batch = forwarder.collect()
        assert batch["worker"] == "w0"
        assert batch["metrics"]["repro_unit_total"]["samples"] == [[[], 1.0]]
        assert forwarder.collect() is None
