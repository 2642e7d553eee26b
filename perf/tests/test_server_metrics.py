import pytest

from perf import server

BEFORE = """\
# HELP repro_serve_requests_total scoring requests by lifecycle event
# TYPE repro_serve_requests_total counter
repro_serve_requests_total{event="completed"} 4
repro_serve_requests_total{event="rejected_overload"} 0
repro_serve_batch_size_sum 4
repro_serve_batch_size_count 4
repro_serve_batch_linger_seconds_sum 0.02
repro_serve_batch_linger_seconds_count 4
repro_inference_seconds_sum 0.5
"""

AFTER = """\
# TYPE repro_serve_requests_total counter
repro_serve_requests_total{event="completed"} 104
repro_serve_requests_total{event="rejected_overload"} 2
repro_serve_requests_total{event="rejected_admission"} 1
repro_serve_requests_total{event="expired"} 3
repro_serve_requests_total{event="degraded"} 5
repro_serve_batch_size_sum 104
repro_serve_batch_size_count 24
repro_serve_batch_linger_seconds_sum 0.52
repro_serve_batch_linger_seconds_count 104
repro_inference_seconds_sum 4.5
not a sample line
"""


def test_parse_keeps_labels_in_the_key_and_skips_what_it_cannot_read():
    parsed = server.parse_metrics(AFTER)
    assert parsed['repro_serve_requests_total{event="completed"}'] == 104.0
    assert "not a sample" not in " ".join(parsed)


def test_delta_over_a_window():
    delta = server.metrics_delta(server.parse_metrics(BEFORE), server.parse_metrics(AFTER))
    # A series that first appears in the second scrape started at zero.
    assert delta['repro_serve_requests_total{event="expired"}'] == 3.0
    metrics = {k: v for k, (v, _) in server.service_metrics(delta, window_s=10.0).items()}
    assert metrics["serve.service.passes"] == 20.0
    assert metrics["serve.service.batch_size_mean"] == pytest.approx(5.0)
    assert metrics["serve.service.queue_wait_ms_mean"] == pytest.approx(5.0)
    assert metrics["serve.requests.rejected"] == 3.0
    assert metrics["serve.requests.expired"] == 3.0
    assert metrics["serve.requests.degraded"] == 5.0
    assert metrics["core.inference.busy_share"] == pytest.approx(0.4)


def test_an_idle_window_divides_by_nothing():
    metrics = server.service_metrics({}, window_s=0.0)
    assert all(value == 0.0 for value, _ in metrics.values())
