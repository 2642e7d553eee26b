"""Trace-propagation units: the captured context and worker span capture."""

from __future__ import annotations

import sys

import pytest

import repro.obs.trace  # noqa: F401 - imported for its sys.modules entry
from repro.obs import logs
from repro.obs.remote import WorkerSpanCapture, capture_obs_context

tr = sys.modules["repro.obs.trace"]


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
