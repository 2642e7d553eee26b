"""Run manifests: fingerprints, atomic writes, the RunRecorder protocol."""

import json

import pytest

from repro.obs import manifest as mf
from repro.obs.metrics import MetricsRegistry


class FakeGraph:
    def __init__(self, name, num_nodes, num_edges):
        self.name = name
        self.num_nodes = num_nodes
        self.num_edges = num_edges


class TestGitSha:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        assert mf.git_sha() == "cafebabe"

    def test_in_repo_or_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        sha = mf.git_sha()
        assert sha is None or len(sha) == 40


class TestDatasetFingerprint:
    def test_order_invariant(self):
        a = [FakeGraph("x", 10, 20), FakeGraph("y", 5, 8)]
        b = list(reversed(a))
        assert (
            mf.dataset_fingerprint(a)["sha256"] == mf.dataset_fingerprint(b)["sha256"]
        )

    def test_sensitive_to_shape(self):
        a = mf.dataset_fingerprint([FakeGraph("x", 10, 20)])
        b = mf.dataset_fingerprint([FakeGraph("x", 11, 20)])
        assert a["sha256"] != b["sha256"]
        assert a["designs"][0] == {"name": "x", "num_nodes": 10, "num_edges": 20}


class TestRunRecorder:
    def test_writes_manifest_and_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        reg = MetricsRegistry()
        reg.counter("demo_total", "x").inc(3)
        with mf.RunRecorder(
            "unit",
            command="pytest",
            config={"k": 1},
            seed=7,
            registry=reg,
            results_root=tmp_path,
            run_id="unit-run",
        ) as run:
            from repro.obs.trace import span

            with span("unit.work", items=2):
                pass
            run.set_dataset([FakeGraph("g", 4, 6)])
            run.note(final_metric=0.5)

        data = json.loads((tmp_path / "unit-run" / "manifest.json").read_text())
        assert data["run_id"] == "unit-run"
        assert data["status"] == "ok"
        assert data["config"] == {"k": 1}
        assert data["seed"] == 7
        assert data["git_sha"] == "deadbeef"
        assert data["dataset"]["designs"][0]["name"] == "g"
        assert data["metrics"]["demo_total"]["samples"][0]["value"] == 3
        assert data["results"]["final_metric"] == 0.5
        assert data["duration_s"] >= 0

        tree = json.loads((tmp_path / "unit-run" / "trace.json").read_text())
        assert tree["name"] == "unit"
        assert tree["children"][0]["name"] == "unit.work"
        assert tree["children"][0]["attrs"] == {"items": 2}

    def test_failure_recorded(self, tmp_path):
        with pytest.raises(RuntimeError):
            with mf.RunRecorder(
                "unit",
                registry=MetricsRegistry(),
                results_root=tmp_path,
                run_id="fail-run",
            ):
                raise RuntimeError("boom")
        data = json.loads((tmp_path / "fail-run" / "manifest.json").read_text())
        assert data["status"] == "failed"
        assert "boom" in data["error"]

    def test_run_id_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "pinned")
        run = mf.RunRecorder("unit", results_root=tmp_path)
        assert run.run_id == "pinned"

    def test_results_root_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "alt"))
        run = mf.RunRecorder("unit", run_id="r")
        assert run.run_dir == tmp_path / "alt" / "r"

    def test_manifest_is_json_parseable_with_nonserialisable_extra(self, tmp_path):
        # default=str in the writer keeps odd result values from crashing.
        with mf.RunRecorder(
            "unit",
            registry=MetricsRegistry(),
            results_root=tmp_path,
            run_id="odd",
        ) as run:
            run.note(path=tmp_path)  # a PosixPath
        data = json.loads((tmp_path / "odd" / "manifest.json").read_text())
        assert data["results"]["path"] == str(tmp_path)


class TestObsReport:
    """``repro obs-report``: the recorded span tree, read back."""

    def _record(self, root, run_id="rep"):
        from repro.obs import span

        registry = MetricsRegistry()
        registry.counter("repro_serve_requests_total", "a metric").inc()
        with mf.RunRecorder(
            "unit", command="repro unit", registry=registry,
            results_root=root, run_id=run_id,
        ):
            with span("outer.stage", rows=3):
                with span("inner.kernel"):
                    pass
        return root / run_id

    def test_prints_and_writes_the_span_tree(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        run_dir = self._record(tmp_path)
        assert cli.main(["obs-report", "--run", "rep"]) == 0
        out = capsys.readouterr().out
        report = (run_dir / "report.md").read_text()
        for text in (out, report):
            lines = text.splitlines()
            outer = next(l for l in lines if "outer.stage" in l)
            inner = next(l for l in lines if "inner.kernel" in l)
            assert outer.startswith("  outer.stage") and "rows=3" in outer
            assert inner.startswith("    inner.kernel")
            assert "wall=" in inner and "cpu=" in inner
            # The report is the span tree; metric snapshots stay in the
            # manifest.
            assert "repro_serve_requests_total" not in text
        assert not (run_dir / "report.json").exists()
        # With no --run, the most recent recorded run is reported.
        assert cli.main(["obs-report"]) == 0
        assert "outer.stage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["obs-report"], ["obs-report", "--run", "nope"]])
    def test_no_recorded_run_is_an_input_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        assert cli.main(argv) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no recorded run")
        assert f"under {tmp_path}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_missing_trace_still_summarises_the_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        run_dir = self._record(tmp_path)
        (run_dir / "trace.json").unlink()
        assert cli.main(["obs-report", "--run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "command: `repro unit`" in out and "status: ok" in out
        assert "trace.json is missing" in out
        assert "outer.stage" not in out
