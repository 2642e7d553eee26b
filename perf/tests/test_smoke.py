import json
import subprocess
import sys
from pathlib import Path

from perf import layers, run

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_runs_every_workload_in_both_modes(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    results = json.loads(out.read_text())["results"]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t)
        for w in ("offline_50k", "serve_2k", "serve_tiny_batch", "opi_flow")
        for t in (False, True)
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for result in results:
        names = set(result["metrics"])
        # A traced run reports exactly the per-layer set; an end-to-end run
        # at least the end-to-end set (the daemon's own numbers ride along).
        if result["trace"]:
            assert names - {"setup_s", "peak_rss_mb"} == per_layer, result["workload"]
        else:
            assert end_to_end <= names, result["workload"]
        assert result["fail_ratio"] == 0
    flow = next(r for r in results if r["workload"] == "opi_flow" and r["trace"])
    assert flow["metrics"]["flow.ops_inserted"]["value"] > 0
