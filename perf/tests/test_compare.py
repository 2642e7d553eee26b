import json

from perf import compare


def write_runs(directory, workload, metric, values, fail_ratio=0.0):
    directory.mkdir()
    for i, value in enumerate(values):
        payload = {
            "results": [
                {
                    "workload": workload, "trace": False, "fail_ratio": fail_ratio,
                    "metrics": {metric: {"value": value, "unit": "s"}},
                }
            ]
        }
        (directory / f"run-{i}.json").write_text(json.dumps(payload))


BOUNDS = {"wall_p50_s": (0.10, "lower"), "designs_per_s": (0.10, "higher")}


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [1.05, 1.06, 1.04, 1.05, 1.05], 0.10, "lower") == "within"
    assert compare.verdict(steady, [1.15, 1.16, 1.14, 1.15, 1.15], 0.10, "lower") == "worse"
    assert compare.verdict(steady, [0.85, 0.86, 0.84, 0.85, 0.85], 0.10, "higher") == "worse"
    assert compare.verdict(steady, [0.85, 0.86, 0.84, 0.85, 0.85], 0.10, "lower") == "within"
    # Same-side runs that spread wider than the bound cannot resolve it.
    assert compare.verdict(steady, [0.8, 1.0, 1.2, 1.4, 0.9], 0.10, "lower") == "unresolved"
    noisy = [0.8, 1.0, 1.2, 1.4, 0.9]
    assert compare.verdict(steady, noisy, 0.10, "lower", judge_spread=False) == "within"
    # fail_ratio: any rise is a regression.
    assert compare.verdict([0.0, 0.0], [0.0, 0.01, 0.01], None, "lower") == "worse"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], None, "lower") == "within"


def test_compare_reads_directories_of_runs(tmp_path):
    write_runs(tmp_path / "a", "offline_50k", "wall_p50_s", [2.0, 2.02, 1.98])
    write_runs(tmp_path / "b", "offline_50k", "wall_p50_s", [2.5, 2.52, 2.48])
    rows = compare.compare(tmp_path / "a", tmp_path / "b", BOUNDS)
    by_metric = {row[1]: row for row in rows}
    assert by_metric["wall_p50_s"][-1] == "worse"
    assert by_metric["wall_p50_s"][-2].startswith("1.2500 of 2")  # the ratio names its base
    assert by_metric["fail_ratio"][-1] == "within"
