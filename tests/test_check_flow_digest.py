"""The bench-check digest gate: the flow must insert the same points."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_flow_digest.py"


def write_side(directory: Path, digests: dict[int, str | None]) -> Path:
    """One ``perf/run.py --out`` file per seed: an ``opi_flow`` result with
    ``digest`` (none when ``None``) and a workload that has no flow."""
    directory.mkdir()
    for seed, digest in digests.items():
        notes = {"nodes": 1000} if digest is None else {"flow_digest": digest}
        results = [
            {"workload": "opi_flow", "trace": False, "notes": notes},
            {"workload": "serve_2k", "trace": False, "notes": {}},
        ]
        (directory / f"{seed}.json").write_text(
            json.dumps({"seed": seed, "results": results})
        )
    return directory


def run(base: Path, head: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(base), str(head)],
        capture_output=True,
        text=True,
    )


def test_equal_digests_pass(tmp_path):
    base = write_side(tmp_path / "base", {1: "aa", 2: "bb"})
    head = write_side(tmp_path / "head", {1: "aa", 2: "bb"})
    result = run(base, head)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "match on 2" in result.stdout


def test_one_differing_seed_fails(tmp_path):
    base = write_side(tmp_path / "base", {1: "aa", 2: "bb", 3: "cc"})
    head = write_side(tmp_path / "head", {1: "aa", 2: "xx", 3: "cc"})
    result = run(base, head)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "FAIL: flow digest differs: opi_flow seed 2: base bb != head xx"
    ]


def test_a_digest_on_one_side_only_fails(tmp_path):
    base = write_side(tmp_path / "base", {1: "aa"})
    head = write_side(tmp_path / "head", {1: None})
    result = run(base, head)
    assert result.returncode == 1
    assert "base aa != head missing" in result.stdout


def test_no_flow_on_either_side_passes(tmp_path):
    base = write_side(tmp_path / "base", {1: None})
    head = write_side(tmp_path / "head", {1: None})
    assert run(base, head).returncode == 0


def test_bad_usage(tmp_path):
    assert run(tmp_path / "absent", tmp_path).returncode == 2
