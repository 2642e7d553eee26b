"""The bench-check design gate: both sides must benchmark the same designs,
and the front end must build the same graphs from them."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SCRIPT = REPO / "scripts" / "check_design_digest.py"
WORKLOADS = ["offline_50k", "serve_2k", "serve_tiny_batch", "opi_flow"]

_spec = importlib.util.spec_from_file_location("check_design_digest", SCRIPT)
_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_script)
mismatches = _script.mismatches
what_differs = _script.what_differs


def run(*args: str, pythonpath: Path | None = None) -> subprocess.CompletedProcess:
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(pythonpath or "")}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def smoke_lines() -> list[str]:
    result = run("--smoke", pythonpath=SRC)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_one_line_per_workload(smoke_lines):
    assert [line.split()[0] for line in smoke_lines] == WORKLOADS
    # perf's smoke pools: 1, 4 and 16 designs, and one renumbered design
    assert [int(line.split()[1]) for line in smoke_lines] == [1, 4, 16, 1]
    assert all(len(line.split()[2]) == len(line.split()[3]) == 64 for line in smoke_lines)


def test_same_src_on_both_sides_passes():
    result = run("--smoke", str(SRC), str(SRC))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "designs and graphs match on 4 workload(s)" in result.stdout


def test_a_writer_that_changes_one_byte_fails(tmp_path, smoke_lines):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    bench = changed / "repro" / "circuit" / "bench.py"
    text = bench.read_text()
    header = '"# {netlist.name}: {netlist.num_nodes} cells\\n"'
    assert header in text
    bench.write_text(text.replace(header, header.replace("cells", "cell")))
    result = run("--smoke", str(SRC), str(changed))
    assert result.returncode == 1
    failed = result.stdout.splitlines()
    assert len(failed) == 4
    assert all(line.startswith("FAIL: designs differ: base ") for line in failed)


def test_one_ulp_of_co_fails(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    attributes = changed / "repro" / "core" / "attributes.py"
    text = attributes.read_text()
    squash = "    out[:, 1:] = np.log1p(np.maximum(raw[:, 1:], 0.0)) / config.scoap_scale\n"
    assert squash in text
    # CO is the last attribute column: move every entry of it by one ulp.
    attributes.write_text(text.replace(squash, squash + "    out[:, 3] = np.nextafter(out[:, 3], np.inf)\n"))
    result = run("--smoke", str(SRC), str(changed))
    assert result.returncode == 1
    failed = result.stdout.splitlines()
    assert len(failed) == 4
    assert all(line.startswith("FAIL: graphs differ: base ") for line in failed)


def test_what_differs():
    assert what_differs("base a 1 aa gg != head a 1 aa hh") == "graphs"
    assert what_differs("base a 1 aa gg != head a 1 xx gg") == "designs"
    assert what_differs("base a 1 aa gg != head a missing") == "designs"


def test_mismatches():
    base = ["a 1 aa", "b 2 bb", "c 1 cc"]
    assert mismatches(base, list(base)) == []
    assert mismatches(base, ["a 1 aa", "b 2 xx"]) == [
        "base b 2 bb != head b 2 xx",
        "base c 1 cc != head c missing",
    ]


def test_bad_usage(tmp_path):
    assert run(str(tmp_path), str(SRC)).returncode == 2
    assert run(str(SRC)).returncode == 2
