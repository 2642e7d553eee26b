"""The lint rules with should-fail fixtures hold, and can fail.

``scripts/check_api_boundaries.py`` rules 9 (the scheduler imports no
clock, socket, thread, process or pickle), 10 (``pickle.loads`` appears
under ``repro/exec`` only in ``net.unpickle``), the kernel half of 7
(the narrow product and the row-block loop are defined only in
``core/inference.py``) and 11 (the netlist's per-cell lists are touched
only in ``circuit/netlist.py``).  Each rule gets a should-fail fixture so a
vacuous pass is impossible.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "scripts"))
try:
    import check_api_boundaries as lint
finally:
    sys.path.pop(0)


def test_the_tree_is_clean():
    assert lint.impure_import_violations(lint._SCHEDULER) == []
    for path in sorted(lint._EXEC_PACKAGE.glob("*.py")):
        assert lint.pickle_load_violations(path, codec=path == lint._CODEC) == []
    # ...and the rule is looking at the real thing: the codec does load.
    assert lint.pickle_load_violations(lint._CODEC, codec=False) != []


@pytest.mark.parametrize(
    "source,line,what",
    [
        ("import time\n", 1, "import time"),
        ("x = 1\nimport os.path\n", 2, "import os.path"),
        ("from threading import Lock\n", 1, "from threading import ..."),
        ("def f():\n    import socket\n", 2, "import socket"),
        ("from concurrent.futures import wait\n", 1, "from concurrent.futures import ..."),
        ("import multiprocessing as mp\n", 1, "import multiprocessing"),
        ("import warnings, pickle\n", 1, "import pickle"),
    ],
)
def test_impure_scheduler_import_is_caught(tmp_path, source, line, what):
    bad = tmp_path / "scheduler.py"
    bad.write_text(source)
    assert lint.impure_import_violations(bad) == [(line, what)]


def test_pure_imports_pass(tmp_path):
    ok = tmp_path / "scheduler.py"
    ok.write_text(
        "import warnings\nfrom collections.abc import Sequence\n"
        "from repro.obs.trace import annotate\n# import time\ns = 'import os'\n"
    )
    assert lint.impure_import_violations(ok) == []


@pytest.mark.parametrize(
    "source,what",
    [
        ("import pickle\ndef handle(b):\n    return pickle.loads(b)\n",
         "pickle.loads"),
        ("import pickle\nload = pickle.load\n", "pickle.load"),
        ("from pickle import loads\n", "from pickle import loads"),
        ("import pickle\nu = pickle.Unpickler\n", "pickle.Unpickler"),
    ],
)
def test_second_unpickle_site_is_caught(tmp_path, source, what):
    bad = tmp_path / "coordinator.py"
    bad.write_text(source)
    assert [w for _, w in lint.pickle_load_violations(bad, codec=False)] == [what]


def test_only_the_codecs_unpickle_function_is_exempt(tmp_path):
    codec = tmp_path / "net.py"
    codec.write_text(
        "import pickle\n"
        "def unpickle(data):\n    return pickle.loads(data)\n"
        "def recv_frame(sock):\n    return pickle.loads(sock.recv(9))\n"
        "def dumps(x):\n    return pickle.dumps(x)  # dumping is fine\n"
    )
    assert lint.pickle_load_violations(codec, codec=True) == [(5, "pickle.loads")]
    assert len(lint.pickle_load_violations(codec, codec=False)) == 2


def test_the_kernel_exists_once():
    for path in sorted(lint.PACKAGE.rglob("*.py")):
        if path != lint._KERNEL_MODULE:
            assert lint.kernel_copy_violations(path) == [], path
    # ...and the rule is looking at the real thing.
    found = {what for _, what in lint.kernel_copy_violations(lint._KERNEL_MODULE)}
    assert {"def _narrow_matmul", "def _by_blocks", "BLOCK_ROWS",
            "import of scipy.sparse._sparsetools"} <= found


@pytest.mark.parametrize(
    "source,line,what",
    [
        ("def _narrow_matmul(a, b):\n    return a @ b\n", 1, "def _narrow_matmul"),
        ("class E:\n    def layer_forward(self):\n        pass\n", 2,
         "def layer_forward"),
        ("from repro.core import inference\nfor lo in range(0, 9, inference.BLOCK_ROWS):\n"
         "    pass\n", 2, "BLOCK_ROWS"),
        ("BLOCK_ROWS = 64\n", 1, "BLOCK_ROWS"),
        ("from scipy.sparse._sparsetools import csr_matvecs\n", 1,
         "import of scipy.sparse._sparsetools"),
        ("x = 1\nfrom scipy.sparse import _sparsetools\n", 2,
         "import of scipy.sparse._sparsetools"),
    ],
)
def test_second_kernel_is_caught(tmp_path, source, line, what):
    bad = tmp_path / "engine.py"
    bad.write_text(source)
    assert lint.kernel_copy_violations(bad) == [(line, what)]


def test_calling_the_kernel_passes(tmp_path):
    ok = tmp_path / "engine.py"
    ok.write_text(
        "from repro.core.inference import head_forward, layer_forward\n"
        "import scipy.sparse as sp\n"
        "def run(w, h, p, s):\n"
        "    # BLOCK_ROWS, def _by_blocks\n"
        "    return head_forward(w, layer_forward(w, 0, h, p, s, h))\n"
    )
    assert lint.kernel_copy_violations(ok) == []


def test_the_netlist_lists_have_one_owner():
    for path in sorted(lint.PACKAGE.rglob("*.py")):
        if path != lint._NETLIST_MODULE:
            assert lint.netlist_private_violations(path) == [], path
    # ...and the rule is looking at the real thing.
    found = {what for _, what in lint.netlist_private_violations(lint._NETLIST_MODULE)}
    assert found == {"._types", "._fanins", "._fanouts", "._names", "._name_to_id"}


@pytest.mark.parametrize(
    "source,line,what",
    [
        ("def undo(netlist):\n    netlist._types.pop()\n", 2, "._types"),
        ("def wire(out, new, data):\n    out._fanins[new] = [data]\n", 2, "._fanins"),
        ("x = 1\ny = design.netlist._fanouts[3]\n", 2, "._fanouts"),
        ("name = netlist._names[0]\n", 1, "._names"),
        ("del nl._name_to_id['a']\n", 1, "._name_to_id"),
    ],
)
def test_reaching_into_the_netlist_is_caught(tmp_path, source, line, what):
    bad = tmp_path / "flow.py"
    bad.write_text(source)
    assert lint.netlist_private_violations(bad) == [(line, what)]


def test_the_netlist_api_passes(tmp_path):
    ok = tmp_path / "flow.py"
    ok.write_text(
        "def undo(netlist):\n"
        "    # netlist._types.pop()\n"
        "    netlist.remove_last_cell()\n"
        "    return netlist.given_name(0), netlist.fanins(0), '_fanouts'\n"
    )
    assert lint.netlist_private_violations(ok) == []
