"""README's environment table is the one list of ``REPRO_*`` variables.

Every ``"REPRO_..."`` string literal under ``src/repro`` has a row, and
every row names a variable that ``src/`` or ``benchmarks/`` reads — so a
new knob cannot ship undocumented and a removed one cannot linger.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _literals(*dirs: Path) -> set[str]:
    return {
        name
        for directory in dirs
        for path in directory.rglob("*.py")
        for name in _LITERAL.findall(path.read_text(encoding="utf-8"))
    }


def _table_rows() -> set[str]:
    """Variables named in the first cell of README's table rows."""
    names = set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `REPRO_"):
            names.update(_NAME.findall(line.split("|")[1]))
    return names


def test_every_package_variable_has_a_row():
    missing = _literals(ROOT / "src" / "repro") - _table_rows()
    assert not missing, f"REPRO_* variables without a README row: {sorted(missing)}"


def test_every_row_is_read_somewhere():
    stale = _table_rows() - _literals(ROOT / "src", ROOT / "benchmarks")
    assert not stale, f"README rows for variables nothing reads: {sorted(stale)}"
