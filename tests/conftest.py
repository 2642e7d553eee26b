"""Shared fixtures: canonical small circuits and generated designs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import GateType, Netlist, generate_design


@pytest.fixture(autouse=True)
def _results_outside_the_checkout(tmp_path, monkeypatch):
    """Run manifests and reports default to ``./results``; no test may
    leave files in the checkout it runs from."""
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))


@pytest.fixture
def c17() -> Netlist:
    """The ISCAS-85 c17 benchmark (6 NAND gates, 5 PIs, 2 POs)."""
    nl = Netlist("c17")
    g1 = nl.add_input("G1")
    g2 = nl.add_input("G2")
    g3 = nl.add_input("G3")
    g6 = nl.add_input("G6")
    g7 = nl.add_input("G7")
    g10 = nl.add_cell(GateType.NAND, (g1, g3), "G10")
    g11 = nl.add_cell(GateType.NAND, (g3, g6), "G11")
    g16 = nl.add_cell(GateType.NAND, (g2, g11), "G16")
    g19 = nl.add_cell(GateType.NAND, (g11, g7), "G19")
    g22 = nl.add_cell(GateType.NAND, (g10, g16), "G22")
    g23 = nl.add_cell(GateType.NAND, (g16, g19), "G23")
    nl.mark_output(g22)
    nl.mark_output(g23)
    return nl


@pytest.fixture
def and_chain() -> Netlist:
    """PI -> AND -> AND -> AND -> PO chain with side inputs."""
    nl = Netlist("and_chain")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    d = nl.add_input("d")
    g1 = nl.add_cell(GateType.AND, (a, b), "g1")
    g2 = nl.add_cell(GateType.AND, (g1, c), "g2")
    g3 = nl.add_cell(GateType.AND, (g2, d), "g3")
    nl.mark_output(g3)
    return nl


@pytest.fixture
def mux2() -> Netlist:
    """2:1 mux: out = (a & ~s) | (b & s)."""
    nl = Netlist("mux2")
    a = nl.add_input("a")
    b = nl.add_input("b")
    s = nl.add_input("s")
    ns = nl.add_cell(GateType.NOT, (s,), "ns")
    t0 = nl.add_cell(GateType.AND, (a, ns), "t0")
    t1 = nl.add_cell(GateType.AND, (b, s), "t1")
    out = nl.add_cell(GateType.OR, (t0, t1), "out")
    nl.mark_output(out)
    return nl


@pytest.fixture
def xor_pair() -> Netlist:
    """Two XORs sharing an input (reconvergence through parity)."""
    nl = Netlist("xor_pair")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    x1 = nl.add_cell(GateType.XOR, (a, b), "x1")
    x2 = nl.add_cell(GateType.XOR, (x1, c), "x2")
    nl.mark_output(x2)
    return nl


@pytest.fixture
def reconvergent() -> Netlist:
    """Classic reconvergent-fanout masking structure.

    ``m = AND(s, NOT s)`` is constant 0, so ``q = OR(d, m)`` never sees the
    ``m`` branch: stems feeding it are unobservable along that path.
    """
    nl = Netlist("reconv")
    s = nl.add_input("s")
    d = nl.add_input("d")
    ns = nl.add_cell(GateType.NOT, (s,), "ns")
    m = nl.add_cell(GateType.AND, (s, ns), "m")
    q = nl.add_cell(GateType.OR, (d, m), "q")
    nl.mark_output(q)
    return nl


@pytest.fixture(scope="session")
def small_design() -> Netlist:
    """A generated ~350-node design shared across read-only tests."""
    return generate_design(300, seed=42)


@pytest.fixture(scope="session")
def medium_design() -> Netlist:
    """A generated ~1.3k-node design shared across read-only tests."""
    return generate_design(1200, seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
