"""Property-based equivalence: fault-axis engine vs serial oracle.

Hypothesis generates arbitrary netlists (mixed gate types, duplicate
fanins, observation points, degenerate shapes) and arbitrary pattern
counts (tail-mask edge cases); every property asserts *bit-identical*
results between the serial per-fault walk
(``tests/atpg/reference_faultsim.py``) and the fault-axis engine —
detection masks, detected lists (order included), first-detecting-pattern
indices, fault coverage and observability masks — and between the oracle's
depth-first cones and the simulator's frontier sweep.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import full_fault_list
from repro.atpg.observability import ObservabilityAnalyzer
from repro.atpg import ppsfp
from repro.atpg.simulator import LogicSimulator
from repro.circuit import GateType, Netlist
from repro.config import ExecutionConfig
from tests.atpg import reference_faultsim as reference
from tests.circuit.reference_frontend import logic_levels

IN_PROCESS = ExecutionConfig(workers=1)
_GATE_CHOICES = [
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
]


@st.composite
def netlists(draw):
    """Random connected netlist, possibly with OBS points and DFFs."""
    n_inputs = draw(st.integers(min_value=1, max_value=6))
    n_gates = draw(st.integers(min_value=1, max_value=30))
    nl = Netlist("hyp")
    nodes = [nl.add_input() for _ in range(n_inputs)]
    for _ in range(n_gates):
        gt = draw(st.sampled_from(_GATE_CHOICES))
        if gt in (GateType.NOT, GateType.BUF):
            fanins = [draw(st.integers(0, len(nodes) - 1))]
        else:
            arity = draw(st.integers(min_value=2, max_value=4))
            # duplicate fanins allowed on purpose (XOR parity cancellation)
            fanins = [
                draw(st.integers(0, len(nodes) - 1)) for _ in range(arity)
            ]
        nodes.append(nl.add_cell(gt, fanins))
    n_pos = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_pos):
        nl.mark_output(draw(st.integers(0, len(nodes) - 1)))
    n_ops = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_ops):
        target = draw(st.integers(0, len(nodes) - 1))
        if nl.gate_type(target) is not GateType.OBS:
            nl.insert_observation_point(target)
    n_dffs = draw(st.integers(min_value=0, max_value=1))
    for _ in range(n_dffs):
        nl.add_cell(GateType.DFF, [draw(st.integers(0, len(nodes) - 1))])
    return nl


@settings(max_examples=40, deadline=None)
@given(
    netlist=netlists(),
    max_group=st.one_of(
        st.just(ppsfp.MAX_GROUP), st.integers(min_value=1, max_value=7)
    ),
    n_words=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_detection_masks_bit_identical(
    netlist, max_group, n_words, seed
):
    fsim = FaultSimulator(netlist, IN_PROCESS)
    rng = np.random.default_rng(seed)
    values = fsim.good_values(fsim.simulator.random_source_words(n_words, rng))
    faults = full_fault_list(netlist)
    serial, _ = reference.detection_masks(netlist, faults, values)
    with mock.patch.object(ppsfp, "MAX_GROUP", max_group):
        batched = fsim.detection_masks(faults, values)
    np.testing.assert_array_equal(serial, batched)


@settings(max_examples=40, deadline=None)
@given(netlist=netlists())
def test_simulator_plan_covers_each_gate_once_above_its_fanins(netlist):
    sim = LogicSimulator(netlist)
    levels = logic_levels(netlist)
    sources = [
        v for v in netlist.nodes()
        if netlist.gate_type(v) in (GateType.INPUT, GateType.DFF)
    ]
    np.testing.assert_array_equal(sim.source_ids, sources)
    planned, last_level = [], 0
    for gate_type, arity, out_idx, fanin_idx in sim._schedule:
        assert fanin_idx.shape == (len(out_idx), arity)
        for v, row in zip(out_idx.tolist(), fanin_idx.tolist()):
            assert netlist.gate_type(v) is gate_type
            assert row == netlist.fanins(v)
            assert all(levels[u] < levels[v] for u in row)
            assert levels[v] >= last_level
            last_level = levels[v]
        planned += out_idx.tolist()
    assert sorted(planned) == sorted(set(netlist.nodes()) - set(sources))


@settings(max_examples=25, deadline=None)
@given(
    netlist=netlists(),
    n_patterns=st.integers(min_value=1, max_value=130),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_simulate_batch_detections_and_first_patterns(netlist, n_patterns, seed):
    """Detected order, detecting-pattern indices and tail masking agree."""
    rng = np.random.default_rng(seed)
    n_words = (n_patterns + 63) // 64
    words = FaultSimulator(netlist).simulator.random_source_words(n_words, rng)
    faults = full_fault_list(netlist)
    res_s, _ = reference.simulate_batch(
        netlist, faults, words, n_patterns=n_patterns
    )
    res_b = FaultSimulator(netlist, IN_PROCESS).simulate_batch(
        faults, words, n_patterns=n_patterns
    )
    assert res_s.detected == res_b.detected
    assert res_s.detecting_pattern == res_b.detecting_pattern


@settings(max_examples=20, deadline=None)
@given(
    netlist=netlists(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fault_coverage_identical(netlist, seed):
    rng = np.random.default_rng(seed)
    sim = FaultSimulator(netlist).simulator
    batches = [sim.random_source_words(1, rng) for _ in range(2)]
    faults = full_fault_list(netlist)
    cov_s, rem_s = reference.fault_coverage(netlist, faults, batches)
    cov_b, rem_b = FaultSimulator(netlist, IN_PROCESS).fault_coverage(
        faults, batches
    )
    assert cov_s == cov_b
    assert rem_s == rem_b


@settings(max_examples=30, deadline=None)
@given(
    netlist=netlists(),
    n_words=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_observability_masks_bit_identical(netlist, n_words, seed):
    rng = np.random.default_rng(seed)
    with ObservabilityAnalyzer(netlist, execution=IN_PROCESS) as analyzer:
        values = analyzer.simulator.simulate(
            analyzer.simulator.random_source_words(n_words, rng)
        )
        np.testing.assert_array_equal(
            reference.observability_masks(netlist, values),
            analyzer.masks_from_values(values),
        )


@st.composite
def netlists_with_flops(draw):
    """A :func:`netlists` design with flops that drive more logic."""
    nl = draw(netlists())
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        node = st.integers(0, nl.num_nodes - 1)
        q = nl.add_cell(GateType.DFF, [draw(node)])
        gt = draw(st.sampled_from([GateType.AND, GateType.OR, GateType.XOR]))
        nl.add_cell(gt, [q, draw(node)])
    return nl


@settings(max_examples=40, deadline=None)
@given(netlist=netlists_with_flops(), data=st.data())
def test_forward_union_is_the_union_of_oracle_cones(netlist, data):
    sim = LogicSimulator(netlist)
    levels = logic_levels(netlist)
    cones = [reference.forward_cone(netlist, levels, v) for v in netlist.nodes()]
    for v in netlist.nodes():
        assert sim.forward_cone(v) == cones[v]

    node = st.integers(0, netlist.num_nodes - 1)
    sites = data.draw(st.lists(node, max_size=8), label="sites")
    flops = [v for v in netlist.nodes() if netlist.gate_type(v) is GateType.DFF]
    sites.append(data.draw(st.sampled_from(flops), label="flop"))
    sites.append(sites[0])  # a repeated site
    outer = data.draw(node, label="outer")
    if cones[outer]:  # a site inside another site's cone
        sites += [outer, data.draw(st.sampled_from(cones[outer]), label="inner")]
    for chosen in ([], sites):
        union = sorted(
            {w for v in chosen for w in cones[v]}, key=lambda w: (levels[w], w)
        )
        got = sim.forward_union(chosen)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.array(union, dtype=np.int64))
