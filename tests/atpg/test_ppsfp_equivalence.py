"""Property-based equivalence: batched engine vs serial oracle.

Hypothesis generates arbitrary netlists (mixed gate types, duplicate
fanins, observation points, degenerate shapes) and arbitrary pattern
counts (tail-mask edge cases); every property asserts *bit-identical*
results between the serial per-fault walk and the fault-axis engine —
detection masks, detected lists (order included), first-detecting-pattern
indices, fault coverage and observability masks.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import full_fault_list
from repro.atpg.observability import ObservabilityAnalyzer
from repro.atpg.ppsfp import PpsfpConfig
from repro.circuit import GateType, Netlist
from repro.config import ExecutionConfig

SERIAL = ExecutionConfig(backend="serial")
BATCHED = ExecutionConfig(backend="batched")
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


_CONFIGS = st.builds(
    PpsfpConfig,
    dense_threshold=st.sampled_from([0.0, 0.4, 100.0]),
    group_size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
)


@settings(max_examples=40, deadline=None)
@given(
    netlist=netlists(),
    config=_CONFIGS,
    n_words=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_detection_masks_bit_identical(netlist, config, n_words, seed):
    fsim = FaultSimulator(netlist, config=config)
    rng = np.random.default_rng(seed)
    values = fsim.good_values(fsim.simulator.random_source_words(n_words, rng))
    faults = full_fault_list(netlist)
    serial = np.stack([fsim.detection_mask(f, values) for f in faults])
    batched = fsim.detection_masks(faults, values, backend="batched")
    np.testing.assert_array_equal(serial, batched)


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
    res_s = FaultSimulator(netlist, SERIAL).simulate_batch(
        faults, words, n_patterns=n_patterns
    )
    res_b = FaultSimulator(netlist, BATCHED).simulate_batch(
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
    cov_s, rem_s = FaultSimulator(netlist, SERIAL).fault_coverage(
        faults, batches
    )
    cov_b, rem_b = FaultSimulator(netlist, BATCHED).fault_coverage(
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
    serial = ObservabilityAnalyzer(netlist, execution=SERIAL)
    values = serial.simulator.simulate(
        serial.simulator.random_source_words(n_words, rng)
    )
    with ObservabilityAnalyzer(netlist, execution=BATCHED) as batched:
        np.testing.assert_array_equal(
            serial.masks_from_values(values),
            batched.masks_from_values(values),
        )
