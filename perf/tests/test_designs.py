from collections import Counter

from perf import common
from repro import api
from repro.circuit import validate_netlist


def test_isomorphic_copy_keeps_the_circuit_and_changes_the_numbering():
    base = api.generate_design(120, seed=5)
    copy = common.isomorphic_copy(base, seed=3)
    assert copy.num_nodes == base.num_nodes and copy.num_edges == base.num_edges
    assert Counter(base.gate_type(v) for v in base.nodes()) == Counter(
        copy.gate_type(v) for v in copy.nodes()
    )
    assert sum(base.is_output(v) for v in base.nodes()) == sum(
        copy.is_output(v) for v in copy.nodes()
    )
    validate_netlist(copy, strict=True)
    degrees = lambda n: sorted((len(n.fanins(v)), len(n.fanouts(v))) for v in n.nodes())
    assert degrees(base) == degrees(copy)
    order = lambda n: [n.gate_type(v) for v in n.nodes()]
    assert order(copy) != order(base)
    assert order(copy) == order(common.isomorphic_copy(base, seed=3))  # the seed decides
    assert order(copy) != order(common.isomorphic_copy(base, seed=4))


def test_pools_of_neighbouring_seeds_share_no_design():
    first = {common.design_seed(20_000, 0, i) for i in range(32)}
    second = {common.design_seed(20_000, 1, i) for i in range(32)}
    assert not first & second
