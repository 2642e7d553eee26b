"""Property test: the shards' owned sets are an exact node partition."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphdata import GraphData
from repro.graph import PartitionConfig, partition_graph
from repro.nn.sparse import COOMatrix


@st.composite
def random_graphs(draw):
    """Arbitrary directed graphs, cycles and self-edge-free duplicates allowed."""
    n = draw(st.integers(min_value=1, max_value=40))
    n_edges = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    edges = [(u, v) for u, v in edges if u != v]
    rows = np.array([v for _, v in edges], dtype=np.int64)
    cols = np.array([u for u, _ in edges], dtype=np.int64)
    values = np.ones(len(edges), dtype=np.float64)
    pred = COOMatrix((n, n), values, rows, cols)
    succ = COOMatrix((n, n), values.copy(), cols.copy(), rows.copy())
    attrs = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
    return GraphData(pred=pred, succ=succ, attributes=attrs)


@settings(max_examples=60, deadline=None)
@given(
    graph=random_graphs(),
    n_shards=st.integers(min_value=1, max_value=6),
)
def test_owned_sets_exactly_partition_nodes(graph, n_shards):
    partition = partition_graph(graph, PartitionConfig(n_shards=n_shards))
    partition.validate()

    # Union of the owned sets over all shards == all nodes, with no node
    # owned twice.
    owned_sets = [s.owned for s in partition.shards]
    union = np.concatenate(owned_sets) if owned_sets else np.empty(0, np.int64)
    assert len(union) == graph.num_nodes
    assert np.array_equal(np.sort(union), np.arange(graph.num_nodes))

    # And each owned set is sorted and agrees with the per-node owner map.
    for shard in partition.shards:
        assert np.array_equal(shard.owned, np.sort(shard.owned))
        assert (partition.owner[shard.owned] == shard.index).all()
