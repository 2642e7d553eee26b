"""Boundary-exchange properties: exact partitions, frontiers that hold
every cut edge's foreign end, and bit-identical exchange logits on random
leveled DAGs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.graph import PartitionConfig, ShardedInference, partition_graph
from repro.graph.exchange import compile_boundary_plan
from repro.nn.sparse import COOMatrix


@st.composite
def leveled_dags(draw):
    """Random leveled DAGs: every edge goes from an earlier level to a
    later one, the shape sharded netlist inference actually runs on."""
    level_sizes = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=5)
    )
    starts = np.concatenate([[0], np.cumsum(level_sizes)])
    n = int(starts[-1])
    edges: list[tuple[int, int]] = []
    for level in range(1, len(level_sizes)):
        for v in range(int(starts[level]), int(starts[level + 1])):
            n_fanin = draw(st.integers(0, min(3, int(starts[level]))))
            for _ in range(n_fanin):
                u = draw(st.integers(0, int(starts[level]) - 1))
                edges.append((u, v))
    rows = np.array([v for _, v in edges], dtype=np.int64)
    cols = np.array([u for u, _ in edges], dtype=np.int64)
    values = np.ones(len(edges), dtype=np.float64)
    pred = COOMatrix((n, n), values, rows, cols)
    succ = COOMatrix((n, n), values.copy(), cols.copy(), rows.copy())
    attrs = (np.arange(n * 4, dtype=np.float64).reshape(n, 4) % 7.0) + 1.0
    return GraphData(pred=pred, succ=succ, attributes=attrs)


def _weights():
    model = GCN(GCNConfig(hidden_dims=(8, 8), fc_dims=(8,), seed=9))
    rng = np.random.default_rng(4)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    return model.layer_weights()


WEIGHTS = _weights()


@settings(max_examples=60, deadline=None)
@given(graph=leveled_dags(), n_shards=st.integers(min_value=1, max_value=6))
def test_partition_exact_and_frontier_owned_across_the_cut(graph, n_shards):
    partition = partition_graph(graph, PartitionConfig(n_shards=n_shards))
    partition.validate()
    pred = graph.pred.to_scipy()
    succ = graph.succ.to_scipy()
    owner = partition.owner
    plan = compile_boundary_plan(pred, succ, owner, partition.n_shards)
    plan.validate()

    # Every frontier row is owned by another shard, and every cut edge's
    # far end is on the near end's frontier: the slab rounds read each
    # cut-edge row from its one owner.
    for sh in plan.shards:
        assert np.all(owner[sh.frontier] != sh.index)
    und = ((pred != 0) + (succ != 0)).tocoo()
    for u, v in zip(und.row, und.col):
        if owner[u] != owner[v]:
            assert v in plan.shards[owner[u]].frontier

    # The exchange volume is the frontier, and matches the partition's
    # frontier statistic.
    assert plan.exchange_rows == sum(len(sh.frontier) for sh in plan.shards)
    assert plan.exchange_fraction == pytest.approx(
        partition.frontier_fraction
    )


@settings(max_examples=25, deadline=None)
@given(graph=leveled_dags(), n_shards=st.sampled_from([1, 2, 4]))
def test_exchange_logits_bit_identical_float64(graph, n_shards):
    oracle = FastInference(WEIGHTS).logits(graph)
    with ShardedInference(
        WEIGHTS, ExecutionConfig(shards=n_shards, workers=1)
    ) as engine:
        sharded = engine.logits(graph)
    assert np.array_equal(oracle, sharded)


class TestCompiledPlan:
    @pytest.fixture(scope="class")
    def design_graph(self):
        return GraphData.from_netlist(generate_design(900, seed=17))

    def test_frontier_is_one_hop_neighbourhood(self, design_graph):
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=4)
        )
        pred = design_graph.pred.to_scipy()
        succ = design_graph.succ.to_scipy()
        plan = compile_boundary_plan(
            pred, succ, partition.owner, partition.n_shards
        )
        und = ((pred != 0) + (succ != 0)).tocsr()
        for sh in plan.shards:
            mask = np.zeros(design_graph.num_nodes, dtype=bool)
            mask[sh.owned] = True
            reached = (und @ mask.astype(np.float64)) > 0
            assert np.array_equal(
                sh.frontier, np.flatnonzero(reached & ~mask)
            )

    def test_single_shard_exchanges_nothing(self, design_graph):
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=1)
        )
        plan = compile_boundary_plan(
            design_graph.pred.to_scipy(),
            design_graph.succ.to_scipy(),
            partition.owner,
            1,
        )
        assert plan.exchange_rows == 0
        assert plan.exchange_fraction == 0.0
        assert len(plan.shards[0].frontier) == 0

    def test_adjacency_rows_match_global(self, design_graph):
        """Local rows are the global CSR rows, columns renumbered only."""
        partition = partition_graph(
            design_graph, PartitionConfig(n_shards=3)
        )
        pred = design_graph.pred.to_scipy()
        plan = compile_boundary_plan(
            pred,
            design_graph.succ.to_scipy(),
            partition.owner,
            partition.n_shards,
        )
        for sh in plan.shards:
            rows = pred[sh.owned]
            assert np.array_equal(sh.pred_rows.data, rows.data)
            assert np.array_equal(
                sh.universe[sh.pred_rows.indices], rows.indices
            )
