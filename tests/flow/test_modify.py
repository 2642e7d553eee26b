"""Incremental design modification: consistency and rollback."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.flow.modify import IncrementalDesign
from repro.testability import compute_scoap


@pytest.fixture
def design():
    return IncrementalDesign(generate_design(200, seed=41))


class TestInsertOp:
    def test_graph_grows_consistently(self, design):
        n0 = design.num_nodes
        e0 = design.graph.pred.nnz
        p, _ = design.insert_op(10)
        assert design.num_nodes == n0 + 1
        assert p == n0
        assert design.graph.pred.shape == (n0 + 1, n0 + 1)
        assert design.graph.pred.nnz == e0 + 1
        assert design.graph.attributes.shape == (n0 + 1, 4)

    def test_scoap_matches_full_recompute(self, design):
        design.insert_op(10)
        design.insert_op(57)
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)
        assert np.allclose(design.scoap.cc0, fresh.cc0)
        assert np.allclose(design.scoap.cc1, fresh.cc1)

    def test_graph_matches_full_rebuild(self, design):
        from repro.circuit import GateType
        from repro.core.attributes import OP_ATTRIBUTES, normalize_attributes

        design.insert_op(10)
        design.insert_op(57)
        rebuilt = GraphData.from_netlist(design.netlist)
        # OBS rows keep the paper's fixed [0,1,1,0] attribute (Section 4);
        # a full rebuild would compute their true SCOAP instead.
        obs = [
            v
            for v in design.netlist.nodes()
            if design.netlist.gate_type(v) is GateType.OBS
        ]
        regular = [v for v in design.netlist.nodes() if v not in set(obs)]
        assert np.allclose(
            design.graph.attributes[regular], rebuilt.attributes[regular]
        )
        op_row = normalize_attributes(
            OP_ATTRIBUTES[None, :], design.attribute_config
        )[0]
        for v in obs:
            assert np.allclose(design.graph.attributes[v], op_row)
        assert np.array_equal(
            design.graph.pred.to_dense(), rebuilt.pred.to_dense()
        )
        assert np.array_equal(
            design.graph.succ.to_dense(), rebuilt.succ.to_dense()
        )

    def test_new_op_row_is_paper_attribute(self, design):
        from repro.core.attributes import OP_ATTRIBUTES, normalize_attributes

        p, _ = design.insert_op(10)
        expected = normalize_attributes(OP_ATTRIBUTES[None, :], design.attribute_config)[0]
        assert np.allclose(design.graph.attributes[p], expected)

    def test_many_insertions_stores_grow(self, design):
        n0 = design.num_nodes
        for target in range(0, 60, 3):  # passes the 16 spare rows
            design.insert_op(target)
        assert design.num_nodes == n0 + 20
        assert design.graph.attributes.shape[0] == n0 + 20
        fresh = compute_scoap(design.netlist)
        for name in ("cc0", "cc1", "co"):
            assert getattr(design.scoap, name).shape == (n0 + 20,)
        assert np.allclose(design.scoap.co, fresh.co)
        assert np.allclose(design.scoap.cc0, fresh.cc0)

    def test_checkpoint_names_the_changed_rows(self, design):
        attrs0 = design.graph.attributes.copy()
        p, checkpoint = design.insert_op(10)
        moved = np.flatnonzero(
            (design.graph.attributes[: len(attrs0)] != attrs0).any(axis=1)
        )
        assert set(checkpoint.changed_rows) == {10, p, *moved.tolist()}


class TestRollback:
    def _snapshot(self, design):
        return (
            design.num_nodes,
            design.graph.pred.nnz,
            design.graph.succ.nnz,
            design.graph.attributes.copy(),
            design.scoap.co.copy(),
            [list(design.netlist.fanouts(v)) for v in design.netlist.nodes()],
        )

    def test_tentative_insert_restores_everything(self, design):
        before = self._snapshot(design)
        undo = design.tentative_insert(33)
        undo()
        after = self._snapshot(design)
        assert before[0] == after[0]
        assert before[1] == after[1] and before[2] == after[2]
        assert np.allclose(before[3], after[3])
        assert np.allclose(before[4], after[4])
        assert before[5] == after[5]

    def test_nested_tentative_inserts(self, design):
        before = self._snapshot(design)
        undo1 = design.tentative_insert(20)
        undo2 = design.tentative_insert(40)
        undo2()
        undo1()
        after = self._snapshot(design)
        assert np.allclose(before[3], after[3])
        assert np.allclose(before[4], after[4])

    def test_observed_set_follows_insert_and_rollback(self, design):
        def scanned():
            netlist = design.netlist
            return set(netlist.observation_sites) | set(netlist.observation_points())

        assert design.observed == scanned()
        already = next(iter(design.observed))
        fresh = next(v for v in design.netlist.nodes() if v not in design.observed)
        for target in (already, fresh):
            before = set(design.observed)
            p, checkpoint = design.insert_op(target)
            assert {target, p} <= design.observed == scanned()
            design.rollback(checkpoint)
            assert design.observed == before == scanned()
        design.insert_op(fresh)
        assert design.observed == scanned()

    def test_rollback_then_real_insert_consistent(self, design):
        undo = design.tentative_insert(12)
        undo()
        design.insert_op(12)
        fresh = compute_scoap(design.netlist)
        assert np.allclose(design.scoap.co, fresh.co)


class TestPreviewOp:
    @pytest.mark.parametrize("committed", [(), (20, 57)])
    def test_preview_is_what_the_insertion_does(self, design, committed):
        for target in committed:
            design.insert_op(target)
        for target in (10, 33, 57, 120):
            preview = design.preview_op(target)
            p, checkpoint = design.insert_op(target)
            assert preview.target == target
            # target, OBS cell, moved nodes — the OBS cell last here.
            assert checkpoint.changed_rows[2:] + [p] == preview.rows.tolist()
            assert np.array_equal(
                design.graph.attributes[preview.rows], preview.attributes
            )
            design.rollback(checkpoint)

    def test_preview_leaves_the_design_alone(self, design):
        design.insert_op(20)
        before = (
            design.netlist.mutation_count,
            design.graph.attributes.tobytes(),
            design.scoap.co.tobytes(),
            sorted(design.observed),
            design.graph.pred.nnz,
        )
        for target in (20, 33, 57):  # 20: CO already 0, nothing moves
            design.preview_op(target)
        assert len(design.preview_op(20).rows) == 1
        assert before == (
            design.netlist.mutation_count,
            design.graph.attributes.tobytes(),
            design.scoap.co.tobytes(),
            sorted(design.observed),
            design.graph.pred.nnz,
        )


class TestFaninCone:
    def test_cone_contains_transitive_fanins(self, design):
        nl = design.netlist
        node = next(v for v in nl.nodes() if nl.fanins(v))
        cone = design.fanin_cone(node)
        assert node in cone
        for u in nl.fanins(node):
            assert u in cone

    def test_cone_exclude_self(self, design):
        cone = design.fanin_cone(5, include_self=False)
        assert 5 not in cone
