"""Incremental design modification: consistency and rollback."""

import io
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    GateType,
    adjacency_pair,
    generate_design,
    logic_levels,
    parse_bench,
    write_bench,
)
from repro.core import inference
from repro.core.attributes import normalize_attributes
from repro.core.graphdata import GraphData
from repro.flow.modify import IncrementalDesign, walk_fanin_cones
from repro.testability import compute_scoap
from repro.testability.scoap import ScoapResult

from tests.circuit import reference_frontend as reference
from tests.flow.reference_impact import reference_fanin_cone
from tests.testability.reference_incremental import (
    refresh_observability,
    update_scoap_after_op,
)


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


def design_state(design) -> list:
    """Everything a commit writes, as comparable values."""
    graph, scoap = design.graph, design.scoap
    state = [
        design.num_nodes,
        *(a.tobytes() for a in (scoap.cc0, scoap.cc1, scoap.co, graph.attributes)),
        sorted(design.observed),
        reference.structure_digest(design.netlist),
    ]
    for matrix in (graph.pred, graph.succ):
        live = matrix.to_scipy()
        state += [matrix.shape, live.shape, matrix.nnz]
        state += [(a.dtype.str, a.tobytes()) for a in (live.indptr, live.indices, live.data)]
    return state


class TestPreviewValidity:
    """A preview commits only in the design state it was taken in."""

    def test_foreign_duplicate_and_obs_previews_are_refused(self, design):
        other = IncrementalDesign(generate_design(200, seed=41))
        before = design_state(design)
        with pytest.raises(ValueError, match="another design"):
            design.insert_ops([other.preview_op(10)])
        with pytest.raises(ValueError, match="same target"):
            design.insert_ops(design.preview_ops([10, 33, 10]))
        p, checkpoint = design.insert_op(10)
        with pytest.raises(ValueError, match="observation point cell"):
            design.insert_ops(design.preview_ops([33, p]))
        design.rollback(checkpoint)
        assert design_state(design) == before

    def test_stale_preview_is_refused_until_a_rollback_returns(self, design):
        preview = design.preview_op(10)
        _, checkpoint = design.insert_op(57)
        with pytest.raises(ValueError, match="stale"):
            design.insert_ops([preview])
        design.rollback(checkpoint)
        # Back in the state it was taken in: current again.
        (p,), checkpoint = design.insert_ops([preview])
        assert p == design.num_nodes - 1 and design.netlist.fanins(p) == [10]
        design.rollback(checkpoint)
        # A new commit from the same state is a new state.
        design.insert_op(57)
        with pytest.raises(ValueError, match="stale"):
            design.insert_ops([preview])

    def test_only_the_latest_commit_rolls_back(self, design):
        _, first = design.insert_op(10)
        _, second = design.insert_op(57)
        with pytest.raises(ValueError, match="most recent"):
            design.rollback(first)
        design.rollback(second)
        design.rollback(first)

    def test_empty_commit(self, design):
        before = design_state(design)
        ids, checkpoint = design.insert_ops([])
        assert ids == [] and checkpoint.changed_rows == []
        design.rollback(checkpoint)
        assert design_state(design) == before


class TestInsertOps:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["generated", "random"]),
        seed=st.integers(0, 5000),
        prior=st.lists(st.integers(0, 10**6), max_size=3),
        picks=st.lists(st.integers(0, 10**6), max_size=10),
    )
    def test_one_commit_equals_one_insert_op_each(self, kind, seed, prior, picks):
        netlist = build_design(kind, seed)
        batch = IncrementalDesign(netlist.copy())
        sequential = IncrementalDesign(netlist.copy())
        insertable = [
            v for v in netlist.nodes() if netlist.gate_type(v) is not GateType.OBS
        ]
        for c in prior:
            for design in (batch, sequential):
                design.insert_op(insertable[c % len(insertable)])
        # On designs this small random picks share cone nodes, and a pick
        # may repeat a prior target (its CO is 0 already).
        targets = list(dict.fromkeys(insertable[p % len(insertable)] for p in picks))

        before = design_state(batch)
        assert design_state(sequential) == before
        ids, checkpoint = batch.insert_ops(batch.preview_ops(targets))
        expected_ids, changed = [], set()
        for target in targets:
            p, single = sequential.insert_op(target)
            expected_ids.append(p)
            changed.update(single.changed_rows)
        assert ids == expected_ids
        assert set(checkpoint.changed_rows) == changed
        assert design_state(batch) == design_state(sequential)
        batch.rollback(checkpoint)
        assert design_state(batch) == before


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


class HeapOracle:
    """The node-by-node relaxation's view of a design under insert and
    rollback: its own netlist copy and SCOAP arrays."""

    def __init__(self, netlist, attribute_config):
        self.netlist = netlist.copy()
        self.config = attribute_config
        self.levels = logic_levels(self.netlist)
        self.scoap = compute_scoap(self.netlist)
        self.saved = []

    def preview(self, target):
        """Moved nodes (ascending), their new CO and attribute rows."""
        cc0, cc1, co = self.scoap.cc0, self.scoap.cc1, self.scoap.co.copy()
        observed = set(self.netlist.observation_sites)
        observed.update(self.netlist.observation_points(), [target])
        changed = refresh_observability(
            self.netlist, ScoapResult(cc0, cc1, co), [target], self.levels, observed
        )
        moved = np.array(sorted(dict(changed)), dtype=np.int64)
        raw = np.stack(
            [self.levels[moved].astype(np.float64), cc0[moved], cc1[moved], co[moved]],
            axis=1,
        )
        return moved, co[moved], normalize_attributes(raw, self.config)

    def insert(self, target):
        scoap = self.scoap
        self.saved.append(ScoapResult(scoap.cc0.copy(), scoap.cc1.copy(), scoap.co.copy()))
        op = self.netlist.insert_observation_point(target)
        update_scoap_after_op(self.netlist, scoap, op, self.levels)

    def rollback(self):
        self.netlist.remove_last_cell()
        self.scoap = self.saved.pop()


def build_design(kind, seed):
    if kind == "generated":
        return generate_design(40 + seed % 60, seed=seed)
    if kind == "parsed":
        stream = io.StringIO()
        write_bench(generate_design(40 + seed % 60, seed=seed), stream)
        return parse_bench(stream.getvalue())
    return reference.random_netlist(seed, 20 + seed % 60)


def csr_arrays(matrix) -> list:
    """Shape and CSR arrays of ``matrix`` as stored, unsorted: the order
    within a row is the order a sparse product accumulates in."""
    csr = matrix.to_scipy()
    return [csr.shape, *((a.dtype.str, a.tobytes()) for a in (csr.indptr, csr.indices, csr.data))]


class TestRollbackShrinks:
    """A rollback shrinks both matrices back to the old node count: after
    every commit and every rollback they are, array for array, what
    ``adjacency_pair`` builds from the netlist afresh."""

    @staticmethod
    def check(design):
        graph = design.graph
        for live, fresh in zip((graph.pred, graph.succ), adjacency_pair(design.netlist)):
            assert csr_arrays(live) == csr_arrays(fresh)
            assert csr_arrays(pickle.loads(pickle.dumps(live))) == csr_arrays(fresh)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["generated", "parsed", "random"]),
        seed=st.integers(0, 5000),
        steps=st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 10**6), min_size=1, max_size=4)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_every_step_equals_a_fresh_adjacency(self, kind, seed, steps):
        design = IncrementalDesign(build_design(kind, seed))
        checkpoints = []
        self.check(design)
        for commit, picks in steps:
            if commit or not checkpoints:
                netlist = design.netlist
                insertable = [
                    v for v in netlist.nodes() if netlist.gate_type(v) is not GateType.OBS
                ]
                targets = list(dict.fromkeys(insertable[p % len(insertable)] for p in picks))
                checkpoints.append(design.insert_ops(design.preview_ops(targets))[1])
            else:
                design.rollback(checkpoints.pop())
            self.check(design)


class TestArrayRelaxation:
    """One stacked relaxation for previews and inserts, held to the heap."""

    def check_previews(self, design, oracle, candidates):
        previews = design.preview_ops(candidates)
        assert [p.target for p in previews] == candidates
        for target, preview in zip(candidates, previews):
            moved, new_co, rows = oracle.preview(target)
            assert preview.rows.tolist() == [*moved.tolist(), design.num_nodes]
            assert np.array_equal(preview.co, [*new_co, 0.0])
            assert np.array_equal(preview.attributes[:-1], rows)
            assert np.array_equal(preview.attributes[-1], design._op_row)
            single = design.preview_op(target)
            assert np.array_equal(single.rows, preview.rows)
            assert np.array_equal(single.attributes, preview.attributes)
            assert np.array_equal(single.co, preview.co)

    def check_co(self, design, oracle):
        assert np.array_equal(design.scoap.co, oracle.scoap.co)
        assert np.array_equal(design.scoap.cc0, oracle.scoap.cc0)
        assert np.array_equal(design.scoap.cc1, oracle.scoap.cc1)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["generated", "random"]),
        seed=st.integers(0, 5000),
        commits=st.lists(st.integers(0, 10**6), max_size=5),
        rollbacks=st.integers(0, 5),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
    )
    def test_previews_inserts_and_rollbacks_equal_the_heap(
        self, kind, seed, commits, rollbacks, picks
    ):
        netlist = build_design(kind, seed)
        design = IncrementalDesign(netlist.copy())
        oracle = HeapOracle(netlist, design.attribute_config)
        insertable = [
            v for v in netlist.nodes() if netlist.gate_type(v) is not GateType.OBS
        ]
        commits = [insertable[c % len(insertable)] for c in commits]
        checkpoints = []
        self.check_previews(design, oracle, [p % design.num_nodes for p in picks])
        for target in commits:
            checkpoints.append(design.insert_op(target)[1])
            oracle.insert(target)
            self.check_co(design, oracle)
            assert np.array_equal(design.scoap.co, compute_scoap(design.netlist).co)
            # Candidates now include committed targets and OBS cells.
            candidates = [p % design.num_nodes for p in picks]
            self.check_previews(design, oracle, [*candidates, target, design.num_nodes - 1])
        for checkpoint in checkpoints[::-1][:rollbacks]:
            design.rollback(checkpoint)
            oracle.rollback()
            self.check_co(design, oracle)
            self.check_previews(design, oracle, [p % design.num_nodes for p in picks])


class TestWalkFaninCones:
    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["generated", "random"]),
        seed=st.integers(0, 5000),
        picks=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_one_cone_chunks_equal_the_depth_first_walk(self, kind, seed, picks):
        design = IncrementalDesign(build_design(kind, seed))
        structure = design.netlist.structure()
        nodes = [p % design.num_nodes for p in picks]
        whole = walk_fanin_cones(structure.fanin_ptr, structure.fanin_idx, nodes)
        with mock.patch.object(inference, "CONE_MASK_BYTES", 1):
            one_by_one = walk_fanin_cones(structure.fanin_ptr, structure.fanin_idx, nodes)
            memoised = design.fanin_cones(nodes)
        assert len(whole) == len(one_by_one) == len(memoised) == len(nodes)
        for node, a, b, c in zip(nodes, whole, one_by_one, memoised):
            expected = reference_fanin_cone(design, node)
            assert a.tolist() == b.tolist() == c.tolist() == expected

    def test_no_nodes(self, design):
        structure = design.netlist.structure()
        assert walk_fanin_cones(structure.fanin_ptr, structure.fanin_idx, []) == []
        assert design.fanin_cones([]) == []
