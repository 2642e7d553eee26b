"""Ranking in stacked what-if passes vs the sequential oracle, bit for bit."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design
from repro.circuit.netlist import Netlist
from repro.core import inference
from repro.flow import scorer as scorer_module
from repro.flow.impact import ImpactEvaluator
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import IncrementalScorer, as_scorer
from repro.nn.sparse import COOMatrix
from repro.resilience.errors import NumericalError

from tests.circuit.reference_frontend import structure_digest
from tests.flow.reference_impact import reference_fanin_cone, reference_rank
from tests.flow.test_impact import co_threshold_predictor
from tests.flow.test_scorer import _state, make_small_weights

UNBOUNDED = 10**9


@pytest.fixture(scope="module")
def small_weights():
    return make_small_weights()


def build(weights, gates: int, seed: int, commits: list[int]):
    """A design with OPs committed at ``commits`` (so its live CSRs carry
    appended edges), a scorer that has followed it, and the labels."""
    design = IncrementalDesign(generate_design(gates, seed=seed))
    scorer = IncrementalScorer(weights)
    labels = scorer.bind(design.graph)
    if commits:
        pending = []
        for target in commits:
            pending += design.insert_op(target)[1].changed_rows
        labels, _ = scorer.rescore(pending)
    return design, scorer, labels.copy()


def snapshot(design: IncrementalDesign, scorer: IncrementalScorer) -> list:
    """Everything ``rank`` must leave alone, as bytes."""
    graph, scoap = design.graph, design.scoap
    arrays = [scoap.cc0, scoap.cc1, scoap.co]
    for matrix in (graph.pred, graph.succ):
        csr = matrix.to_scipy()
        arrays += [csr.indptr, csr.indices, csr.data]
    return [
        *_state(design, scorer),
        *(np.ascontiguousarray(a).tobytes() for a in arrays),
        sorted(design.observed),
        structure_digest(design.netlist),
        design.netlist.mutation_count,
        graph.pred.shape,
        graph.succ.shape,
    ]


def pick_case(n_original: int, commits: list[int], picks: list[int], design):
    """Candidates from hypothesis draws, plus the awkward ones: a target
    whose CO is already 0 and a fan-in of another candidate (overlap)."""
    candidates = [p % n_original for p in picks]
    if commits:
        candidates.append(commits[0])
    fanins = design.netlist.fanins(candidates[0])
    if fanins:
        candidates.append(fanins[0])
    return list(dict.fromkeys(candidates))


@contextmanager
def stacked_logits():
    """Every chunk's logits, as ``_stacked_logits`` returns them."""
    seen = []
    inner = IncrementalScorer._stacked_logits

    def hooked(self, *args):
        seen.append(inner(self, *args))
        return seen[-1]

    with mock.patch.object(IncrementalScorer, "_stacked_logits", hooked):
        yield seen


def check_sliced(weights, gates, seed, commits, candidates, chunk_rows) -> int:
    """``what_if`` asked for each candidate's fan-in cone: the closure's
    rows inside the cone, with the logits ``insert_op`` + ``rescore`` give
    them on a copy and the labels the unsliced answer has there; nothing
    touched.  Returns the number of chunks."""
    design, scorer, _ = build(weights, gates, seed, commits)
    other, sequential, _ = build(weights, gates, seed, commits)
    previews = [design.preview_op(c) for c in candidates]
    cones = [design.fanin_cone(c) for c in candidates]
    whole = scorer.what_if(previews)

    before = snapshot(design, scorer)
    with (
        mock.patch.object(inference, "WHAT_IF_ROWS", chunk_rows),
        stacked_logits() as seen,
    ):
        sliced = scorer.what_if(previews, cones)
    assert snapshot(design, scorer) == before
    stacked = np.concatenate(seen)
    at = 0
    for candidate, cone, (rows, labels), (all_rows, all_labels) in zip(
        candidates, cones, sliced, whole, strict=True
    ):
        _, checkpoint = other.insert_op(candidate)
        _, token = sequential.rescore(checkpoint.changed_rows)
        assert np.array_equal(all_rows, token[2])
        inside = np.isin(all_rows, cone)
        assert candidate in rows
        assert np.array_equal(rows, all_rows[inside])
        assert np.array_equal(labels, all_labels[inside])
        logits = stacked[at : at + len(rows)]
        assert np.array_equal(logits, sequential.logits[rows])
        assert np.array_equal(labels, np.argmax(logits, axis=1))
        at += len(rows)
        sequential.rollback(token)
        other.rollback(checkpoint)
    assert at == len(stacked)
    return len(seen)


_CASE = dict(
    seed=st.integers(0, 5000),
    commits=st.lists(st.integers(0, 10**6), max_size=5),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
    chunk_rows=st.sampled_from([1, 40, UNBOUNDED]),
)


class TestBatchedRank:
    @settings(max_examples=40, deadline=None)
    @given(**_CASE)
    def test_rank_equals_sequential_oracle(
        self, small_weights, seed, commits, picks, chunk_rows
    ):
        gates = 40 + seed % 50
        n_original = generate_design(gates, seed=seed).num_nodes
        commits = list(dict.fromkeys(c % n_original for c in commits))
        design, scorer, labels = build(small_weights, gates, seed, commits)
        oracle = build(small_weights, gates, seed, commits)
        candidates = pick_case(n_original, commits, picks, design)

        before = snapshot(design, scorer)
        with mock.patch.object(inference, "WHAT_IF_ROWS", chunk_rows):
            ranked = ImpactEvaluator(design, scorer).rank(
                design.preview_ops(candidates), labels
            )
        assert snapshot(design, scorer) == before
        assert ranked == reference_rank(*oracle[:2], candidates, oracle[2])

    @settings(max_examples=25, deadline=None)
    @given(**_CASE)
    def test_logits_equal_insert_and_rescore(
        self, small_weights, seed, commits, picks, chunk_rows
    ):
        gates = 40 + seed % 50
        n_original = generate_design(gates, seed=seed).num_nodes
        commits = list(dict.fromkeys(c % n_original for c in commits))
        design, scorer, _ = build(small_weights, gates, seed, commits)
        other, sequential, _ = build(small_weights, gates, seed, commits)
        candidates = pick_case(n_original, commits, picks, design)

        # ``check_finite`` sees every chunk's stacked logits.
        stacked = []
        previews = [design.preview_op(c) for c in candidates]
        with (
            mock.patch.object(inference, "WHAT_IF_ROWS", chunk_rows),
            mock.patch.object(
                scorer_module, "check_finite", lambda logits, *_: stacked.append(logits)
            ),
        ):
            results = scorer.what_if(previews)
        if chunk_rows == 1:
            assert len(stacked) == len(candidates)
        if chunk_rows == UNBOUNDED:
            assert len(stacked) == 1
        stacked = np.concatenate(stacked)
        at = 0
        for candidate, (rows, labels) in zip(candidates, results, strict=True):
            _, checkpoint = other.insert_op(candidate)
            _, token = sequential.rescore(checkpoint.changed_rows)
            # The same rows re-scored (the OBS cell, row ``n``, among
            # them), to the same bits.
            assert np.array_equal(rows, token[2])
            logits = stacked[at : at + len(rows)]
            assert np.array_equal(logits, sequential.logits[rows])
            assert np.array_equal(labels, np.argmax(logits, axis=1))
            at += len(rows)
            sequential.rollback(token)
            other.rollback(checkpoint)
        assert at == len(stacked)

    @settings(max_examples=25, deadline=None)
    @given(**_CASE)
    def test_sliced_logits_equal_insert_and_rescore_inside_the_cone(
        self, small_weights, seed, commits, picks, chunk_rows
    ):
        gates = 40 + seed % 50
        netlist = generate_design(gates, seed=seed)
        commits = list(dict.fromkeys(c % netlist.num_nodes for c in commits))
        candidates = pick_case(
            netlist.num_nodes, commits, picks, IncrementalDesign(netlist)
        )
        chunks = check_sliced(
            small_weights, gates, seed, commits, candidates, chunk_rows
        )
        if chunk_rows == 1:
            assert chunks == len(candidates)
        if chunk_rows == UNBOUNDED:
            assert chunks == 1

    @pytest.mark.parametrize("chunk_rows", [1, UNBOUNDED])
    def test_single_candidate(self, small_weights, chunk_rows):
        assert check_sliced(small_weights, 80, 11, [30], [52], chunk_rows) == 1

    def test_target_already_observed_moves_no_attribute(self, small_weights):
        # CO is 0 at a committed OP's target: another OP there changes
        # wiring only, and the sliced pass still has to see the new edge.
        design, _, _ = build(small_weights, 80, 11, [30])
        assert design.preview_op(30).rows.tolist() == [design.num_nodes]
        check_sliced(small_weights, 80, 11, [30], [30], UNBOUNDED)

    def test_overlapping_cones_share_a_chunk(self, small_weights):
        design, _, _ = build(small_weights, 80, 11, [])
        inner = design.netlist.fanins(52)[0]
        assert set(design.fanin_cone(inner)) < set(design.fanin_cone(52))
        assert check_sliced(small_weights, 80, 11, [], [52, inner], UNBOUNDED) == 1

    def test_within_that_misses_the_closure(self, small_weights, monkeypatch):
        design, scorer, labels = build(small_weights, 80, 11, [30])
        previews = [design.preview_op(c) for c in (52, 40)]
        closures = [rows for rows, _ in scorer.what_if(previews)]
        elsewhere = [
            np.setdiff1d(np.arange(design.num_nodes), rows) for rows in closures
        ]
        assert all(len(rows) for rows in elsewhere)
        # One candidate asked about elsewhere: an empty answer for it, the
        # other's unaffected.
        cone = design.fanin_cone(40)
        (rows, changed), (kept, _) = scorer.what_if(previews, [elsewhere[0], cone])
        assert len(rows) == len(changed) == 0
        assert np.array_equal(kept, closures[1][np.isin(closures[1], cone)])

        # All of them: no kernel call at all, and every impact 0.
        class AskedElsewhere:
            def what_if(self, previews, within):
                return scorer.what_if(previews, elsewhere)

        monkeypatch.setattr(scorer_module, "layer_forward", None)
        ranked = ImpactEvaluator(design, AskedElsewhere()).rank(previews, labels)
        assert [impact for _, impact in ranked] == [0, 0]

    def test_plain_callable_ranks_like_the_oracle(self):
        predictor = co_threshold_predictor()
        design = IncrementalDesign(generate_design(200, seed=43))
        other = IncrementalDesign(generate_design(200, seed=43))
        scorer, sequential = as_scorer(predictor), as_scorer(predictor)
        labels = scorer.bind(design.graph).copy()
        sequential.bind(other.graph)
        candidates = np.flatnonzero(labels == 1)[:8].tolist()
        assert len(candidates) > 1
        ranked = ImpactEvaluator(design, scorer).rank(design.preview_ops(candidates), labels)
        assert ranked == reference_rank(other, sequential, candidates, labels)
        assert any(impact > 0 for _, impact in ranked)

    def test_no_candidates(self, small_weights):
        design, scorer, labels = build(small_weights, 60, 1, [])
        assert ImpactEvaluator(design, scorer).rank(design.preview_ops([]), labels) == []

    def test_unscored_edit_is_refused(self, small_weights):
        design, scorer, labels = build(small_weights, 60, 1, [])
        preview = design.preview_op(7)
        design.insert_op(9)
        with pytest.raises(ValueError, match="last scored"):
            scorer.what_if([preview])

    def test_ranking_mutates_nothing(self, small_weights, monkeypatch):
        design, scorer, labels = build(small_weights, 120, 3, [5, 40])
        candidates = np.flatnonzero(labels == 1)[:12].tolist()
        assert candidates

        def forbidden(*args, **kwargs):
            raise AssertionError("ranking mutated the design")

        for name in ("resize", "extend"):
            monkeypatch.setattr(COOMatrix, name, forbidden)
        monkeypatch.setattr(Netlist, "insert_observation_point", forbidden)
        ranked = ImpactEvaluator(design, scorer).rank(design.preview_ops(candidates), labels)
        assert len(ranked) == len(candidates)

    def test_numerical_error_leaves_the_scorer_usable(self):
        weights = make_small_weights()
        design, scorer, labels = build(weights, 120, 3, [5])
        oracle = build(weights, 120, 3, [5])
        candidates = np.flatnonzero(labels == 1)[:6].tolist()
        evaluator = ImpactEvaluator(design, scorer)
        before = snapshot(design, scorer)

        clean = weights.fc_weights[0][0, 0]
        weights.fc_weights[0][0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            evaluator.rank(design.preview_ops(candidates), labels)
        weights.fc_weights[0][0, 0] = clean
        # Nothing was patched: no re-bind needed before the next call.
        assert snapshot(design, scorer) == before
        assert evaluator.rank(design.preview_ops(candidates), labels) == reference_rank(
            *oracle[:2], candidates, oracle[2]
        )


class TestFaninConeMemo:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
    def test_cone_equals_depth_first_walk(self, seed, picks):
        design = IncrementalDesign(generate_design(40 + seed % 50, seed=seed))
        n = design.num_nodes
        for round_ in range(2):
            for p in picks:
                cone = design.fanin_cone(p % n)
                assert cone.dtype == np.int64
                assert cone.tolist() == reference_fanin_cone(design, p % n)
                assert design.fanin_cone(p % n) is cone  # walked once
            # An insertion changes no original node's cone.
            design.insert_op(picks[0] % n)

    def test_obs_cell_cone_follows_its_target(self):
        design = IncrementalDesign(generate_design(60, seed=2))
        for target in (20, 31):
            undo = design.tentative_insert(target)
            p = design.num_nodes - 1
            assert design.fanin_cone(p).tolist() == reference_fanin_cone(design, p)
            assert p not in design.fanin_cone(p, include_self=False)
            undo()
