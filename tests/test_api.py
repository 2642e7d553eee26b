"""The ``repro.api`` facade: verbs, typed results, re-export surface."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import api

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def netlist():
    return api.generate_design(80, seed=4)


@pytest.fixture(scope="module")
def labelled_graph(netlist):
    labels = api.label_nodes(
        netlist, api.LabelConfig(n_patterns=64)
    )
    return api.build_graph(netlist, labels=labels.labels)


@pytest.fixture(scope="module")
def trained(labelled_graph):
    return api.train(
        [labelled_graph],
        config=api.TrainConfig(epochs=3),
        gcn=api.GCNConfig(seed=0),
    )


class TestNetlistIO:
    def test_load_netlist_from_path(self, netlist, tmp_path):
        path = tmp_path / "design.bench"
        api.save_netlist(netlist, path)
        loaded = api.load_netlist(path)
        assert loaded.num_nodes == netlist.num_nodes
        assert loaded.name == "design"

    def test_load_netlist_from_text(self, netlist, tmp_path):
        path = tmp_path / "design.bench"
        api.save_netlist(netlist, path)
        loaded = api.load_netlist(path.read_text(), name="inline")
        assert loaded.num_nodes == netlist.num_nodes
        assert loaded.name == "inline"

    def test_load_netlist_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            api.load_netlist(tmp_path / "nope.bench")


class TestBuildGraph:
    def test_build_graph_shapes(self, netlist):
        graph = api.build_graph(netlist)
        assert graph.num_nodes == netlist.num_nodes
        assert graph.labels is None

    def test_build_graph_labels_attached(self, labelled_graph, netlist):
        assert labelled_graph.labels is not None
        assert labelled_graph.labels.shape == (netlist.num_nodes,)


class TestTrainAndScore:
    def test_train_returns_typed_result(self, trained):
        assert isinstance(trained, api.TrainResult)
        assert trained.history.loss
        assert isinstance(trained.model, api.GCN)

    def test_score_from_model(self, trained, labelled_graph):
        result = api.score(trained.model, labelled_graph)
        assert isinstance(result, api.ScoreResult)
        n = labelled_graph.num_nodes
        assert result.labels.shape == (n,)
        assert result.proba.shape == (n,)
        assert result.logits.shape == (n, 2)
        assert result.model_kind == "gcn"
        assert 0 <= result.n_positive <= n
        assert ((result.proba >= 0) & (result.proba <= 1)).all()

    def test_score_of_a_cell_less_netlist_is_empty(self, trained):
        empty = api.load_netlist("# nothing\n")
        assert empty.num_nodes == 0
        assert api.build_graph(empty).attributes.shape == (0, 4)
        result = api.score(trained.model, empty)
        assert result.labels.shape == result.proba.shape == (0,)
        assert result.logits.shape == (0, 2)
        assert result.n_positive == 0

    def test_score_from_checkpoint_path(self, trained, labelled_graph, tmp_path):
        path = tmp_path / "model.npz"
        trained.save(path)
        from_path = api.score(path, labelled_graph)
        from_model = api.score(trained.model, labelled_graph)
        assert np.array_equal(from_path.labels, from_model.labels)
        assert np.allclose(from_path.logits, from_model.logits)

    def test_score_from_weights_and_engine(self, trained, labelled_graph):
        weights = trained.model.layer_weights()
        baseline = api.score(trained.model, labelled_graph).logits
        assert np.allclose(api.score(weights, labelled_graph).logits, baseline)
        engine = api.FastInference(weights)
        assert np.allclose(api.score(engine, labelled_graph).logits, baseline)

    def test_score_accepts_netlist(self, trained, netlist, labelled_graph):
        via_netlist = api.score(trained.model, netlist)
        via_graph = api.score(trained.model, labelled_graph)
        assert np.array_equal(via_netlist.labels, via_graph.labels)

    def test_score_sharded_execution_bit_identical(self, trained, labelled_graph):
        single = api.score(
            trained.model,
            labelled_graph,
            execution=api.ExecutionConfig(backend="single"),
        )
        sharded = api.score(
            trained.model,
            labelled_graph,
            execution=api.ExecutionConfig(backend="sharded", shards=2, workers=1),
        )
        assert np.array_equal(single.logits, sharded.logits)
        assert sharded.backend == "sharded"

    def test_score_reports_the_prebuilt_engines_backend(
        self, trained, labelled_graph
    ):
        # Regression: the backend used to be resolved from the *call's*
        # default ExecutionConfig, so a sharded engine reported "single".
        weights = trained.model.layer_weights()
        sharded = api.ExecutionConfig(backend="sharded", shards=2, workers=1)
        routed = api.score(
            api.FastInference(weights, execution=sharded), labelled_graph
        )
        assert routed.backend == "sharded"
        with api.ShardedInference(weights, sharded) as engine:
            assert api.score(engine, labelled_graph).backend == "sharded"
        single = api.score(api.FastInference(weights), labelled_graph)
        assert single.backend == "single"
        assert np.array_equal(routed.logits, single.logits)

    def test_train_result_inference_roundtrip(self, trained, labelled_graph):
        engine = trained.inference()
        assert np.allclose(
            engine.logits(labelled_graph),
            api.score(trained.model, labelled_graph).logits,
        )


class TestFaultSimVerb:
    def test_simulate_faults_summary(self, netlist):
        summary = api.simulate_faults(netlist, n_patterns=128, seed=1)
        assert isinstance(summary, api.FaultSimSummary)
        assert summary.n_faults > 0
        assert 0.0 <= summary.coverage <= 1.0
        assert summary.detected + len(summary.undetected) == summary.n_faults

    def test_simulate_faults_explicit_list(self, netlist):
        faults = api.collapse_faults(netlist)[:10]
        summary = api.simulate_faults(netlist, faults=faults, n_patterns=64)
        assert summary.n_faults == 10


class TestInsertObservationPoints:
    def test_insert_with_model(self, trained, netlist):
        result = api.insert_observation_points(
            netlist,
            trained.model,
            config=api.OpiConfig(max_ops=2, max_iterations=1),
        )
        assert result.netlist.num_nodes >= netlist.num_nodes
        assert len(result.inserted) <= 2


class TestSurface:
    def test_all_exports_resolve(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_examples_only_use_exported_names(self):
        """Every name the examples pull off the facade must be in __all__."""
        exported = set(api.__all__)
        for path in sorted((ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "repro.api"
                ):
                    for alias in node.names:
                        assert alias.name in exported, (
                            f"{path.name} imports {alias.name} "
                            "which is not in repro.api.__all__"
                        )
