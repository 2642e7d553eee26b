"""The GCN model: architecture, aggregation semantics, gradients."""

import numpy as np
import pytest

from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig, SumAggregator
from repro.nn.functional import cross_entropy
from repro.nn.layers import Linear
from repro.nn.sparse import COOMatrix
from repro.nn.tensor import Tensor


@pytest.fixture
def tiny_graph(c17):
    return GraphData.from_netlist(c17, labels=np.zeros(c17.num_nodes))


class TestArchitecture:
    def test_paper_dimensions(self):
        model = GCN(GCNConfig())
        dims = [(e.in_features, e.out_features) for e in model.encoders]
        assert dims == [(4, 32), (32, 64), (64, 128)]
        fc = [m for m in model.classifier.modules if isinstance(m, Linear)]
        fc_dims = [(m.in_features, m.out_features) for m in fc]
        assert fc_dims == [(128, 64), (64, 64), (64, 128), (128, 2)]

    def test_depth_follows_hidden_dims(self):
        model = GCN(GCNConfig(hidden_dims=(8, 16)))
        assert len(model.encoders) == 2
        assert model.config.depth == 2

    def test_parameter_count(self):
        model = GCN(GCNConfig())
        n_params = sum(p.size for p in model.parameters())
        expected = (
            2  # w_pr, w_su
            + (4 * 32 + 32) + (32 * 64 + 64) + (64 * 128 + 128)
            + (128 * 64 + 64) + (64 * 64 + 64) + (64 * 128 + 128) + (128 * 2 + 2)
        )
        assert n_params == expected

    def test_deterministic_init(self):
        a = GCN(GCNConfig(seed=5))
        b = GCN(GCNConfig(seed=5))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_dims": ()},
            {"hidden_dims": (0, 8)},
            {"fc_dims": (8, 0)},
            {"n_classes": 1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GCNConfig(**kwargs)


class TestAggregation:
    def test_sum_aggregator_formula(self):
        # 3-node path 0 -> 1 -> 2
        pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
        succ = COOMatrix((3, 3), csr=pred.to_scipy().T.tocsr())
        attrs = np.array([[1.0], [10.0], [100.0]])
        graph = GraphData(pred=pred, succ=succ, attributes=attrs)
        agg = SumAggregator(w_pr_init=0.5, w_su_init=0.25)
        out = agg(Tensor(attrs), graph).data
        # node 1: own 10 + 0.5 * pred(1) + 0.25 * succ(100)
        assert out[1, 0] == pytest.approx(10 + 0.5 * 1 + 0.25 * 100)
        assert out[0, 0] == pytest.approx(1 + 0.25 * 10)
        assert out[2, 0] == pytest.approx(100 + 0.5 * 10)

    def test_aggregator_weights_shared_across_layers(self):
        model = GCN(GCNConfig())
        aggs = {id(model.aggregator)}
        assert len(aggs) == 1  # single shared instance by construction
        names = [p.name for p in model.parameters() if p.name in ("w_pr", "w_su")]
        assert sorted(names) == ["w_pr", "w_su"]

    def test_isolated_node_keeps_own_features(self):
        pred = COOMatrix((2, 2))
        succ = COOMatrix((2, 2))
        attrs = np.array([[3.0], [4.0]])
        graph = GraphData(pred=pred, succ=succ, attributes=attrs)
        agg = SumAggregator()
        out = agg(Tensor(attrs), graph).data
        assert np.allclose(out, attrs)


class TestForward:
    def test_logits_shape(self, tiny_graph):
        model = GCN(GCNConfig())
        assert model(tiny_graph).shape == (tiny_graph.num_nodes, 2)

    def test_embed_shape(self, tiny_graph):
        model = GCN(GCNConfig())
        assert model.embed(tiny_graph).shape == (tiny_graph.num_nodes, 128)

    def test_predict_and_proba(self, tiny_graph):
        model = GCN(GCNConfig())
        pred = model.predict(tiny_graph)
        proba = model.predict_proba(tiny_graph)
        assert set(np.unique(pred)) <= {0, 1}
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.array_equal(pred, np.argmax(proba, axis=1))

    def test_gradients_reach_all_parameters(self, tiny_graph):
        model = GCN(GCNConfig())
        labels = np.zeros(tiny_graph.num_nodes, dtype=np.int64)
        labels[::2] = 1
        loss = cross_entropy(model(tiny_graph), labels)
        loss.backward()
        for p in model.parameters():
            assert p.grad is not None, p.name

    def test_aggregation_weight_gradient_nonzero(self, tiny_graph):
        model = GCN(GCNConfig())
        labels = np.zeros(tiny_graph.num_nodes, dtype=np.int64)
        labels[::2] = 1
        cross_entropy(model(tiny_graph), labels).backward()
        assert abs(float(model.aggregator.w_pr.grad)) > 0
        assert abs(float(model.aggregator.w_su.grad)) > 0

    def test_inductive_same_weights_different_graphs(self, c17, and_chain):
        # An inductive model applies to unseen graphs without retraining.
        model = GCN(GCNConfig())
        out1 = model.predict(GraphData.from_netlist(c17))
        out2 = model.predict(GraphData.from_netlist(and_chain))
        assert len(out1) == c17.num_nodes
        assert len(out2) == and_chain.num_nodes

    def test_layer_weights_snapshot(self, tiny_graph):
        model = GCN(GCNConfig())
        weights = model.layer_weights()
        assert weights.depth == 3
        assert weights.w_pr == float(model.aggregator.w_pr.data)
        assert len(weights.fc_weights) == 4
        # Snapshot is a copy: mutating it must not touch the model.
        weights.encoder_weights[0][:] = 0
        assert not np.allclose(model.encoders[0].weight.data, 0)
