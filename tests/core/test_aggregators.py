"""Alternative aggregators: semantics, gradients, GCN integration."""

import numpy as np
import pytest

from repro.core.aggregators import MaxPoolAggregator, MeanAggregator, SumAggregator
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.nn.sparse import COOMatrix
from repro.nn.tensor import Tensor
from tests.helpers import numeric_grad


@pytest.fixture
def path_graph():
    """3-node path 0 -> 1 -> 2 with scalar features."""
    pred = COOMatrix((3, 3), [1.0, 1.0], [1, 2], [0, 1])
    succ = COOMatrix((3, 3), csr=pred.to_scipy().T.tocsr())
    attrs = np.array([[1.0], [10.0], [100.0]])
    return GraphData(pred=pred, succ=succ, attributes=attrs)


class TestMeanAggregator:
    def test_matches_sum_on_degree_one(self, path_graph):
        # every node has <=1 pred and <=1 succ: mean == sum
        agg_sum = SumAggregator(0.5, 0.25)
        agg_mean = MeanAggregator(0.5, 0.25)
        x = Tensor(path_graph.attributes)
        assert np.allclose(
            agg_sum(x, path_graph).data, agg_mean(x, path_graph).data
        )

    def test_normalises_high_fanin(self):
        pred = COOMatrix((3, 3), [1.0, 1.0], [2, 2], [0, 1])
        succ = COOMatrix((3, 3), csr=pred.to_scipy().T.tocsr())
        attrs = np.array([[2.0], [4.0], [0.0]])
        graph = GraphData(pred=pred, succ=succ, attributes=attrs)
        out = MeanAggregator(1.0, 0.0)(Tensor(attrs), graph).data
        assert out[2, 0] == pytest.approx(0.0 + (2.0 + 4.0) / 2)

    def test_gradient(self, path_graph, rng):
        agg = MeanAggregator(0.5, 0.5)
        x_data = rng.normal(size=(3, 2))
        graph = GraphData(
            pred=path_graph.pred, succ=path_graph.succ, attributes=x_data
        )
        x = Tensor(x_data.copy(), requires_grad=True)
        (agg(x, graph) ** 2).sum().backward()
        expected = numeric_grad(
            lambda d: (agg(Tensor(d), graph) ** 2).sum().item(), x_data.copy()
        )
        assert np.allclose(x.grad, expected, atol=1e-6)


class TestMaxPoolAggregator:
    def test_forward_shape(self, path_graph):
        agg = MaxPoolAggregator()
        agg.prepare((1,))
        out = agg(Tensor(path_graph.attributes), path_graph)
        assert out.shape == (3, 1)

    def test_empty_neighbourhood_contributes_zero(self):
        pred = COOMatrix((2, 2))
        succ = COOMatrix((2, 2))
        attrs = np.array([[3.0], [4.0]])
        graph = GraphData(pred=pred, succ=succ, attributes=attrs)
        agg = MaxPoolAggregator()
        agg.prepare((1,))
        out = agg(Tensor(attrs), graph).data
        assert np.allclose(out, attrs)  # only the identity term survives

    def test_gradient_flows(self, path_graph):
        agg = MaxPoolAggregator()
        agg.prepare((1,))
        x = Tensor(path_graph.attributes, requires_grad=True)
        (agg(x, path_graph) ** 2).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0

    def test_prepare_registers_parameters(self):
        agg = MaxPoolAggregator()
        agg.prepare((4, 8))
        widths = {p.data.shape for p in agg.parameters() if p.data.ndim == 2}
        assert (4, 4) in widths and (8, 8) in widths


class TestGcnIntegration:
    @pytest.mark.parametrize("aggregator_cls", [MeanAggregator, MaxPoolAggregator])
    def test_trains_with_alternative_aggregator(self, aggregator_cls, c17):
        from repro.core.trainer import TrainConfig, Trainer

        config = GCNConfig(hidden_dims=(8,), fc_dims=(8,))
        model = GCN(config, aggregator=aggregator_cls())
        graph = GraphData.from_netlist(c17, labels=np.arange(c17.num_nodes) % 2)
        trainer = Trainer(model, TrainConfig(epochs=5, eval_every=5))
        history = trainer.fit([graph])
        assert len(history.loss) == 1

    def test_layer_weights_requires_sum(self):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)),
                    aggregator=MeanAggregator())
        with pytest.raises(ValueError, match="SumAggregator"):
            model.layer_weights()

    def test_default_is_sum(self):
        assert type(GCN().aggregator).__name__ == "SumAggregator"
