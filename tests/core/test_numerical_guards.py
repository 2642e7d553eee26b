"""Non-finite guards: inference and training fail typed, not silently."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import TrainConfig, Trainer
from repro.flow.scorer import IncrementalScorer
from repro.resilience.errors import NumericalError, ReproError


@pytest.fixture
def graph() -> GraphData:
    rng = np.random.default_rng(0)
    g = GraphData.from_netlist(generate_design(80, seed=9))
    g.labels = rng.integers(0, 2, size=g.num_nodes)
    return g


def poisoned_engine(nan_in: str = "fc") -> FastInference:
    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
    weights = model.layer_weights()
    target = weights.fc_weights if nan_in == "fc" else weights.encoder_weights
    target[0][0, 0] = np.nan
    return FastInference(weights)


class TestFastInferenceGuards:
    def test_nan_weights_raise_numerical_error(self, graph):
        engine = poisoned_engine()
        with pytest.raises(NumericalError, match="non-finite"):
            engine.logits(graph)

    def test_nan_encoder_raises_numerical_error(self, graph):
        with pytest.raises(NumericalError):
            poisoned_engine(nan_in="encoder").predict_proba(graph)

    def test_diagnostics_name_graph_and_output(self, graph):
        with pytest.raises(NumericalError) as info:
            poisoned_engine().logits(graph)
        assert info.value.diagnostics["graph"] == graph.name
        assert info.value.diagnostics["output"] == "logits"
        assert info.value.diagnostics["bad_nodes"] > 0

    def test_numerical_error_is_typed(self):
        assert issubclass(NumericalError, ReproError)
        assert issubclass(NumericalError, ArithmeticError)

    def test_clean_weights_pass(self, graph):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
        engine = FastInference(model.layer_weights())
        proba = engine.predict_proba(graph)
        assert np.isfinite(proba).all()


class TestIncrementalScorerGuards:
    def test_nan_attribute_row_fails_rescore_typed(self, graph):
        weights = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,))).layer_weights()
        scorer = IncrementalScorer(weights)
        scorer.bind(graph)
        clean = scorer.logits.copy()
        graph.attributes[5, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite") as info:
            scorer.rescore([5])
        assert info.value.diagnostics["graph"] == graph.name
        # the garbage rows never reached the published logits
        assert np.array_equal(scorer.logits, clean)

    def test_nan_attribute_row_fails_bind_typed(self, graph):
        weights = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,))).layer_weights()
        graph.attributes[5, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            IncrementalScorer(weights).bind(graph)


class TestTrainerGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_aborts_with_diagnostics(self, graph):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
        trainer = Trainer(model, TrainConfig(epochs=20, eval_every=1))
        # Deterministic divergence: poison a parameter so the very first
        # forward pass produces a non-finite loss.
        next(iter(model.parameters())).data[:] = np.inf
        with pytest.raises(NumericalError) as info:
            trainer.fit([graph])
        assert info.value.diagnostics["epoch"] == 1
        assert info.value.diagnostics["optimizer"] == "adam"

    def test_healthy_training_unaffected(self, graph):
        model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,)))
        trainer = Trainer(model, TrainConfig(epochs=3, eval_every=1))
        history = trainer.fit([graph])
        assert len(history.loss) == 3
        assert all(np.isfinite(history.loss))
