"""FastInference dtype handling (fp32 deployment path)."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCN
from repro.experiments.common import default_gcn_config

FP32 = ExecutionConfig(dtype="float32")


@pytest.fixture(scope="module")
def setup():
    model = GCN(default_gcn_config(seed=9))
    rng = np.random.default_rng(2)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    graph = GraphData.from_netlist(generate_design(200, seed=61))
    return model.layer_weights(), graph


class TestFp32Inference:
    def test_outputs_float32(self, setup):
        weights, graph = setup
        engine = FastInference(weights, execution=FP32)
        assert engine.logits(graph).dtype == np.float32

    def test_close_to_fp64(self, setup):
        weights, graph = setup
        full = FastInference(weights).logits(graph)
        half = FastInference(weights, execution=FP32).logits(graph)
        assert np.allclose(full, half, atol=1e-3)

    def test_predictions_match_fp64(self, setup):
        weights, graph = setup
        a = FastInference(weights).predict(graph)
        b = FastInference(weights, execution=FP32).predict(graph)
        assert (a == b).mean() > 0.99  # ties at the boundary may flip

    def test_original_weights_not_mutated(self, setup):
        weights, graph = setup
        FastInference(weights, execution=FP32).logits(graph)
        assert weights.encoder_weights[0].dtype == np.float64
