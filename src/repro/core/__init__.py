"""The paper's core contribution: the high-performance netlist GCN."""

from repro.core.attributes import AttributeConfig, OP_ATTRIBUTES, build_attributes
from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig, GCNWeights, SumAggregator
from repro.core.inference import FastInference
from repro.core.embedding import RecursiveEmbedder
from repro.core.multistage import MultiStageConfig, MultiStageGCN
from repro.core.trainer import (
    ParallelTrainer,
    TrainConfig,
    Trainer,
    TrainHistory,
    masked_accuracy,
)
from repro.core.serialize import load_cascade, load_gcn, save_cascade, save_gcn
from repro.core.explain import NodeAttribution, explain_node
from repro.core.aggregators import MaxPoolAggregator, MeanAggregator

__all__ = [
    "NodeAttribution",
    "explain_node",
    "MaxPoolAggregator",
    "MeanAggregator",
    "load_cascade",
    "load_gcn",
    "save_cascade",
    "save_gcn",
    "AttributeConfig",
    "OP_ATTRIBUTES",
    "build_attributes",
    "GraphData",
    "GCN",
    "GCNConfig",
    "GCNWeights",
    "SumAggregator",
    "FastInference",
    "RecursiveEmbedder",
    "MultiStageConfig",
    "MultiStageGCN",
    "ParallelTrainer",
    "TrainConfig",
    "Trainer",
    "TrainHistory",
    "masked_accuracy",
]
