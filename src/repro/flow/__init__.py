"""Observation-point-insertion flows: GCN-guided (Section 4) and baseline."""

from repro.flow.scorer import (
    IncrementalScorer,
    Predictor,
    Scorer,
    WholeGraphScorer,
    as_scorer,
)
from repro.flow.modify import IncrementalDesign
from repro.flow.impact import ImpactEvaluator
from repro.flow.insertion import OpiConfig, OpiResult, run_gcn_opi
from repro.flow.baseline import BaselineOpiConfig, BaselineOpiResult, run_baseline_opi
from repro.flow.control import (
    ControlLabelConfig,
    ControlLabelResult,
    CpiConfig,
    CpiResult,
    label_control_nodes,
    run_gcn_cpi,
)

__all__ = [
    "ControlLabelConfig",
    "ControlLabelResult",
    "CpiConfig",
    "CpiResult",
    "label_control_nodes",
    "run_gcn_cpi",
    "IncrementalDesign",
    "ImpactEvaluator",
    "IncrementalScorer",
    "Predictor",
    "Scorer",
    "WholeGraphScorer",
    "as_scorer",
    "OpiConfig",
    "OpiResult",
    "run_gcn_opi",
    "BaselineOpiConfig",
    "BaselineOpiResult",
    "run_baseline_opi",
]
