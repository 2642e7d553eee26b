"""Multi-stage GCN cascade for imbalanced classification (Section 3.3).

A single classifier trained on a ~100:1 imbalanced node set collapses
towards the majority class.  The paper's remedy: a cascade of GCNs where
each stage is trained with a large positive-class weight so it only
*filters out negatives it is confident about*, passing everything else on;
after a few stages the surviving set is roughly balanced and the last stage
decides.

Class weights are set per stage from the live imbalance ratio of the
surviving training set (scaled by ``positive_weight_scale``), which is how
"imposing a large weight on the positive nodes" plays out when the ratio
shrinks stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.graphdata import GraphData
from repro.core.inference import difficult_proba
from repro.core.model import GCN, GCNConfig
from repro.core.trainer import TrainConfig, Trainer, TrainHistory
from repro.nn.tensor import no_grad
from repro.resilience.checkpoint import Checkpointer

__all__ = ["MultiStageConfig", "MultiStageGCN"]


@dataclass
class MultiStageConfig:
    """Cascade hyper-parameters."""

    n_stages: int = 3
    gcn: GCNConfig = field(default_factory=GCNConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    #: multiplies the live negative/positive ratio to get the stage's
    #: positive class weight; > 1 keeps positives on the safe side longer
    positive_weight_scale: float = 1.5
    #: a node is filtered (declared negative) when its positive-class
    #: probability falls below this; kept low because a stage should only
    #: drop negatives it is *confident* about (Section 3.3) — under the
    #: heavily positive-weighted stage models, p_pos < 0.2 is exactly the
    #: confident-negative region
    filter_threshold: float = 0.2
    #: weight the final stage by the surviving imbalance ratio (recall-
    #: leaning) or train it unweighted on the filtered, roughly balanced
    #: set (precision-leaning, the default)
    final_stage_weighted: bool = False


class MultiStageGCN:
    """Cascade of GCN stages with confident-negative filtering."""

    def __init__(self, config: MultiStageConfig | None = None) -> None:
        self.config = config or MultiStageConfig()
        self.stages: list[GCN] = []
        #: final-stage decision threshold; every earlier stage uses
        #: ``config.filter_threshold``.  Tune with :meth:`calibrate`.
        self.decision_threshold: float = 0.5

    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_graphs: list[GraphData],
        test_graphs: list[GraphData] | None = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> list[TrainHistory]:
        """Train the cascade; returns one history per stage.

        ``checkpoint_dir`` makes each stage's training crash-safe: stage
        ``k`` checkpoints under ``<dir>/stage<k>`` and a rerun resumes
        every stage from its latest valid snapshot (a finished stage
        fast-forwards straight to its final weights).
        """
        cfg = self.config
        self.stages = []
        histories: list[TrainHistory] = []
        active = [g.masked_indices() for g in train_graphs]

        for stage_index in range(cfg.n_stages):
            staged = [g.subset(idx) for g, idx in zip(train_graphs, active)]
            n_pos = sum(int(g.labels[idx].sum()) for g, idx in zip(train_graphs, active))
            n_neg = sum(len(idx) for idx in active) - n_pos
            if n_pos == 0 or n_neg == 0:
                break  # nothing left to separate
            is_last = stage_index == cfg.n_stages - 1
            if is_last:
                if cfg.final_stage_weighted:
                    weight = (1.0, max(1.0, n_neg / n_pos))
                else:
                    weight = None
            else:
                weight = (1.0, cfg.positive_weight_scale * n_neg / n_pos)
            stage_cfg = replace(cfg.gcn, seed=cfg.gcn.seed + stage_index)
            model = GCN(stage_cfg)
            train_cfg = replace(cfg.train, class_weights=weight)
            trainer = Trainer(model, train_cfg)
            stage_checkpoint = (
                Checkpointer(Path(checkpoint_dir) / f"stage{stage_index}")
                if checkpoint_dir is not None
                else None
            )
            histories.append(
                trainer.fit(staged, test_graphs, checkpoint=stage_checkpoint)
            )
            self.stages.append(model)

            if not is_last:
                active = [
                    idx[self._survivors(model, graph, idx)]
                    for graph, idx in zip(train_graphs, active)
                ]
        return histories

    def _survivors(
        self, model: GCN, graph: GraphData, idx: np.ndarray
    ) -> np.ndarray:
        """Boolean mask over ``idx`` of nodes the stage does *not* filter."""
        proba = self._positive_proba(model, graph)[idx]
        return proba >= self.config.filter_threshold

    @staticmethod
    def _positive_proba(model: GCN, graph: GraphData) -> np.ndarray:
        with no_grad():
            logits = model(graph).data
        return difficult_proba(logits)

    # ------------------------------------------------------------------ #
    def predict(self, graph: GraphData) -> np.ndarray:
        """Cascade prediction for every node of ``graph``.

        A node filtered at any stage is negative; survivors of the final
        stage take its decision.
        """
        if not self.stages:
            raise RuntimeError("cascade has not been fitted")
        n = graph.num_nodes
        prediction = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        for stage_index, model in enumerate(self.stages):
            proba = self._positive_proba(model, graph)[alive]
            is_last = stage_index == len(self.stages) - 1
            if is_last:
                prediction[alive] = (proba >= self.decision_threshold).astype(
                    np.int64
                )
            else:
                alive = alive[proba >= self.config.filter_threshold]
                if len(alive) == 0:
                    break
        return prediction

    def calibrate(
        self,
        graphs: list[GraphData],
        grid: np.ndarray | None = None,
    ) -> float:
        """Pick the final decision threshold maximising F1 on ``graphs``.

        The cascade is confidence-threshold-based throughout (each stage
        filters at ``filter_threshold``); this tunes the last threshold on
        *training* designs — never on the design under test.  Returns the
        chosen threshold (also stored on the instance).
        """
        from repro.metrics import f1_score

        if not self.stages:
            raise RuntimeError("cascade has not been fitted")
        if grid is None:
            grid = np.linspace(0.05, 0.9, 18)
        best_tau, best_f1 = 0.5, -1.0
        original = self.decision_threshold
        for tau in grid:
            self.decision_threshold = float(tau)
            scores = [
                f1_score(g.labels, self.predict(g))
                for g in graphs
                if g.labels is not None
            ]
            mean = float(np.mean(scores)) if scores else -1.0
            if mean > best_f1:
                best_f1, best_tau = mean, float(tau)
        self.decision_threshold = best_tau if best_f1 >= 0 else original
        return self.decision_threshold

    def predict_proba(self, graph: GraphData) -> np.ndarray:
        """Positive probability per node: 0 once filtered, else last stage's."""
        if not self.stages:
            raise RuntimeError("cascade has not been fitted")
        n = graph.num_nodes
        out = np.zeros(n, dtype=np.float64)
        alive = np.arange(n)
        for stage_index, model in enumerate(self.stages):
            proba = self._positive_proba(model, graph)[alive]
            is_last = stage_index == len(self.stages) - 1
            if is_last:
                out[alive] = proba
            else:
                keep = proba >= self.config.filter_threshold
                alive = alive[keep]
                if len(alive) == 0:
                    break
        return out

    # predict() consistency note: predict_proba returns the raw final-stage
    # probability; thresholding it at ``decision_threshold`` reproduces
    # predict() exactly.
