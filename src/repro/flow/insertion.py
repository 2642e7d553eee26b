"""The iterative GCN-guided observation-point-insertion flow (Figure 7).

Loop: predict difficult-to-observe nodes with the trained (multi-stage)
classifier -> evaluate each positive's impact -> insert OPs at the
top-ranked locations -> incrementally update the graph -> re-predict.
Exit when no positive predictions remain (or safety limits trigger).

Resilience: pass a :class:`~repro.resilience.checkpoint.Checkpointer` and
the flow snapshots its inserted-target list after every iteration; an
interrupted run restarts at its last completed iteration (node ids are
append-only, so replaying the insertions on a fresh copy reproduces the
design state exactly).  ``OpiConfig.stall_patience`` arms a watchdog that
raises :class:`~repro.resilience.errors.ConvergenceError` when the
positive-prediction count stops decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Netlist
from repro.core.attributes import AttributeConfig
from repro.flow.impact import ImpactEvaluator
from repro.flow.modify import IncrementalDesign
from repro.flow.scorer import Predictor, Scorer, as_scorer
from repro.obs import logs
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.errors import CheckpointCorruptError
from repro.resilience.watchdog import ConvergenceWatchdog

__all__ = ["OpiConfig", "OpiResult", "run_gcn_opi"]

_log = logs.get_logger("flow")


def _obs():
    reg = get_registry()
    return {
        "iterations": reg.counter(
            "repro_opi_iterations_total", "completed OPI flow iterations"
        ),
        "ops": reg.counter(
            "repro_opi_ops_inserted_total", "observation points inserted"
        ),
        "impact": reg.histogram(
            "repro_opi_impact_nodes",
            "impact metric (affected-cone size) of ranked OP candidates",
            buckets=(1, 2, 5, 10, 20, 50, 100, 250, 1000),
        ),
        "positives": reg.gauge(
            "repro_opi_positive_predictions",
            "positive predictions at the latest iteration",
        ),
    }


@dataclass
class OpiConfig:
    """Flow parameters."""

    #: fraction of ranked candidates inserted per iteration
    select_fraction: float = 0.3
    #: at least this many insertions per iteration (when candidates exist)
    min_per_iteration: int = 1
    #: hard cap on total OPs (None = no cap; the paper's exit is
    #: "no positive predictions left")
    max_ops: int | None = None
    max_iterations: int = 20
    #: candidates with impact below this are skipped this iteration
    min_impact: int = 1
    #: evaluate impact (True, the paper's flow) or insert at every positive
    use_impact: bool = True
    #: raise :class:`ConvergenceError` after this many consecutive
    #: iterations without a drop in the positive count (None = no watchdog)
    stall_patience: int | None = None
    verbose: bool = False
    #: after the flow exits, re-run the exact observability labelling on
    #: the final design (ground truth, not predictions) and record the
    #: residual difficult-to-observe count on the result — affordable now
    #: that the labelling rides the batched fault-simulation engine
    validate_labels: bool = False
    #: labelling parameters for the validation pass (None = defaults)
    label_config: object | None = None


@dataclass
class OpiResult:
    """Outcome of the insertion flow."""

    netlist: Netlist
    inserted: list[int] = field(default_factory=list)  #: targets, in order
    iterations: int = 0
    positives_history: list[int] = field(default_factory=list)
    #: ground-truth difficult-to-observe nodes left after insertion
    #: (``OpiConfig.validate_labels`` only)
    residual_positives: int | None = None
    residual_positive_rate: float | None = None

    @property
    def n_ops(self) -> int:
        return len(self.inserted)


def run_gcn_opi(
    netlist: Netlist,
    predictor: Predictor | Scorer,
    config: OpiConfig | None = None,
    attribute_config: AttributeConfig | None = None,
    checkpoint: Checkpointer | None = None,
) -> OpiResult:
    """Run the iterative OPI flow on a copy of ``netlist``.

    ``predictor`` is a :class:`~repro.flow.scorer.Scorer` — an
    :class:`~repro.flow.scorer.IncrementalScorer` over trained weights
    re-scores only what each insertion changed — or a plain callable
    mapping a :class:`GraphData` to a 0/1 array over nodes (1 =
    difficult-to-observe), e.g. ``MultiStageGCN.predict``, which is
    re-run on the whole graph every time.

    ``checkpoint`` makes the flow resumable: each completed iteration is
    snapshotted, and a rerun over the same ``netlist`` restarts after the
    last completed iteration instead of from scratch.
    """
    config = config or OpiConfig()
    design = IncrementalDesign(netlist.copy(), attribute_config)
    scorer = as_scorer(predictor)
    evaluator = ImpactEvaluator(design, scorer)
    result = OpiResult(netlist=design.netlist)
    watchdog = (
        ConvergenceWatchdog(patience=config.stall_patience, name="positive predictions")
        if config.stall_patience is not None
        else None
    )

    start_iteration = 1
    if checkpoint is not None:
        snapshot = checkpoint.latest()
        if snapshot is not None:
            start_iteration = _restore_opi(snapshot, netlist, design, result) + 1
            if watchdog is not None:
                watchdog.prime([float(p) for p in result.positives_history])

    if config.verbose:
        logs.ensure_configured()
    metrics = _obs()
    #: rows changed by the insertions made since the scorer last looked
    pending: list[int] | None = None
    for iteration in range(start_iteration, config.max_iterations + 1):
        with span("opi.iteration", iteration=iteration):
            with span("opi.predict"):
                if pending is None:
                    labels = scorer.bind(design.graph)
                else:
                    labels, _ = scorer.rescore(pending)
                pending = []
                # The scorer patches its labels in place under ``rank``.
                predictions = labels.copy()
            candidates = [
                v
                for v in np.flatnonzero(predictions == 1).tolist()
                if v not in design.observed
            ]
            result.positives_history.append(len(candidates))
            metrics["positives"].set(len(candidates))
            if config.verbose:
                _log.info(
                    "opi iteration",
                    extra={
                        "iteration": iteration,
                        "positives": len(candidates),
                        "n_ops": result.n_ops,
                    },
                )
            if watchdog is not None:
                watchdog.observe(
                    len(candidates),
                    context={"iteration": iteration, "n_ops": result.n_ops},
                )
            if not candidates:
                break
            result.iterations = iteration
            metrics["iterations"].inc()

            if config.use_impact:
                with span("opi.rank_impact", candidates=len(candidates)):
                    ranked = evaluator.rank(candidates, predictions)
                for _, imp in ranked:
                    metrics["impact"].observe(imp)
                ranked = [
                    (c, imp) for c, imp in ranked if imp >= config.min_impact
                ]
                if not ranked:
                    # No candidate helps its cone; observe the hardest directly.
                    ranked = [(c, 0) for c in candidates]
            else:
                ranked = [(c, 0) for c in candidates]

            take = max(
                config.min_per_iteration,
                int(round(config.select_fraction * len(ranked))),
            )
            selected = [c for c, _ in ranked[:take]]
            with span("opi.insert", selected=len(selected)):
                for target in selected:
                    if (
                        config.max_ops is not None
                        and result.n_ops >= config.max_ops
                    ):
                        break
                    _, inserted = design.insert_op(target)
                    pending.extend(inserted.changed_rows)
                    result.inserted.append(target)
                    metrics["ops"].inc()
            if checkpoint is not None:
                _save_opi(checkpoint, iteration, netlist, result)
            if config.max_ops is not None and result.n_ops >= config.max_ops:
                break

    if config.validate_labels:
        from repro.testability.labels import LabelConfig, label_nodes

        with span("opi.validate_labels", nodes=design.netlist.num_nodes):
            label_config = config.label_config or LabelConfig()
            labelled = label_nodes(design.netlist, label_config)
        result.residual_positives = labelled.n_positive
        result.residual_positive_rate = labelled.positive_rate
        get_registry().gauge(
            "repro_opi_residual_positives",
            "ground-truth difficult-to-observe nodes after the OPI flow",
        ).set(labelled.n_positive)
        if config.verbose:
            _log.info(
                "opi validation",
                extra={
                    "residual_positives": labelled.n_positive,
                    "positive_rate": labelled.positive_rate,
                },
            )

    return result


def _save_opi(
    checkpoint: Checkpointer, iteration: int, netlist: Netlist, result: OpiResult
) -> None:
    checkpoint.save(
        iteration,
        {
            "inserted": np.asarray(result.inserted, dtype=np.int64),
            "positives_history": np.asarray(
                result.positives_history, dtype=np.int64
            ),
        },
        meta={
            "iteration": iteration,
            "netlist": netlist.name,
            "n_nodes": netlist.num_nodes,
        },
    )


def _restore_opi(
    snapshot, netlist: Netlist, design: IncrementalDesign, result: OpiResult
) -> int:
    """Replay a checkpointed flow state onto ``design``; return its iteration."""
    if snapshot.meta.get("n_nodes") != netlist.num_nodes:
        raise CheckpointCorruptError(
            f"OPI checkpoint was taken on a netlist with "
            f"{snapshot.meta.get('n_nodes')} nodes; this one has "
            f"{netlist.num_nodes}",
            path=snapshot.path,
        )
    inserted = [int(v) for v in snapshot.arrays.get("inserted", [])]
    if any(v < 0 or v >= netlist.num_nodes + len(inserted) for v in inserted):
        raise CheckpointCorruptError(
            "OPI checkpoint names an out-of-range insertion target",
            path=snapshot.path,
        )
    for target in inserted:
        design.insert_op(target)
        result.inserted.append(target)
    result.positives_history[:] = [
        int(p) for p in snapshot.arrays.get("positives_history", [])
    ]
    iteration = int(snapshot.meta.get("iteration", snapshot.step))
    result.iterations = iteration
    return iteration
