"""Stable public API for the testability-GCN reproduction.

This module is the supported entry point for scripts, notebooks and the
``examples/`` directory: everything here follows the deprecation policy in
``docs/architecture.md`` (one minor release of :class:`DeprecationWarning`
before any rename), while submodule internals may move without notice.

Two layers:

* **Verbs** — :func:`load_netlist`, :func:`score`, :func:`train`,
  :func:`insert_observation_points`, :func:`simulate_faults` cover the
  paper's end-to-end flow with typed results and a single
  :class:`~repro.config.ExecutionConfig` knob for backend / workers /
  dtype selection.
* **Stable re-exports** — the underlying classes (``GCN``, ``Trainer``,
  ``FaultSimulator``, the OPI/CPI flows, partition/sharding, metrics…)
  for code that needs more control than the verbs expose.

Quick start::

    from repro import api

    netlist = api.generate_design(2000, seed=0)
    labelled = api.label_nodes(netlist)
    graph = api.build_graph(netlist, labels=labelled.labels)
    trained = api.train([graph])
    result = api.score(trained.model, netlist)
    print(result.labels.sum(), "difficult-to-observe nodes")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# --------------------------------------------------------------------- #
# Stable re-exports.  Import from here, not from the submodules: these
# names are covered by the public deprecation policy.
# --------------------------------------------------------------------- #
from repro.atpg import (
    AtpgConfig,
    AtpgResult,
    DiagnosisCandidate,
    FailLog,
    Fault,
    FaultSimResult,
    FaultSimulator,
    collapse_faults,
    diagnose,
    full_fault_list,
    run_atpg,
    simulate_fail_log,
)
from repro.circuit import (
    GateType,
    Netlist,
    generate_design,
    load_bench,
    parse_bench,
    write_bench,
)
from repro.config import ExecutionConfig
from repro.core import (
    GCN,
    FastInference,
    GCNConfig,
    GCNWeights,
    GraphData,
    MultiStageConfig,
    MultiStageGCN,
    NodeAttribution,
    RecursiveEmbedder,
    TrainConfig,
    Trainer,
    TrainHistory,
    explain_node,
    load_cascade,
    load_gcn,
    save_cascade,
    save_gcn,
)
from repro.core.inference import softmax
from repro.data.splits import balanced_indices
from repro.experiments.common import default_gcn_config
from repro.flow import (
    BaselineOpiConfig,
    BaselineOpiResult,
    ControlLabelConfig,
    ControlLabelResult,
    CpiConfig,
    CpiResult,
    IncrementalDesign,
    IncrementalScorer,
    OpiConfig,
    OpiResult,
    label_control_nodes,
    run_baseline_opi,
    run_gcn_cpi,
    run_gcn_opi,
)
from repro.graph import (
    GraphPartition,
    PartitionConfig,
    Shard,
    ShardedInference,
    partition_graph,
    shard_minibatches,
)
from repro.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    f1_score,
    precision,
    recall,
)
from repro.resilience.errors import ConfigError
from repro.testability import (
    CopResult,
    LabelConfig,
    LabelResult,
    ScoapResult,
    compute_cop,
    compute_scoap,
    label_nodes,
)

__all__ = [
    # verbs
    "load_netlist",
    "save_netlist",
    "build_graph",
    "score",
    "train",
    "insert_observation_points",
    "simulate_faults",
    # typed verb results
    "ScoreResult",
    "TrainResult",
    "FaultSimSummary",
    # serving (the only supported way to run / call a scoring daemon)
    "ServeClient",
    "ServeClientError",
    "ServeScore",
    "ServeConfig",
    "NetlistScoreServer",
    # execution
    "ExecutionConfig",
    "ConfigError",
    # circuit
    "GateType",
    "Netlist",
    "generate_design",
    "load_bench",
    "parse_bench",
    "write_bench",
    # testability
    "CopResult",
    "LabelConfig",
    "LabelResult",
    "ScoapResult",
    "compute_cop",
    "compute_scoap",
    "label_nodes",
    # core model / training / inference
    "GCN",
    "GCNConfig",
    "GCNWeights",
    "GraphData",
    "MultiStageConfig",
    "MultiStageGCN",
    "FastInference",
    "RecursiveEmbedder",
    "Trainer",
    "TrainConfig",
    "TrainHistory",
    "NodeAttribution",
    "explain_node",
    "default_gcn_config",
    "load_gcn",
    "save_gcn",
    "load_cascade",
    "save_cascade",
    # partitioned inference
    "GraphPartition",
    "PartitionConfig",
    "Shard",
    "ShardedInference",
    "partition_graph",
    "shard_minibatches",
    # ATPG / diagnosis
    "AtpgConfig",
    "AtpgResult",
    "Fault",
    "FaultSimResult",
    "FaultSimulator",
    "collapse_faults",
    "full_fault_list",
    "run_atpg",
    "DiagnosisCandidate",
    "FailLog",
    "diagnose",
    "simulate_fail_log",
    # flows
    "OpiConfig",
    "OpiResult",
    "run_gcn_opi",
    "BaselineOpiConfig",
    "BaselineOpiResult",
    "run_baseline_opi",
    "ControlLabelConfig",
    "ControlLabelResult",
    "CpiConfig",
    "CpiResult",
    "label_control_nodes",
    "run_gcn_cpi",
    "IncrementalDesign",
    "IncrementalScorer",
    # data / metrics
    "balanced_indices",
    "ConfusionMatrix",
    "accuracy",
    "confusion",
    "f1_score",
    "precision",
    "recall",
]


# --------------------------------------------------------------------- #
# Typed verb results
# --------------------------------------------------------------------- #
@dataclass
class ScoreResult:
    """Node-level testability predictions for one design."""

    labels: np.ndarray  #: 0/1 per node, 1 = difficult-to-observe
    proba: np.ndarray | None  #: P(difficult) per node, when available
    logits: np.ndarray | None  #: raw (n_nodes, 2) scores, GCN models only
    backend: str  #: inference backend that served the call
    model_kind: str  #: ``gcn`` | ``cascade``

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())


@dataclass
class TrainResult:
    """A trained model plus its training trajectory."""

    model: GCN
    history: TrainHistory
    execution: ExecutionConfig

    def inference(self) -> FastInference:
        """Sparse-matrix scoring engine for the trained weights."""
        return FastInference(self.model.layer_weights(), execution=self.execution)

    def save(self, path: str | Path) -> Path:
        return save_gcn(self.model, path)


@dataclass
class FaultSimSummary:
    """Outcome of grading a fault list against random patterns."""

    coverage: float  #: detected / total
    n_faults: int
    detected: int
    n_patterns: int
    undetected: list[Fault] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Verbs
# --------------------------------------------------------------------- #
def load_netlist(source: str | Path, name: str | None = None) -> Netlist:
    """Load a gate-level netlist.

    ``source`` is either a path to a ``.bench`` file or the ``.bench``
    text itself (anything containing a newline is treated as text).
    """
    if isinstance(source, Path) or "\n" not in str(source):
        return load_bench(source)
    return parse_bench(str(source), name=name or "netlist")


def save_netlist(netlist: Netlist, path: str | Path) -> Path:
    """Write ``netlist`` to ``path`` in ``.bench`` syntax."""
    path = Path(path)
    with path.open("w") as stream:
        write_bench(netlist, stream)
    return path


def build_graph(
    netlist: Netlist,
    labels: np.ndarray | None = None,
    name: str | None = None,
) -> GraphData:
    """Extract the GCN's graph view (adjacency + SCOAP attributes)."""
    return GraphData.from_netlist(netlist, labels=labels, name=name)


def _resolve_model(model):
    """Normalise ``score``'s model argument to ``(predictor, kind)``."""
    if isinstance(model, (str, Path)):
        from repro.core.serialize import _open_npz

        stored, path = _open_npz(Path(model), required=("__format__", "__config__"))
        if "__n_stages__" in stored.files:
            return load_cascade(path, strict=True), "cascade"
        return load_gcn(path), "gcn"
    if isinstance(model, MultiStageGCN):
        return model, "cascade"
    if isinstance(model, (GCN, GCNWeights, FastInference)):
        return model, "gcn"
    raise TypeError(
        "model must be a checkpoint path, GCN, MultiStageGCN, GCNWeights "
        f"or FastInference, not {type(model).__name__}"
    )


def _as_engine(predictor, execution: ExecutionConfig | None) -> FastInference:
    """The inference engine for a resolved single-GCN ``predictor``."""
    if isinstance(predictor, FastInference):
        return predictor
    if isinstance(predictor, GCN):
        predictor = predictor.layer_weights()
    return FastInference(
        predictor, execution=execution or ExecutionConfig.from_env()
    )


def score(
    model,
    target: Netlist | GraphData,
    execution: ExecutionConfig | None = None,
) -> ScoreResult:
    """Score every node of ``target`` as difficult/easy-to-observe.

    ``model`` may be a checkpoint path (single GCN or cascade), a trained
    :class:`GCN` / :class:`MultiStageGCN`, bare :class:`GCNWeights`, or a
    prebuilt inference engine.  ``execution`` picks dtype, worker count
    and the single/sharded inference backend (``auto`` routes large
    graphs to :class:`ShardedInference`); a prebuilt engine keeps its own.
    """
    graph = target if isinstance(target, GraphData) else build_graph(target)
    predictor, kind = _resolve_model(model)
    if kind == "cascade":
        labels = predictor.predict(graph)
        proba = predictor.predict_proba(graph)
        return ScoreResult(
            labels=labels,
            proba=proba,
            logits=None,
            backend="cascade",
            model_kind=kind,
        )
    engine = _as_engine(predictor, execution).route(graph)
    logits = engine.logits(graph)
    return ScoreResult(
        labels=np.argmax(logits, axis=1).astype(np.int64),
        proba=softmax(logits)[:, 1],
        logits=logits,
        backend=engine.backend,
        model_kind=kind,
    )


def train(
    graphs: list[GraphData],
    test_graphs: list[GraphData] | None = None,
    config: TrainConfig | None = None,
    gcn: GCN | GCNConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> TrainResult:
    """Train a GCN on labelled graphs.

    ``gcn`` may be a prebuilt :class:`GCN` or a :class:`GCNConfig`
    (default: the paper's architecture).  With an ``execution`` whose
    backend resolves to ``sharded``, oversized graphs are split into
    halo-padded shard mini-batches (see :func:`shard_minibatches`).
    """
    execution = execution or ExecutionConfig.from_env()
    model = gcn if isinstance(gcn, GCN) else GCN(gcn)
    trainer = Trainer(model, config, execution=execution)
    history = trainer.fit(graphs, test_graphs)
    return TrainResult(model=model, history=history, execution=execution)


def insert_observation_points(
    netlist: Netlist,
    model,
    config: OpiConfig | None = None,
    execution: ExecutionConfig | None = None,
) -> OpiResult:
    """Run the paper's iterative GCN-guided OP-insertion flow.

    ``model`` accepts everything :func:`score` does, plus a bare
    ``GraphData -> labels`` callable.  A single GCN in float64 scores only
    the D-hop closure of what an insertion changes, and ranks an
    iteration's candidates without inserting any of them: of their
    closures, what the labels inside each candidate's fan-in cone read
    goes through the kernel stacked, a chunk at a time (bit-identical to
    whole-graph passes).  A cascade, a float32 engine and a callable are
    re-run on the whole graph, per candidate.  Returns the flow's
    :class:`OpiResult` (modified netlist, per-iteration trace).
    """
    if callable(model) and not isinstance(
        model, (GCN, MultiStageGCN, GCNWeights, FastInference)
    ):
        predictor = model
    else:
        predictor, kind = _resolve_model(model)
        if kind == "cascade":
            predictor = predictor.predict
        else:
            engine = _as_engine(predictor, execution)
            predictor = (
                IncrementalScorer(engine.weights)
                if engine.dtype == np.float64
                else engine.predict
            )
    return run_gcn_opi(netlist, predictor, config)


def simulate_faults(
    netlist: Netlist,
    faults: list[Fault] | None = None,
    n_patterns: int = 1024,
    seed: int | None = 0,
    execution: ExecutionConfig | None = None,
) -> FaultSimSummary:
    """Grade a fault list against random patterns (PPSFP with dropping).

    ``faults`` defaults to the collapsed stuck-at list.  ``execution``
    selects the grading backend (``auto`` | ``serial`` | ``batched`` |
    ``parallel``) and worker count; coverage is bit-identical across
    backends.
    """
    from repro.utils.rng import as_rng

    if faults is None:
        faults = collapse_faults(netlist)
    rng = as_rng(seed)
    with FaultSimulator(netlist, execution) as fsim:
        n_words = (n_patterns + 63) // 64
        batch = fsim.simulator.random_source_words(n_words, rng)
        coverage, undetected = fsim.fault_coverage(faults, [batch])
    return FaultSimSummary(
        coverage=coverage,
        n_faults=len(faults),
        detected=len(faults) - len(undetected),
        n_patterns=n_patterns,
        undetected=undetected,
    )


# Imported last: repro.serve.client reuses ScoreResult (defined above) via
# a deferred import, so this edge must come after the class exists.
from repro.serve import NetlistScoreServer, ServeConfig  # noqa: E402
from repro.serve.client import ServeClient, ServeClientError, ServeScore  # noqa: E402
