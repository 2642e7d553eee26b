"""Extension: GCN-guided control-point insertion (CPI).

The paper notes its approach "is generic and can be applied to both CPs
insertion and OPs insertion" (Section 2.2) but evaluates only OPI.  This
module carries the method over to control points:

* ground truth: a node is *difficult-to-control* when its simulated value
  under random patterns is almost always the same (its rare value has
  probability below a threshold), so stuck-at faults needing the rare value
  are rarely activated;
* classification: the same GCN architecture on the same attributes (C0/C1
  now carry the decisive local signal);
* insertion: an OR-type CP when the node is rarely 1, an AND-type CP when
  rarely 0 (Figure 2's construction), selected by impact on the fan-out
  cone, iterated until no difficult-to-control predictions remain.

Unlike OPI, a CP splices into the net (it rewires fanouts), so graph
updates rebuild the affected design rather than appending — the netlists
here are small enough that this costs little.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atpg.simulator import LogicSimulator, tail_mask
from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.structure import gate_table
from repro.core.attributes import AttributeConfig
from repro.core.graphdata import GraphData
from repro.flow.scorer import Predictor
from repro.testability.labels import check_sampling
from repro.utils.rng import as_rng
from repro.obs import logs

__all__ = [
    "ControlLabelConfig",
    "ControlLabelResult",
    "label_control_nodes",
    "CpiConfig",
    "CpiResult",
    "run_gcn_cpi",
]

_log = logs.get_logger("flow")

#: never difficult-to-control (scan-controllable, test infrastructure,
#: ties), so never a CP target either
_NEVER_HARD = gate_table(dict.fromkeys(
    (GateType.INPUT, GateType.DFF, GateType.OBS, GateType.CONST0, GateType.CONST1), 1))


@dataclass
class ControlLabelConfig:
    """Difficult-to-control labelling parameters, checked as
    :class:`~repro.testability.labels.LabelConfig`'s are."""

    n_patterns: int = 256
    threshold: float = 0.01  #: rare-value probability cutoff
    seed: int = 0

    def __post_init__(self) -> None:
        check_sampling("control label config", self.n_patterns, self.threshold)


@dataclass
class ControlLabelResult:
    """Labels plus the underlying signal statistics."""

    labels: np.ndarray  #: 1 = difficult-to-control
    ones_count: np.ndarray  #: patterns with the node at 1
    n_patterns: int

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    def rare_value(self, node: int) -> int:
        """The value this node rarely takes (what a CP would force)."""
        return 1 if self.ones_count[node] * 2 < self.n_patterns else 0


def label_control_nodes(
    netlist: Netlist, config: ControlLabelConfig | None = None
) -> ControlLabelResult:
    """Label nodes difficult(1)/easy(0)-to-control by simulation."""
    config = config or ControlLabelConfig()
    rng = as_rng(config.seed)
    sim = LogicSimulator(netlist)
    n_words = (config.n_patterns + 63) // 64
    values = sim.simulate(sim.random_source_words(n_words, rng))
    values &= tail_mask(config.n_patterns)[None, :]
    ones = np.bitwise_count(values).sum(axis=1).astype(np.int64)
    rare = np.minimum(ones, config.n_patterns - ones)
    labels = (rare < config.threshold * config.n_patterns).astype(np.int64)
    labels[_NEVER_HARD[netlist.structure().types] == 1] = 0
    return ControlLabelResult(
        labels=labels, ones_count=ones, n_patterns=config.n_patterns
    )


@dataclass
class CpiConfig:
    """Iterative CPI flow parameters."""

    select_fraction: float = 0.3
    min_per_iteration: int = 1
    max_cps: int | None = None
    max_iterations: int = 15
    label_config: ControlLabelConfig = field(default_factory=ControlLabelConfig)
    verbose: bool = False


@dataclass
class CpiResult:
    """Outcome of the CPI flow."""

    netlist: Netlist
    inserted: list[tuple[int, int]] = field(default_factory=list)  #: (target, to)
    iterations: int = 0
    positives_history: list[int] = field(default_factory=list)

    @property
    def n_cps(self) -> int:
        return len(self.inserted)


def run_gcn_cpi(
    netlist: Netlist,
    predictor: Predictor,
    config: CpiConfig | None = None,
    attribute_config: AttributeConfig | None = None,
) -> CpiResult:
    """Iterative GCN-guided control-point insertion on a copy of ``netlist``.

    ``predictor`` flags difficult-to-control nodes (e.g. a GCN trained on
    :func:`label_control_nodes` ground truth).  The forced value for each
    CP comes from a cheap simulation of the current netlist.
    """
    config = config or CpiConfig()
    if config.verbose:
        logs.ensure_configured()
    work = netlist.copy()
    result = CpiResult(netlist=work)

    for iteration in range(1, config.max_iterations + 1):
        graph = GraphData.from_netlist(work, attribute_config=attribute_config)
        predictions = np.asarray(predictor(graph))
        stats = label_control_nodes(work, config.label_config)
        candidates = _cp_candidates(work, predictions)
        result.positives_history.append(len(candidates))
        if config.verbose:
            _log.info(
                "cpi iteration",
                extra={
                    "iteration": iteration,
                    "positives": len(candidates),
                    "n_cps": result.n_cps,
                },
            )
        if not candidates:
            break
        result.iterations = iteration

        # Impact: how many predicted-difficult nodes sit in the fan-out
        # cone (a forced value upstream re-randomises everything below).
        sim = LogicSimulator(work)
        scored = []
        for v in candidates:
            cone = sim.forward_cone(v)
            gain = 1 + int(predictions[cone].sum()) if cone else 1
            scored.append((v, gain))
        scored.sort(key=lambda item: (-item[1], item[0]))

        take = max(
            config.min_per_iteration,
            int(round(config.select_fraction * len(scored))),
        )
        for target, _ in scored[:take]:
            if config.max_cps is not None and result.n_cps >= config.max_cps:
                break
            force_to = stats.rare_value(target)
            work.insert_control_point(target, force_to)
            result.inserted.append((target, force_to))
        if config.max_cps is not None and result.n_cps >= config.max_cps:
            break
    return result


def _cp_candidates(netlist: Netlist, predictions: np.ndarray) -> list[int]:
    """Positive predictions that are legal CP targets.

    Test infrastructure never receives further test points: CP gates,
    their enables/inverters (every ``cp_*``-named cell) and OBS cells are
    excluded, as are nodes already guarded by a CP and nodes that drive
    nothing.
    """
    structure = netlist.structure()
    # 0: not test infrastructure, 1: a CP's enable or inverter, 2: a CP gate
    kind = np.array(
        [
            0 if not (name and name.startswith("cp_")) else 1 if name.endswith(("_en", "_n")) else 2
            for name in netlist._given_names()
        ],
        dtype=np.int64,
    )
    excluded = (kind > 0) | (_NEVER_HARD[structure.types] == 1)
    excluded |= np.diff(structure.fanout_ptr) == 0
    cp_gates = (kind == 2) & (np.diff(structure.fanin_ptr) > 0)
    excluded[structure.fanin_idx[structure.fanin_ptr[:-1][cp_gates]]] = True  # guarded
    candidates = np.flatnonzero(predictions == 1)
    return candidates[~excluded[candidates]].tolist()
