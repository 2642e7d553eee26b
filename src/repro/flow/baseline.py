"""Baseline observation-point insertion (the commercial-tool substitute).

Implements the class of algorithm conventional testability tools use for
OP selection: probability-based analysis (COP) finds nodes whose fault
detection probability is below a threshold, and a greedy cone heuristic
(HOBS-style) repeatedly inserts an OP at the location covering the most
hard nodes in its fan-in cone, then re-runs the analysis.

This is the Table-3 baseline: locally greedy on *approximate* measures.
It shares the GCN flow's exit condition (no hard nodes left) so the two
flows are compared purely on where they put points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist
from repro.config import check_config, fraction_problems, integer_problems
from repro.flow.modify import walk_fanin_cones
from repro.testability.cop import compute_cop
from repro.obs import logs

__all__ = ["BaselineOpiConfig", "BaselineOpiResult", "run_baseline_opi"]

_log = logs.get_logger("flow")


@dataclass
class BaselineOpiConfig:
    """Baseline flow parameters."""

    #: a node is "hard" when min(sa0, sa1) COP detection probability is
    #: below this (mirrors the labelling threshold on the true measure)
    detect_threshold: float = 0.01
    #: OPs inserted per analysis round
    per_round: int = 8
    max_iterations: int = 60
    max_ops: int | None = None
    verbose: bool = False

    def __post_init__(self) -> None:
        check_config(
            "baseline OPI config",
            fraction_problems("detect_threshold", self.detect_threshold)
            + integer_problems("per_round", self.per_round, 1),
        )


@dataclass
class BaselineOpiResult:
    """Outcome of the baseline flow."""

    netlist: Netlist
    inserted: list[int] = field(default_factory=list)
    iterations: int = 0
    hard_history: list[int] = field(default_factory=list)

    @property
    def n_ops(self) -> int:
        return len(self.inserted)


def _hard_nodes(netlist: Netlist, threshold: float) -> np.ndarray:
    cop = compute_cop(netlist)
    d0, d1 = cop.detection_probability()
    hard = np.minimum(d0, d1) < threshold
    structure = netlist.structure()
    obs_cells = structure.types == GateType.OBS
    hard[obs_cells] = False
    hard[structure.fanin_idx[structure.fanin_ptr[:-1][obs_cells]]] = False  # their targets
    return hard


def run_baseline_opi(
    netlist: Netlist, config: BaselineOpiConfig | None = None
) -> BaselineOpiResult:
    """Run the COP-greedy baseline OPI flow on a copy of ``netlist``."""
    config = config or BaselineOpiConfig()
    if config.verbose:
        logs.ensure_configured()
    work = netlist.copy()
    result = BaselineOpiResult(netlist=work)

    for iteration in range(1, config.max_iterations + 1):
        hard = _hard_nodes(work, config.detect_threshold)
        n_hard = int(hard.sum())
        result.hard_history.append(n_hard)
        if config.verbose:
            _log.info(
                "baseline opi iteration",
                extra={
                    "iteration": iteration,
                    "hard_nodes": n_hard,
                    "n_ops": result.n_ops,
                },
            )
        if n_hard == 0:
            break
        result.iterations = iteration

        # Greedy: score each hard node by hard-node count in its fan-in cone
        # (observing a funnel fixes everything feeding it); take the best,
        # remove its cone from consideration, repeat within the round.
        # Ties go to the smaller cone, then the lower id.
        hard_ids = np.flatnonzero(hard)
        structure = work.structure()
        cones = walk_fanin_cones(structure.fanin_ptr, structure.fanin_idx, hard_ids)
        sizes = np.array([len(cone) for cone in cones])
        members, starts = np.concatenate(cones), sizes.cumsum() - sizes
        round_targets: list[int] = []
        for _ in range(config.per_round):
            live = np.flatnonzero(hard[hard_ids])
            if not len(live):
                break
            covers = np.add.reduceat(hard[members], starts, dtype=np.int64)[live]
            best = live[np.lexsort((hard_ids[live], sizes[live], -covers))[0]]
            round_targets.append(int(hard_ids[best]))
            hard[cones[best]] = False  # covered: no longer counts

        for target in round_targets:
            if config.max_ops is not None and result.n_ops >= config.max_ops:
                break
            work.insert_observation_point(target)
            result.inserted.append(target)
        if config.max_ops is not None and result.n_ops >= config.max_ops:
            break

    return result
