"""Difficult-to-observe labelling (the commercial-DFT-tool substitute).

The paper obtains binary node labels ("difficult-to-observe" vs
"easy-to-observe") from a commercial DFT tool.  Here the ground truth comes
from the exact random-pattern observability analysis in
:mod:`repro.atpg.observability`: a node is *positive* (difficult) when the
fraction of random patterns under which a value change at the node reaches
any observation site falls below a threshold.

This is the same quantity commercial random-resistance analyses estimate,
and crucially it is a *global* property (reconvergent masking downstream
decides it), while the node attributes fed to the models are *local* SCOAP
numbers — so the learning task keeps the paper's character: models that see
more neighbourhood context should win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atpg.observability import observability_counts
from repro.circuit.cells import GateType
from repro.circuit.netlist import Netlist

__all__ = ["LabelConfig", "LabelResult", "label_nodes"]


@dataclass
class LabelConfig:
    """Labelling parameters.

    ``threshold`` is the observation-probability cutoff: a node observed by
    fewer than ``threshold * n_patterns`` patterns is difficult-to-observe.
    The default (1 %) yields positive rates in the sub-percent range on
    generated designs, matching the paper's benchmark statistics (Table 1,
    ~0.65 % positive).
    """

    n_patterns: int = 256
    threshold: float = 0.01
    seed: int = 0
    exact_stems: bool = True
    #: execution config for the exact stem analysis (backend ``auto`` |
    #: ``serial`` | ``batched`` | ``parallel``, workers)
    execution: "ExecutionConfig | None" = None


@dataclass
class LabelResult:
    """Labels plus the underlying observation statistics."""

    labels: np.ndarray  #: 1 = difficult-to-observe (positive)
    observed_count: np.ndarray  #: patterns observing each node
    n_patterns: int

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return int((self.labels == 0).sum())

    @property
    def positive_rate(self) -> float:
        return self.n_positive / max(1, len(self.labels))


def label_nodes(netlist: Netlist, config: LabelConfig | None = None) -> LabelResult:
    """Label every node difficult(1)/easy(0)-to-observe.

    ``OBS`` cells (test infrastructure) are always labelled easy so that an
    inserted point is never itself a candidate.
    """
    config = config or LabelConfig()
    counts = observability_counts(
        netlist,
        n_patterns=config.n_patterns,
        seed=config.seed,
        exact_stems=config.exact_stems,
        execution=config.execution,
    )
    cutoff = config.threshold * config.n_patterns
    labels = (counts < cutoff).astype(np.int64)
    for v in netlist.nodes():
        if netlist.gate_type(v) is GateType.OBS:
            labels[v] = 0
    return LabelResult(labels=labels, observed_count=counts, n_patterns=config.n_patterns)
