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
from repro.config import check_config, fraction_problems, integer_problems

__all__ = ["LabelConfig", "LabelResult", "label_nodes"]


@dataclass
class LabelConfig:
    """Labelling parameters.

    ``threshold`` is the observation-probability cutoff: a node observed by
    fewer than ``threshold * n_patterns`` patterns is difficult-to-observe.
    The default (1 %) labels 4.7–6.1 % of the nodes positive on generated
    designs of 2.7k–21.4k nodes, well above the paper's ~0.65 % (Table 1);
    the rate does not fall with design size.  An ``n_patterns`` below 1
    or a ``threshold`` outside [0, 1] (NaN included) is a
    :class:`~repro.resilience.errors.ConfigError`.
    """

    n_patterns: int = 256
    threshold: float = 0.01
    seed: int = 0
    #: worker count and fabric backend for the exact stem analysis
    #: (labels are bit-identical whatever it says)
    execution: "ExecutionConfig | None" = None

    def __post_init__(self) -> None:
        check_sampling("label config", self.n_patterns, self.threshold)


def check_sampling(what: str, n, t) -> None:
    """:class:`ConfigError` naming each problem unless the pattern count
    ``n`` is an integer >= 1 and the threshold ``t`` a finite number in [0, 1]."""
    check_config(what, integer_problems("n_patterns", n, 1) + fraction_problems("threshold", t))


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
        execution=config.execution,
    )
    cutoff = config.threshold * config.n_patterns
    labels = (counts < cutoff).astype(np.int64)
    labels[netlist.structure().types == GateType.OBS] = 0
    return LabelResult(labels=labels, observed_count=counts, n_patterns=config.n_patterns)
