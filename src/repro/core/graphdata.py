"""Graph-plus-attributes container consumed by the GCN.

Bundles what Equation (2)/(3) of the paper need: the predecessor/successor
adjacency (two :class:`~repro.nn.sparse.COOMatrix`, each held as a CSR),
the node attribute matrix ``E_0`` and (for training) node labels.  The OPI
flow mutates instances incrementally via :mod:`repro.flow.modify` instead
of rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.graph import adjacency_pair
from repro.circuit.netlist import Netlist
from repro.core.attributes import AttributeConfig, build_attributes
from repro.nn.sparse import COOMatrix

__all__ = ["GraphData"]


@dataclass
class GraphData:
    """A netlist graph ready for GCN consumption."""

    pred: COOMatrix
    succ: COOMatrix
    attributes: np.ndarray
    labels: np.ndarray | None = None
    name: str = "graph"
    #: optional row mask restricting which nodes contribute to training loss
    train_mask: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return self.attributes.shape[0]

    @property
    def num_edges(self) -> int:
        """The pins: a pin read twice counts twice (``pred`` sums it to 2)."""
        return int(self.pred.to_scipy().data.sum())

    @classmethod
    def from_netlist(
        cls,
        netlist: Netlist,
        labels: np.ndarray | None = None,
        attribute_config: AttributeConfig | None = None,
        name: str | None = None,
    ) -> "GraphData":
        """Extract adjacency and attributes from ``netlist``."""
        pred, succ = adjacency_pair(netlist)
        attributes = build_attributes(netlist, config=attribute_config)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape[0] != attributes.shape[0]:
                raise ValueError("labels length must equal node count")
        return cls(
            pred=pred,
            succ=succ,
            attributes=attributes,
            labels=labels,
            name=name or netlist.name,
        )

    def masked_indices(self) -> np.ndarray:
        """Node indices contributing to the loss (all nodes by default)."""
        if self.train_mask is None:
            return np.arange(self.num_nodes)
        return np.flatnonzero(self.train_mask)

    def subset(self, indices: np.ndarray) -> "GraphData":
        """A shallow view restricted to ``indices`` for loss purposes.

        The graph itself is untouched (aggregation still sees the whole
        neighbourhood — the inductive property); only the training mask
        changes.  Used by balanced sampling and the multi-stage cascade.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[indices] = True
        return GraphData(
            pred=self.pred,
            succ=self.succ,
            attributes=self.attributes,
            labels=self.labels,
            name=self.name,
            train_mask=mask,
        )
