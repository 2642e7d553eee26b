"""Netlist-to-graph export.

Produces the two directed adjacency structures the GCN aggregates over —
predecessor (fanin) and successor (fanout) relations — in COO form, plus a
networkx view for interoperability and debugging.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.circuit.netlist import Netlist
from repro.nn.sparse import COOMatrix

__all__ = ["edge_arrays", "adjacency_pair", "to_networkx"]


def edge_arrays(netlist: Netlist) -> tuple[np.ndarray, np.ndarray]:
    """Return (drivers, sinks) index arrays for every wire in the netlist."""
    structure = netlist.structure()
    return structure.fanin_idx.copy(), structure.pin_sinks()


def adjacency_pair(netlist: Netlist) -> tuple[COOMatrix, COOMatrix]:
    """Build the (predecessor, successor) aggregation matrices.

    ``pred[v, u] = 1`` when ``u`` drives ``v`` — so ``pred @ E`` sums each
    node's fanin embeddings.  ``succ`` is its transpose and sums fanout
    embeddings.  The paper folds these plus the identity into one weighted
    adjacency (Equation 2); we keep them separate so the aggregation weights
    ``w_pr``/``w_su`` stay learnable scalars outside the matrix.
    """
    drivers, sinks = edge_arrays(netlist)
    n = netlist.num_nodes
    values = np.ones(len(drivers), dtype=np.float64)
    # COOMatrix copies what it is given into its own growable buffers.
    pred = COOMatrix((n, n), values, rows=sinks, cols=drivers)
    succ = COOMatrix((n, n), values, rows=drivers, cols=sinks)
    return pred, succ


def to_networkx(netlist: Netlist) -> nx.DiGraph:
    """Export a :class:`networkx.DiGraph` with gate-type node attributes."""
    graph = nx.DiGraph(name=netlist.name)
    for v in netlist.nodes():
        graph.add_node(
            v,
            gate_type=netlist.gate_type(v).name,
            cell_name=netlist.cell_name(v),
            is_output=netlist.is_output(v),
        )
    graph.add_edges_from(netlist.iter_edges())
    return graph
