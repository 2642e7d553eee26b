"""Netlist-to-graph export.

Produces the two directed adjacency structures the GCN aggregates over —
predecessor (fanin) and successor (fanout) relations — each a
:class:`~repro.nn.sparse.COOMatrix` holding the CSR built from the
netlist's fan-in or fan-out CSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import Netlist
from repro.nn.sparse import COOMatrix

__all__ = ["edge_arrays", "adjacency_pair"]


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
    structure = netlist.structure()
    n = structure.num_nodes
    values = np.ones(len(structure.fanin_idx), dtype=np.float64)

    def matrix(ptr: np.ndarray, idx: np.ndarray) -> COOMatrix:
        # The structure holds each matrix in CSR form already, rows in pin
        # order: summing duplicate pins also sorts the rows, which gives
        # what sorting the COO triples would.  ``copy`` keeps the
        # structure's arrays out of the matrix, which the OPI flow patches
        # in place.
        csr = sp.csr_matrix((values, idx, ptr), shape=(n, n), copy=True)
        csr.sum_duplicates()
        return COOMatrix((n, n), csr=csr)

    return (
        matrix(structure.fanin_ptr, structure.fanin_idx),
        matrix(structure.fanout_ptr, structure.fanout_idx),
    )
