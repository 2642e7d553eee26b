"""A batch member's own graph, cut from the graph its admission lane shares.

An admitted request is its ``rows`` of ``request.graph``.  Cutting them
out — attribute rows and CSR rows, every index shifted back by the
member's offset — gives what the member's solo admission builds, which
the tests compare it with.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.core.graphdata import GraphData
from repro.nn.sparse import COOMatrix


def own_matrix(matrix: COOMatrix, rows: slice) -> COOMatrix:
    """``matrix`` restricted to the block ``rows`` x ``rows``; fails if an
    entry of those rows lies outside the block."""
    lo, hi = rows.start, rows.stop
    n = hi - lo
    csr = matrix.to_scipy()
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    indices = csr.indices[start:stop] - lo
    assert ((indices >= 0) & (indices < n)).all(), "an entry crosses members"
    block = sp.csr_matrix(
        (csr.data[start:stop], indices, csr.indptr[lo : hi + 1] - start), shape=(n, n)
    )
    return COOMatrix((n, n), csr=block)


def own_graph(request) -> GraphData:
    """The member's rows of its lane graph, as a graph of its own."""
    graph = request.graph
    return GraphData(
        own_matrix(graph.pred, request.rows),
        own_matrix(graph.succ, request.rows),
        graph.attributes[request.rows],
        name=request.design,
    )
