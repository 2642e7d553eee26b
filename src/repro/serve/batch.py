"""Cross-request batching: many small netlists, one sparse-matmul pass.

The coalescing layer behind the serving queue.  A pass scores one graph:
the members of one admission lane already share one (each is its
``rows``), and the distinct graphs of a pass are merged into one
*block-diagonal* graph — adjacency blocks on the diagonal, attribute
rows stacked.  No edge crosses a block, so each request's labels are
its rows, **bit-identical** to solo scoring at float64 (CSR rows and the
row-stable dense kernels depend only on the rows themselves;
``tests/serve/test_batch.py`` asserts it over mixed-size sets).

* :func:`merge_graphs` / :class:`MergedBatch` — the block-diagonal
  construction and the row slices that undo it;
* :class:`BatchPolicy` — the budgets of one pass: at most
  ``batch_max_requests`` requests and ``batch_max_nodes`` nodes, a
  shared graph's counted once.  There is no time in it: a worker takes
  what is queued *now* and the budgets admit, and scores at once.

A graph over ``batch_max_nodes`` opens a pass alone, and so does a
``"batchable": false`` request (admitted as a graph of its own).  Every
pass is one whole-graph :class:`~repro.core.inference.FastInference`
pass, as :func:`repro.api.score` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graphdata import GraphData
from repro.nn.sparse import COOMatrix
from repro.serve.config import ServeConfig

__all__ = ["MergedBatch", "merge_graphs", "BatchPolicy"]


@dataclass
class MergedBatch:
    """One block-diagonal batched graph plus the slices that undo it."""

    graph: GraphData
    #: per-request row ranges into the batched node axis, in input order
    slices: list[slice]

    @property
    def size(self) -> int:
        return len(self.slices)

    def split(self, batched: np.ndarray) -> list[np.ndarray]:
        """Slice a per-node result array back into per-request arrays."""
        return [batched[s] for s in self.slices]


def merge_graphs(graphs: list[GraphData], name: str = "batch") -> MergedBatch:
    """Merge ``graphs`` into one block-diagonal :class:`GraphData`.

    The k-th input occupies rows ``slices[k]`` of the output; its
    adjacency entries are offset onto the diagonal block, so relative
    row/column order inside every block — and therefore the CSR
    accumulation order of every sparse matvec row — is unchanged from
    the solo graph.
    """
    if not graphs:
        raise ValueError("merge_graphs needs at least one graph")
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    for i, graph in enumerate(graphs):
        offsets[i + 1] = offsets[i] + graph.num_nodes

    # Block-diagonal stacking concatenates the members' CSR arrays, so a
    # coalesced pass sorts nothing for its adjacency.
    attributes = np.concatenate([g.attributes for g in graphs], axis=0)
    merged = GraphData(
        pred=COOMatrix.block_diag([g.pred for g in graphs]),
        succ=COOMatrix.block_diag([g.succ for g in graphs]),
        attributes=attributes,
        name=f"{name}[{len(graphs)}]",
    )
    slices = [
        slice(int(offsets[i]), int(offsets[i + 1])) for i in range(len(graphs))
    ]
    return MergedBatch(graph=merged, slices=slices)


class BatchPolicy:
    """Request/node budgets of one forming batch.

    ``admits(job)`` asks whether another job fits, ``add(job)`` commits
    it.  Jobs that share a graph (members of one admission lane) cost
    its nodes once.  The service owns the queue; this class owns only
    the arithmetic.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.nodes = 0
        self.count = 0
        self._graphs: list = []

    def holds(self, job) -> bool:
        """Whether the batch already scores ``job``'s graph."""
        return any(graph is job.request.graph for graph in self._graphs)

    def admits(self, job) -> bool:
        """Whether ``job`` fits the request/node budgets of this batch."""
        if self.count >= self.config.batch_max_requests:
            return False
        return self.holds(job) or (
            self.nodes + job.request.graph.num_nodes <= self.config.batch_max_nodes
        )

    def add(self, job) -> None:
        """Commit ``job`` (the first one unconditionally: it is the batch)."""
        if not self.holds(job):
            self._graphs.append(job.request.graph)
            self.nodes += job.request.graph.num_nodes
        self.count += 1
