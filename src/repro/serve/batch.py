"""Cross-request batching: many small netlists, one sparse-matmul pass.

The coalescing layer behind the serving queue (ROADMAP item 2).  Small
graphs are merged into one *block-diagonal* batched graph — adjacency
blocks on the diagonal, attribute rows stacked — so the whole batch runs
through the same sparse-matmul chain as a solo request.  Because no edge
crosses a block boundary, aggregation never mixes rows from different
requests and each request's output rows are exactly the rows of its
block: results are separable by row slice and **bit-identical** to solo
scoring at float64 (CSR row structure and the row-stable dense kernels
both depend only on the rows themselves, never on the batch height; the
equivalence suite in ``tests/serve/test_batch.py`` asserts this
property-style over mixed-size netlist sets).

Two pieces:

* :func:`merge_graphs` / :class:`MergedBatch` — the block-diagonal
  construction and the per-request row slices that undo it;
* :class:`BatchPolicy` — the budgets of one pass: at most
  ``batch_max_requests`` requests and ``batch_max_nodes`` total nodes.
  There is no time in it.  The flush rule is work-conserving: a worker
  takes what is queued *now* and the budgets admit, and scores at once —
  a batch is one ``/v1/score:batch`` body (enqueued atomically by
  :meth:`~repro.serve.service.ScoringService.submit_many`) or whatever
  queued while the workers were busy, never the product of a wait.

Routing (who may enter the batch lane) is decided at submit time in
:class:`~repro.serve.service.ScoringService`: requests over
``ServeConfig.batch_solo_nodes`` — or carrying ``"batchable": false`` —
are scored solo, where :class:`~repro.config.ExecutionConfig` routing
sends graphs past the sharded-auto threshold to
:class:`~repro.graph.sharded.ShardedInference` instead.
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

    # Block-diagonal stacking reuses each member's cached CSR arrays, so
    # a coalesced pass pays concatenation — not a COO->CSR conversion —
    # for its adjacency (the conversion cost would otherwise scale with
    # every batch even when the members are already materialised).
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
    it, ``full()`` says nothing more can.  The service owns the queue;
    this class owns only the arithmetic.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.nodes = 0
        self.count = 0

    def admits(self, job) -> bool:
        """Whether ``job`` fits the request/node budgets of this batch."""
        if self.count >= self.config.batch_max_requests:
            return False
        return self.nodes + job.request.graph.num_nodes <= self.config.batch_max_nodes

    def add(self, job) -> None:
        """Commit ``job`` (the first one unconditionally: it is the batch)."""
        self.nodes += job.request.graph.num_nodes
        self.count += 1

    def full(self) -> bool:
        return (
            self.count >= self.config.batch_max_requests
            or self.nodes >= self.config.batch_max_nodes
        )
