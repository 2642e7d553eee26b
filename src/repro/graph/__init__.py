"""Graph partitioning and partitioned (sharded) GCN execution.

The paper's scalability result (Section 3.4.1) turns whole-graph inference
into a short chain of sparse matmuls; this package is how that chain goes
multi-core: a deterministic, locality-aware contiguous partitioner with
min-crossing cut placement (:mod:`repro.graph.partition`), a boundary-
exchange plan compiler that gives each shard send/recv index lists
covering every cut edge exactly once (:mod:`repro.graph.exchange`), and a
sharded inference engine that computes each layer for owned rows only and
swaps just the cut-edge activations between layers — in process, through
fork-pool shared-memory slabs, or by value over sockets
(:mod:`repro.graph.sharded`). Results are bit-identical to the
single-shard engine at float64.
"""

from repro.graph.exchange import (
    BoundaryPlan,
    ShardExchange,
    compile_boundary_plan,
)
from repro.graph.partition import (
    GraphPartition,
    PartitionConfig,
    Shard,
    partition_graph,
)
from repro.graph.sharded import ShardedInference

__all__ = [
    "BoundaryPlan",
    "GraphPartition",
    "PartitionConfig",
    "Shard",
    "ShardExchange",
    "compile_boundary_plan",
    "partition_graph",
    "ShardedInference",
]
