"""Graph partitioning and partitioned (sharded) GCN execution.

The paper's scalability result (Section 3.4.1) turns whole-graph inference
into a short chain of sparse matmuls; this package runs that chain
partitioned: a deterministic, locality-aware contiguous partitioner with
min-crossing cut placement (:mod:`repro.graph.partition`), a boundary-
exchange plan compiler that gives each shard its owned rows, its frontier
of foreign neighbours and its local adjacency
(:mod:`repro.graph.exchange`), and a sharded inference engine that
computes each layer for owned rows only, reading the frontier's rows
from two ping-ponged shared-memory slabs — round tasks that forked
workers or the in-process executor run (:mod:`repro.graph.sharded`).
Results are bit-identical to the single-shard engine at float64.  Only
code that builds a :class:`ShardedInference` gets a sharded pass; every
other inference call runs the whole-graph pass.
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
