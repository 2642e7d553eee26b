"""Partitioned (sharded) GCN inference with per-layer boundary exchange.

:class:`ShardedInference` runs the same sparse-matmul chain as
:class:`~repro.core.inference.FastInference`, but partitioned: each shard
of a locality-aware edge cut (:mod:`repro.graph.partition`) computes
layer embeddings for its *owned* rows only, reading the cut frontier's
rows from its peers between layers.  The exchange schedule — who ships
which activation rows to whom each round — is compiled once per
partition into a :class:`~repro.graph.exchange.BoundaryPlan`; with a
thin cut, per-shard work is ``owned + frontier`` rows instead of the
near-whole-graph halo the precomputed-halo model re-ran per shard.

Every path is bit-identical at float64 to the single-shard engine: the
local adjacency rows are the global CSR rows (duplicate summation done
once, globally; per-row column order preserved by the sorted local
universe), dense steps are row-independent, and exchanged rows are exact
copies of the owner's computed rows.

Three transports, one kernel (:func:`~repro.graph.exchange.
run_shard_round`), two drivers:

* **inprocess** and **socket** share the by-value driver — per-shard
  local buffers, frontier rows landed by the compiled ``send``/``recv``
  index copies.  In process a round's shard computations are a loop; on
  the socket transport they are one task each over the coordinator's CRC
  framing, carrying the shard's local input rows and returning its owned
  output rows, so remote workers never need the submitting host's
  ``/dev/shm`` and requeued/stale-generation tasks are safe to re-run;
* **forkpool** — two parent-owned shared-memory activation slabs
  ping-ponged between layers; each round's tasks read the previous
  layer's slab and write disjoint owned rows into the next, so retries
  are idempotent and the slab swap is the exchange.

Failed rounds follow the fabric's supervision ladder — a failed or silent
worker is killed and respawned and its task retried, then per-task
in-process rescue (bit-identical, same kernel).
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.inference import FastInference
from repro.core.model import GCNWeights
from repro.exec import (
    ExecPolicy,
    Executor,
    ShardTask,
    SharedSegment,
    attached_ndarray,
    make_executor,
)
from repro.graph.exchange import (
    BoundaryPlan,
    compile_boundary_plan,
    exchange_obs,
    run_shard_round,
)
from repro.graph.partition import (
    GraphPartition,
    PartitionConfig,
    partition_graph,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.retry import RetryPolicy

__all__ = ["ShardedInference"]


def _obs():
    reg = get_registry()
    return (
        reg.counter(
            "repro_sharded_inference_calls_total",
            "sharded whole-graph inference calls",
        ),
        reg.gauge(
            "repro_sharded_inference_shards",
            "shard count of the most recent sharded inference call",
        ),
        reg.gauge(
            "repro_sharded_inference_imbalance",
            "partition weight imbalance (max/mean) of the most recent call",
        ),
        reg.histogram(
            "repro_sharded_inference_seconds",
            "wall time of one sharded logits pass",
        ),
        reg.counter(
            "repro_sharded_worker_failures_total",
            "sharded-inference worker failures (retried or rescued)",
        ),
    )


# --------------------------------------------------------------------- #
# Worker-process side
# --------------------------------------------------------------------- #
_WORKER_STATE: tuple | None = None


def _exchange_worker_init(payload: bytes) -> None:
    """Build per-process state once (fork/socket initializer): the
    dtype-cast weights and every shard's compiled exchange structures, so
    any worker can run any shard's round (retries may land anywhere)."""
    global _WORKER_STATE
    weights, dtype_name, shards = pickle.loads(payload)
    _WORKER_STATE = (weights, np.dtype(dtype_name), shards)


def _worker_state() -> tuple:
    if _WORKER_STATE is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("sharded-inference worker used before init")
    return _WORKER_STATE


def _exchange_worker_round(
    shard_index: int,
    layer: int,
    with_head: bool,
    in_name: str,
    out_name: str,
    slab_shape: tuple[int, int],
    dtype_name: str,
    w_in: int,
    w_out: int,
) -> tuple[int, int]:
    """One forkpool exchange round: read the shard's universe rows from
    the input slab, compute the layer, write owned rows to the output
    slab.  Owned sets are disjoint, so concurrent (and retried) writes
    never conflict; the returned shape is a CRC-verified completion
    marker."""
    weights, _, shards = _worker_state()
    sh = shards[shard_index]
    with attached_ndarray(in_name, slab_shape, dtype_name) as prev, \
            attached_ndarray(out_name, slab_shape, dtype_name) as nxt:
        local_prev = np.ascontiguousarray(prev[sh.universe, :w_in])
        result = run_shard_round(weights, sh, local_prev, layer, with_head)
        nxt[sh.owned, :w_out] = result
    return result.shape


def _exchange_round_by_value(
    shard_index: int,
    layer: int,
    with_head: bool,
    local_prev: np.ndarray,
) -> np.ndarray:
    """One socket exchange round: the activation frame travels in the
    task args, the owned rows travel back in the result — stateless per
    round, so network requeues and duplicate deliveries are harmless."""
    weights, _, shards = _worker_state()
    return run_shard_round(
        weights, shards[shard_index], local_prev, layer, with_head
    )


# --------------------------------------------------------------------- #
class _Plan:
    """Partition + boundary-exchange cache for one (graph, shards) pair."""

    def __init__(self, graph: GraphData, n_shards: int, dtype: np.dtype):
        self.graph = graph
        self.n_shards = n_shards
        self.partition: GraphPartition = partition_graph(
            graph, PartitionConfig(n_shards=n_shards)
        )
        self.exchange: BoundaryPlan = compile_boundary_plan(
            graph.pred.to_scipy(),
            graph.succ.to_scipy(),
            self.partition.owner,
            self.partition.n_shards,
        )
        if dtype != np.float64:
            for sh in self.exchange.shards:
                sh.pred_rows = sh.pred_rows.astype(dtype)
                sh.succ_rows = sh.succ_rows.astype(dtype)


class ShardedInference(FastInference):
    """Partitioned multi-core inference engine for a trained GCN.

    A :class:`~repro.core.inference.FastInference` whose pass runs
    partitioned: ``logits`` / ``predict`` / ``predict_proba`` / ``embed``
    / ``from_file`` and the non-finite guard are inherited; this class
    holds what is about partitions and transports.  The partition and
    exchange plan are cached per graph, so repeated scoring of one design
    (the serve path) pays the partitioning cost once.  There is one
    exchange round per aggregation layer (``weights.depth``).
    """

    backend = "sharded"

    def __init__(
        self, weights: GCNWeights, execution: ExecutionConfig | None = None
    ) -> None:
        super().__init__(weights, execution)
        self.retry: RetryPolicy = RetryPolicy(max_attempts=3, base_delay=0.05)
        #: per-shard result timeout in seconds (None = wait forever)
        self.worker_timeout: float | None = 120.0
        #: grade failed shards in-process (bit-identical) after retries
        self.serial_fallback: bool = True
        #: injectable for fault-injection tests (must stay picklable)
        self.worker_fn = _exchange_worker_round
        #: socket-transport counterpart (activation frames by value)
        self.socket_worker_fn = _exchange_round_by_value
        self._plan: _Plan | None = None
        self._executor: Executor | None = None
        self._pool_plan: _Plan | None = None

    def route(self, graph: GraphData) -> "ShardedInference":
        return self

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._pool_plan = None

    def __enter__(self) -> "ShardedInference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def plan_for(self, graph: GraphData) -> _Plan:
        """The cached partition/exchange plan for ``graph``."""
        n_shards = self.execution.resolved_shards(max(1, graph.num_nodes))
        plan = self._plan
        if (
            plan is None
            or plan.graph is not graph
            or plan.n_shards != n_shards
        ):
            plan = _Plan(graph, n_shards, self.dtype)
            self._plan = plan
        return plan

    def _observe(self, graph: GraphData, elapsed: float) -> None:
        calls, shards_g, imbalance_g, seconds, _ = _obs()
        calls.inc()
        if self._plan is not None:
            shards_g.set(self._plan.partition.n_shards)
            imbalance_g.set(self._plan.partition.imbalance)
        seconds.observe(elapsed)

    # ------------------------------------------------------------------ #
    def _layer_widths(self, graph: GraphData) -> list[int]:
        """Activation width entering each round (index 0: attributes)."""
        return [graph.attributes.shape[1]] + [
            w.shape[1] for w in self.weights.encoder_weights
        ]

    def _cast_attributes(self, graph: GraphData) -> np.ndarray:
        attrs = graph.attributes
        if attrs.dtype != self.dtype:
            attrs = attrs.astype(self.dtype)
        return attrs

    def _record_exchange(self, plan: _Plan, widths: list[int]) -> None:
        rounds_c, rows_c, bytes_c, fraction_g = exchange_obs()
        depth = self.weights.depth
        rounds_c.inc(depth)
        rows = plan.exchange.exchange_rows
        rows_c.inc(rows * depth)
        itemsize = np.dtype(self.dtype).itemsize
        bytes_c.inc(sum(rows * widths[d] * itemsize for d in range(depth)))
        fraction_g.set(plan.exchange.exchange_fraction)

    def _forward(self, graph: GraphData, with_head: bool) -> np.ndarray:
        """The partitioned pass: bit-identical at float64 to the
        whole-graph chain it overrides."""
        if self.weights.depth == 0:
            # Nothing to exchange: the (row-local) head, unsharded.
            return super()._forward(graph, with_head)
        n_cols = (
            self.weights.fc_weights[-1].shape[1]
            if with_head
            else self.weights.encoder_weights[-1].shape[1]
        )
        if graph.num_nodes == 0:
            return np.zeros((0, n_cols), dtype=self.dtype)
        plan = self.plan_for(graph)
        out = np.empty((graph.num_nodes, n_cols), dtype=self.dtype)
        with span(
            "inference.sharded",
            graph=graph.name,
            nodes=graph.num_nodes,
            shards=plan.partition.n_shards,
        ):
            resolved = self.execution.resolve_exec_backend(default="forkpool")
            use_pool = (
                plan.partition.n_shards > 1
                and self.execution.resolved_workers() > 1
                and resolved != "inprocess"
            )
            if use_pool and resolved == "socket":
                self._by_value_run(
                    graph, plan, with_head, out,
                    self._ensure_executor(plan, "socket"),
                )
            elif use_pool:
                self._shm_run(graph, plan, with_head, out)
            else:
                self._by_value_run(graph, plan, with_head, out, None)
            self._record_exchange(plan, self._layer_widths(graph))
        return out

    # ------------------------------------------------------------------ #
    # By-value transports: per-shard buffers + compiled send/recv copies
    # ------------------------------------------------------------------ #
    def _by_value_run(
        self,
        graph: GraphData,
        plan: _Plan,
        with_head: bool,
        out: np.ndarray,
        executor: Executor | None,
    ) -> None:
        """In-process (``executor is None``) and socket transports.

        Each shard keeps a local activation buffer over its universe; a
        round computes every shard's owned rows — a loop in process, one
        by-value task per shard on the socket fleet (no shared memory, so
        workers can live on any host and every retry/requeue is
        idempotent) — then lands them, and every peer's shipped frontier
        rows, through the compiled index lists.
        """
        shards = plan.exchange.shards
        attrs = self._cast_attributes(graph)
        current = [np.ascontiguousarray(attrs[sh.universe]) for sh in shards]
        for d, head_round in self._rounds(with_head):
            if executor is None:
                results = []
                for i, sh in enumerate(shards):
                    with span("inference.shard", shard=i, layer=d,
                              nodes=sh.n_local):
                        results.append(
                            run_shard_round(
                                self.weights, sh, current[i], d, head_round
                            )
                        )
            else:
                results = executor.submit(
                    [
                        ShardTask(
                            key=f"shard{i}:layer{d}",
                            fn=self.socket_worker_fn,
                            args=(i, d, head_round, current[i]),
                            fallback=(
                                lambda i=i, d=d, head_round=head_round,
                                frame=current[i]: run_shard_round(
                                    self.weights, shards[i], frame, d,
                                    head_round,
                                )
                            ),
                        )
                        for i in range(len(shards))
                    ],
                    policy=self._exec_policy(),
                )
                if executor.last_submit_failures:
                    *_, failure_counter = _obs()
                    failure_counter.inc(executor.last_submit_failures)
            if d == self.weights.depth - 1:
                break
            for i, sh in enumerate(shards):
                nxt = np.empty(
                    (sh.n_local, results[i].shape[1]), dtype=self.dtype
                )
                nxt[sh.owned_pos] = results[i]
                for src, positions in sh.recv.items():
                    nxt[positions] = results[src][shards[src].send[i]]
                current[i] = nxt
        for i, sh in enumerate(shards):
            out[sh.owned] = results[i]

    # ------------------------------------------------------------------ #
    # Pool transports
    # ------------------------------------------------------------------ #
    def _make_executor(self, plan: _Plan, backend: str) -> Executor:
        payload = pickle.dumps(
            (self.weights, self.dtype.name, plan.exchange.shards)
        )
        return make_executor(
            backend,
            name="inference",
            max_workers=max(1, self.execution.resolved_workers()),
            initializer=_exchange_worker_init,
            initargs=(payload,),
        )

    def _exec_policy(self) -> ExecPolicy:
        return ExecPolicy(
            retry=self.retry,
            worker_timeout=self.worker_timeout,
            serial_fallback=self.serial_fallback,
        )

    def _ensure_executor(self, plan: _Plan, backend: str) -> Executor:
        # The worker initializer bakes in this plan's exchange structures,
        # so a new plan (or a different resolved backend) needs a new pool.
        if self._executor is not None and (
            self._pool_plan is not plan or self._executor.kind != backend
        ):
            self.close()
        if self._executor is None:
            self._executor = self._make_executor(plan, backend)
            self._pool_plan = plan
        return self._executor

    def _rounds(self, with_head: bool) -> list[tuple[int, bool]]:
        """(layer, run-head-this-round) schedule; head fuses into the
        last encoder round because it is row-local."""
        depth = self.weights.depth
        return [(d, with_head and d == depth - 1) for d in range(depth)]

    def _shm_run(
        self, graph: GraphData, plan: _Plan, with_head: bool, out: np.ndarray
    ) -> None:
        """Forkpool transport: two shared activation slabs, ping-ponged.

        Round ``d`` reads slab ``d % 2`` and writes slab ``(d+1) % 2``;
        each round is a barrier (all shards complete before the next
        starts), so the slab swap *is* the boundary exchange.
        """
        executor = self._ensure_executor(plan, "forkpool")
        shards = plan.exchange.shards
        widths = self._layer_widths(graph)
        n = graph.num_nodes
        n_cols = out.shape[1]
        max_width = max(widths + [n_cols])
        slab_shape = (n, max_width)
        *_, failure_counter = _obs()
        slabs = (
            SharedSegment.zeros(slab_shape, self.dtype),
            SharedSegment.zeros(slab_shape, self.dtype),
        )
        try:
            slabs[0].array[:, : widths[0]] = graph.attributes
            rounds: list[list[ShardTask]] = []
            for d, head_round in self._rounds(with_head):
                src, dst = slabs[d % 2], slabs[(d + 1) % 2]
                w_in = widths[d]
                w_out = n_cols if head_round else widths[d + 1]
                rounds.append(
                    [
                        ShardTask(
                            key=f"shard{i}:layer{d}",
                            fn=self.worker_fn,
                            args=(
                                i,
                                d,
                                head_round,
                                src.name,
                                dst.name,
                                slab_shape,
                                self.dtype.name,
                                w_in,
                                w_out,
                            ),
                            fallback=self._slab_fallback(
                                shards[i], d, head_round, src, dst, w_in,
                                w_out,
                            ),
                        )
                        for i in range(len(shards))
                    ]
                )
            executor.submit_rounds(rounds, policy=self._exec_policy())
            if executor.last_submit_failures:
                failure_counter.inc(executor.last_submit_failures)
            final = slabs[self.weights.depth % 2].array
            out[:] = final[:, :n_cols]
        finally:
            slabs[0].close_unlink()
            slabs[1].close_unlink()

    def _slab_fallback(
        self, sh, layer: int, head_round: bool, src: SharedSegment,
        dst: SharedSegment, w_in: int, w_out: int,
    ):
        def fallback():
            local_prev = np.ascontiguousarray(src.array[sh.universe, :w_in])
            result = run_shard_round(
                self.weights, sh, local_prev, layer, head_round
            )
            dst.array[sh.owned, :w_out] = result
            return result.shape

        return fallback
