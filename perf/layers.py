"""Per-layer probes shared by every workload's traced run.

Each probe times calls into one module's public functions on the
workload's own design, from the harness: nothing in ``src/`` is
instrumented.  ``staged_score`` is operation A (text in, scores out)
taken apart stage by stage; the standalone probes time the pieces that
``api.build_graph`` and ``FastInference.logits`` run internally and that
the harness therefore cannot wrap in place.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perf.common import Outcome
from perf.spans import Tracer

#: every per-layer metric and its unit; a workload that does not exercise a
#: layer reports 0 for it
UNITS = {
    "circuit.parse_s": "s",
    "circuit.validate_s": "s",
    "circuit.levelize_s": "s",
    "circuit.adjacency_s": "s",
    "circuit.nodes": "count",
    "circuit.text_bytes": "count",
    "testability.scoap_s": "s",
    "core.graphdata.build_s": "s",
    "core.graphdata.build_self_s": "s",
    "core.inference.embed_s": "s",
    "core.inference.logits_s": "s",
    "core.inference.nodes_per_s": "1/s",
    "core.inference.logits_fp32_s": "s",
    "core.inference.fp32_max_abs_err": "abs",
    "core.inference.busy_share": "ratio",
    "nn.sparse.csr_s": "s",
    "nn.sparse.spmm_s": "s",
    "nn.sparse.spmm_bytes_computed": "count",
    "graph.partition_s": "s",
    "graph.sharded.logits_s": "s",
    "graph.exchange_fraction": "ratio",
    "serve.client.sent": "count",
    "serve.client.succeeded": "count",
    "serve.client.failed": "count",
    "serve.client.latency_hi_ms": "ms",
    "serve.client.latency_hi_pct": "%",
    "serve.client.late_ms_p50": "ms",
    "serve.client.late_ms_max": "ms",
    "serve.service.score_ms_p50": "ms",
    "serve.front_ms_p50": "ms",
    "serve.service.batch_size_mean": "count",
    "serve.service.passes": "count",
    "serve.service.queue_wait_ms_mean": "ms",
    "serve.requests.rejected": "count",
    "serve.requests.expired": "count",
    "serve.requests.degraded": "count",
    "serve.admission.admit_ms_p50": "ms",
    "serve.http.wire_ms_p50": "ms",
    "serve.batch.merge_ms_p50": "ms",
    "serve.models.predict_ms_p50": "ms",
    "serve.models.predict_merged_ms_p50": "ms",
    "flow.predictor_calls": "count",
    "flow.rows_scored": "count",
    "flow.ops_inserted": "count",
    "flow.iterations": "count",
    "flow.predict_s": "s",
    "flow.csr_rebuild_s": "s",
    "flow.self_s": "s",
    "flow.modify.tentative_ms_p50": "ms",
    "api.unattributed_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

SPMM_WIDTH = 128
MIN_ROUNDS = 2
MAX_ROUNDS = 15


def fill_unexercised(outcome: Outcome) -> None:
    """Report 0 for every layer metric this workload did not touch."""
    for name, unit in UNITS.items():
        if name not in outcome.metrics:
            outcome.put(name, 0.0, unit)


def staged_score(tracer: Tracer, weights, text: str, op: int):
    """Operation A through the same public functions, one span per stage."""
    from repro import api

    with tracer.span("api.score_text", op=op):
        with tracer.span("circuit.parse"):
            netlist = api.parse_bench(text, name="netlist")
        with tracer.span("core.graphdata.build"):
            graph = api.build_graph(netlist)
        with tracer.span("nn.sparse.csr"):
            graph.pred.to_scipy()
            graph.succ.to_scipy()
        with tracer.span("api.score_graph"):
            return api.score(weights, graph)


def probe(tracer: Tracer, outcome: Outcome, weights, text: str, budget_s: float) -> float:
    """All ``circuit`` / ``testability`` / ``core`` / ``nn`` / ``graph`` / ``api`` metrics.

    Returns the tracing overhead of operation A (staged over plain, minus 1).

    One round runs operation A plain (no spans), then staged (one span per
    stage), then every standalone probe once; rounds repeat until
    ``budget_s`` is spent.  Taking all medians over the same rounds keeps
    a slow spell of the host from landing on one probe only, which matters
    for the numbers that are differences of two medians.
    """
    from repro import api
    from repro.circuit import adjacency_pair, logic_levels, topological_order, validate_netlist

    netlist = api.parse_bench(text, name="netlist")
    graph = api.build_graph(netlist)
    order = topological_order(netlist)
    engine = api.FastInference(weights)
    reference = engine.logits(graph)  # also fills the CSR cache the probes below use
    fp32 = api.FastInference(weights, execution=api.ExecutionConfig(dtype="float32"))
    fp32_logits = fp32.logits(graph)
    pred_csr = graph.pred.to_scipy()
    dense = np.random.default_rng(0).standard_normal((graph.num_nodes, SPMM_WIDTH))
    # The configuration ``auto`` resolves to above 200k nodes on a 2-core host.
    sharded_config = api.ExecutionConfig(backend="sharded", shards=2, workers=2)

    with api.ShardedInference(weights, execution=sharded_config) as sharded:
        sharded_logits = sharded.logits(graph)  # builds the plan and starts the pool
        exchange_fraction = sharded.plan_for(graph).exchange.exchange_fraction
        probes = {
            "circuit.validate": lambda: validate_netlist(netlist, strict=True),
            # Exactly what build_attributes runs: one ordering, then levels and SCOAP on it.
            "circuit.levelize": lambda: logic_levels(netlist, topological_order(netlist)),
            "testability.scoap": lambda: api.compute_scoap(netlist, order),
            "circuit.adjacency": lambda: adjacency_pair(netlist),
            "core.inference.embed": lambda: engine.embed(graph),
            "core.inference.logits": lambda: engine.logits(graph),
            "core.inference.logits_fp32": lambda: fp32.logits(graph),
            "nn.sparse.spmm": lambda: pred_csr @ dense,
            "graph.partition": lambda: api.partition_graph(
                graph, api.PartitionConfig(n_shards=2)
            ),
            "graph.sharded.logits": lambda: sharded.logits(graph),
        }
        plain_wall_s: list[float] = []
        started = time.perf_counter()
        while len(plain_wall_s) < MIN_ROUNDS or (
            len(plain_wall_s) < MAX_ROUNDS and time.perf_counter() - started < budget_s
        ):
            op = len(plain_wall_s)
            gc.collect()
            t0 = time.perf_counter()
            api.score(weights, api.load_netlist(text))
            plain_wall_s.append(time.perf_counter() - t0)
            gc.collect()
            staged_score(tracer, weights, text, op)
            for name, fn in probes.items():
                gc.collect()
                with tracer.span(name, op=op):
                    fn()
    outcome.attempted += 1
    if not np.array_equal(sharded_logits, reference):
        outcome.fail("sharded_differs_from_single")
    outcome.notes["probe_rounds"] = len(plain_wall_s)
    spmm_bytes = (
        pred_csr.data.nbytes + pred_csr.indices.nbytes + pred_csr.indptr.nbytes
        + 2 * dense.nbytes  # the dense operand read once, the product written once
    )

    def p50(name: str) -> float:
        return float(np.median(tracer.durations(name)))

    build_s = p50("core.graphdata.build")
    outcome.put("circuit.parse_s", p50("circuit.parse"), "s")
    outcome.put("circuit.validate_s", p50("circuit.validate"), "s")
    outcome.put("circuit.levelize_s", p50("circuit.levelize"), "s")
    outcome.put("circuit.adjacency_s", p50("circuit.adjacency"), "s")
    outcome.put("circuit.nodes", netlist.num_nodes, "count")
    outcome.put("circuit.text_bytes", len(text.encode()), "count")
    outcome.put("testability.scoap_s", p50("testability.scoap"), "s")
    outcome.put("core.graphdata.build_s", build_s, "s")
    outcome.put(
        "core.graphdata.build_self_s",
        build_s - p50("circuit.levelize") - p50("testability.scoap") - p50("circuit.adjacency"),
        "s",
    )
    outcome.put("core.inference.embed_s", p50("core.inference.embed"), "s")
    outcome.put("core.inference.logits_s", p50("core.inference.logits"), "s")
    outcome.put(
        "core.inference.nodes_per_s", netlist.num_nodes / p50("core.inference.logits"), "1/s"
    )
    outcome.put("core.inference.logits_fp32_s", p50("core.inference.logits_fp32"), "s")
    outcome.put(
        "core.inference.fp32_max_abs_err",
        float(np.max(np.abs(fp32_logits.astype(np.float64) - reference))),
        "abs",
    )
    outcome.put("nn.sparse.csr_s", p50("nn.sparse.csr"), "s")
    outcome.put("nn.sparse.spmm_s", p50("nn.sparse.spmm"), "s")
    outcome.put("nn.sparse.spmm_bytes_computed", spmm_bytes, "count")
    outcome.put("graph.partition_s", p50("graph.partition"), "s")
    outcome.put("graph.sharded.logits_s", p50("graph.sharded.logits"), "s")
    outcome.put("graph.exchange_fraction", exchange_fraction, "ratio")

    plain = float(np.median(plain_wall_s))
    attributed = (
        p50("circuit.parse") + build_s + p50("nn.sparse.csr") + p50("core.inference.logits")
    )
    outcome.put("api.unattributed_ratio", 1.0 - attributed / plain, "ratio")
    outcome.notes["staged_op_s"] = p50("api.score_text")
    outcome.notes["plain_op_s"] = plain
    return p50("api.score_text") / plain - 1.0
