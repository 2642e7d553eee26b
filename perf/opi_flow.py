"""Workload ``opi_flow``: the paper's Figure 7 loop, no parsing, no serving.

One operation is ``api.insert_observation_points(netlist, weights,
OpiConfig(max_iterations=12, select_fraction=0.4))`` on one 1k-gate
design: some 340 whole-graph re-predictions to place some 136 observation
points on a graph that fits in L2 and is mutated between calls.

The amount of work depends on the circuit's structure far more than on
its size (151 to 317 predictor calls across eight generated 700-gate
designs), so the structure is fixed (``BASE_SEED``) and ``--seed`` draws a
random renumbering of it: every seed does the same work, within the
tie-breaks that node order decides, on an input not seen before.
"""

from __future__ import annotations

import time

import numpy as np

from perf import checks, common, layers, stats
from perf.common import Outcome
from perf.hostspeed import HostSpeed, Timing
from perf.spans import Tracer

NAME = "opi_flow"
BASE_SEED = 7002
GATES = {"full": 1_000, "smoke": 150}
MIN_FLOWS = 3


def config():
    from repro import api

    return api.OpiConfig(max_iterations=12, select_fraction=0.4)


def prepare(seed: int, size: str):
    """Harness work: the fixed structure, renumbered by ``seed``."""
    from repro import api

    return common.isomorphic_copy(api.generate_design(GATES[size], seed=BASE_SEED), seed)


def program_setup(_netlist):
    """Program work: load the classifier and run a toy flow to finish lazy set-up."""
    from repro import api

    weights = api.load_gcn(common.ASSET).layer_weights()
    api.insert_observation_points(api.generate_design(60, seed=BASE_SEED), weights, config())
    return weights


def traced_flow(tracer: Tracer, netlist, weights, op: int):
    """One flow with the predictor wrapped by the harness; returns ``(result, counts)``."""
    from repro import api

    engine = api.FastInference(weights)
    counts = {"calls": 0, "rows": 0}

    def predictor(graph):
        with tracer.span("flow.predict"):
            counts["calls"] += 1
            counts["rows"] += graph.num_nodes
            # The flow appends to the COO matrices between calls, which drops
            # their CSR caches: this is the rebuild the next pass would pay.
            with tracer.span("flow.csr_rebuild"):
                graph.pred.to_scipy()
                graph.succ.to_scipy()
            return engine.predict(graph)

    with tracer.span("flow.run", op=op):
        result = api.insert_observation_points(netlist, predictor, config())
    return result, counts


def probe_tentative(tracer: Tracer, netlist, weights) -> float:
    """Median ms of ``tentative_insert`` + undo over the first iteration's candidates."""
    from repro import api

    design = api.IncrementalDesign(netlist.copy())
    predictions = api.FastInference(weights).predict(design.graph)
    observed = set(design.netlist.observation_sites)
    candidates = [int(v) for v in np.flatnonzero(predictions == 1) if int(v) not in observed]
    for op, target in enumerate(candidates):
        with tracer.span("flow.modify.tentative", op=op):
            undo = design.tentative_insert(target)
            undo()
    return 1000.0 * stats.median(tracer.durations("flow.modify.tentative"))


def run(seed: int, seconds: float, trace: bool, size: str, name: str = NAME) -> Outcome:
    from repro import api

    outcome = Outcome()
    host = HostSpeed()
    netlist, weights = common.measure_setup(
        outcome, host, lambda: prepare(seed, size), program_setup,
        repeats=common.setup_repeats(trace, size),
    )
    outcome.notes["nodes"] = netlist.num_nodes

    tracer = Tracer()
    plain: list[Timing] = []
    traced: list[Timing] = []
    reference = None
    counts = None
    stop_at = time.perf_counter() + seconds
    while len(plain) < MIN_FLOWS or time.perf_counter() < stop_at:
        flows = [(plain, lambda: api.insert_observation_points(netlist, weights, config()))]
        if trace:
            flows.append((traced, lambda: traced_flow(tracer, netlist, weights, op=len(traced))))
        for timings, flow in flows:
            timing, result = host.timed(flow)
            if timings is traced:
                result, counts = result
            reference = reference or result
            outcome.attempted += 1
            problem = checks.flow_ok(result, reference.inserted)
            if problem:
                outcome.fail(problem)
            else:
                timings.append(timing)
    if not plain:
        raise RuntimeError(f"{NAME}: no flow succeeded ({outcome.failures})")
    outcome.notes["flow_digest"] = checks.flow_digest(reference)
    outcome.notes["ops_inserted"] = reference.n_ops

    if trace:
        predict = tracer.per_op("flow.predict", self_time=True)
        rebuild = tracer.per_op("flow.csr_rebuild")
        own = tracer.per_op("flow.run", self_time=True)
        outcome.put("flow.predictor_calls", counts["calls"], "count")
        outcome.put("flow.rows_scored", counts["rows"], "count")
        outcome.put("flow.ops_inserted", reference.n_ops, "count")
        outcome.put("flow.iterations", reference.iterations, "count")
        outcome.put("flow.predict_s", stats.median(predict.values()), "s")
        outcome.put("flow.csr_rebuild_s", stats.median(rebuild.values()), "s")
        outcome.put("flow.self_s", stats.median(own.values()), "s")
        outcome.put(
            "flow.modify.tentative_ms_p50", probe_tentative(tracer, netlist, weights), "ms"
        )
        layers.probe(
            tracer, outcome, weights, common.bench_text(netlist), budget_s=seconds / 3
        )
        outcome.put(
            "obs.trace_overhead_ratio",
            stats.median(t.normalised_s for t in traced)
            / stats.median(t.normalised_s for t in plain)
            - 1.0,
            "ratio",
        )
        tracer.write(common.OUT_DIR / f"trace-{NAME}.json")
        layers.fill_unexercised(outcome)
        return outcome

    common.rescore(outcome, host, weights, api.build_graph(netlist), size)
    outcome.put_timings("wall_p50_s", plain, "s")
    outcome.put_timings("latency_p50_ms", plain, "ms", scale=1000.0)
    outcome.put("designs_per_s", len(plain) / sum(t.normalised_s for t in plain), "1/s")
    outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    return outcome
