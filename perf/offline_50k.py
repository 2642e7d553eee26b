"""Workload ``offline_50k``: one large design, text to scores, no server.

Operation A is ``api.score(weights, api.load_netlist(text))`` with the
default ``ExecutionConfig``; operation B, interleaved (A, B, B), scores the
prebuilt ``GraphData`` (the paper's Figure 10 quantity).  This is the one workload
where per-node cost is everything and fixed per-call cost nothing: the
pure-Python front end and a whole-graph SpMM chain whose activations are
far larger than L2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from perf import checks, common, layers
from perf.common import Outcome
from perf.hostspeed import HostSpeed, Timing
from perf.spans import Tracer

NAME = "offline_50k"
SEED_OFFSET = 50_000
GATES = {"full": 50_000, "smoke": 1_000}
MIN_ROUNDS = 3


@dataclass
class State:
    text: str
    weights: object
    graph: object
    reference_logits: object


def prepare(seed: int, size: str) -> str:
    """Harness work: generate the design and serialise it."""
    _, text = common.make_design(GATES[size], common.design_seed(SEED_OFFSET, seed))
    return text


def program_setup(text: str) -> State:
    """Program work: load the classifier, build B's graph, score once to warm up."""
    from repro import api

    weights = api.load_gcn(common.ASSET).layer_weights()
    graph = api.build_graph(api.load_netlist(text))
    reference = api.score(weights, graph)
    return State(text, weights, graph, reference.logits)


def run(seed: int, seconds: float, trace: bool, size: str, name: str = NAME) -> Outcome:
    from repro import api

    outcome = Outcome()
    host = HostSpeed()
    text, state = common.measure_setup(
        outcome, host, lambda: prepare(seed, size), program_setup,
        repeats=common.setup_repeats(trace, size),
    )
    outcome.notes["nodes"] = state.graph.num_nodes
    outcome.notes["text_bytes"] = len(text.encode())

    if trace:
        tracer = Tracer()
        overhead = layers.probe(tracer, outcome, state.weights, text, budget_s=seconds)
        outcome.put("obs.trace_overhead_ratio", overhead, "ratio")
        tracer.write(common.OUT_DIR / f"trace-{NAME}.json")
        layers.fill_unexercised(outcome)
        return outcome

    walls_a: list[Timing] = []
    walls_b: list[Timing] = []
    stop_at = time.perf_counter() + seconds
    while len(walls_a) < MIN_ROUNDS or time.perf_counter() < stop_at:
        # B is a quarter of A's length: two of them per A double its sample.
        for walls, operation in (
            (walls_a, lambda: api.score(state.weights, api.load_netlist(text))),
            (walls_b, lambda: api.score(state.weights, state.graph)),
            (walls_b, lambda: api.score(state.weights, state.graph)),
        ):
            timing, result = host.timed(operation)
            outcome.attempted += 1
            problem = checks.logits_identical(state.reference_logits, result.logits)
            if problem:
                outcome.fail(problem)
            else:
                walls.append(timing)
    if not walls_a or not walls_b:
        raise RuntimeError(f"{NAME}: no operation succeeded ({outcome.failures})")

    outcome.attempted += 1
    problem = checks.logits_match_recursive(
        state.weights, state.graph, state.reference_logits, seed
    )
    if problem:
        outcome.fail(problem)

    outcome.put_timings("wall_p50_s", walls_a, "s")
    outcome.put_timings("rescore_p50_s", walls_b, "s")
    outcome.put_timings("latency_p50_ms", walls_a, "ms", scale=1000.0)
    outcome.put("designs_per_s", len(walls_a) / sum(t.normalised_s for t in walls_a), "1/s")
    outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    return outcome
