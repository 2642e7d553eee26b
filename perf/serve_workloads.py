"""Workloads ``serve_2k`` and ``serve_tiny_batch``: the scoring daemon under load.

Both drive ``python -m repro serve --model <asset> --port 0 --workers 2``
as a subprocess from at most ``nproc`` (2) client threads in this process.

``serve_2k`` — two closed-loop clients (flow scripts that wait for their
reply) each ``ServeClient.score`` one of 16 distinct 2k-gate designs.  A
block-level request crosses every serve stage once and the front end runs
in the HTTP handler thread, so a faster netlist front end, or admission
moved off the GIL, must show here as designs per second.

``serve_tiny_batch`` — every call is ``ServeClient.score_many`` of 8
60-gate designs (``/v1/score:batch``).  Per-call fixed costs dominate and
the calls go through the coalescing lane that ``serve_2k`` bypasses.
Phase ``closed``: two clients back to back (capacity).  Phase ``open``: a
fixed schedule of ``OPEN_RATE`` calls/s, two senders taking alternate
slots, each call timed from when it was due.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from perf import checks, common, layers, loadgen, server, stats
from perf.common import Outcome
from perf.hostspeed import HostSpeed
from perf.loadgen import LoadResult
from perf.spans import Tracer

CLIENTS = 2
SEED_OFFSETS = {"serve_2k": 20_000, "serve_tiny_batch": 60_000}
POOLS = {
    "serve_2k": {"full": (16, 2_000), "smoke": (4, 200)},
    "serve_tiny_batch": {"full": (32, 60), "smoke": (16, 30)},
}
BATCH = 8
OPEN_RATE = 20.0  #: calls per second in the open phase
WARMUP_CALLS = 4
REPLAY_REPS = 5


@dataclass
class Inputs:
    texts: list[str]
    references: list[np.ndarray]
    weights: object


@dataclass
class Recorder:
    """Server-reported time per call (by phase), and client spans when tracing."""

    server_ms: dict[str, list[float]] = field(default_factory=dict)
    phase: str = "warmup"
    tracer: Tracer | None = None
    op: itertools.count = field(default_factory=itertools.count)

    def on_scores(self, scores) -> None:
        # The batch endpoint waits for its members in turn, so the first one
        # carries the queue wait and the pass and the rest report next to
        # nothing: the call's server-side time is the largest of them.
        times = self.server_ms.setdefault(self.phase, [])
        times.append(max(s.latency_ms for s in scores))  # list.append is atomic

    def wrap(self, call):
        if self.tracer is None:
            return call

        def traced() -> int:
            with self.tracer.span("serve.client.call", op=next(self.op)):
                return call()

        return traced


def prepare(name: str, seed: int, size: str) -> Inputs:
    """Harness work: the design pool, its texts and the offline reference labels."""
    from repro import api

    count, gates = POOLS[name][size]
    weights = api.load_gcn(common.ASSET).layer_weights()
    texts, references = [], []
    for index in range(count):
        _, text = common.make_design(
            gates, common.design_seed(SEED_OFFSETS[name], seed, index)
        )
        texts.append(text)
        references.append(api.score(weights, api.load_netlist(text)).labels)
    return Inputs(texts, references, weights)


def call_factory(name: str, client, inputs: Inputs, recorder: Recorder):
    """``factory(k)`` -> the k-th call of a client: pool designs in rotation."""
    pool = len(inputs.texts)
    if name == "serve_2k":
        def factory(k: int):
            i = k % pool
            return recorder.wrap(
                checks.score_call(client, inputs.texts[i], inputs.references[i], recorder.on_scores)
            )
    else:
        def factory(k: int):
            members = [(k * BATCH + j) % pool for j in range(BATCH)]
            return recorder.wrap(
                checks.batch_call(
                    client,
                    [inputs.texts[i] for i in members],
                    [inputs.references[i] for i in members],
                    recorder.on_scores,
                )
            )
    return factory


def program_setup(name: str, inputs: Inputs, scratch) -> server.Server:
    """Program work: spawn the daemon, wait for ``/healthz``, warm it up."""
    daemon = server.Server(scratch)
    try:
        factory = call_factory(name, daemon.client, inputs, Recorder())
        for k in range(WARMUP_CALLS):
            factory(k)()
    except BaseException:
        daemon.stop()
        raise
    return daemon


def strided(factory, client_index: int):
    """Client ``i`` of ``CLIENTS`` makes calls i, i + CLIENTS, ... so no two collide."""
    counter = itertools.count(client_index, CLIENTS)
    return lambda: factory(next(counter))


def closed_phase(factory, seconds: float) -> LoadResult:
    stop_at = time.perf_counter() + seconds
    return loadgen.run_threads(
        [
            (lambda i=i: loadgen.closed_loop_client(strided(factory, i), stop_at))
            for i in range(CLIENTS)
        ]
    )


def open_phase(factory, seconds: float) -> LoadResult:
    slots = loadgen.schedule(time.perf_counter() + 0.05, OPEN_RATE, seconds)
    return loadgen.run_threads(
        [
            (lambda i=i: loadgen.open_loop_sender(slots[i::CLIENTS], strided(factory, i)))
            for i in range(CLIENTS)
        ]
    )


def scrape(daemon: server.Server) -> dict[str, float]:
    return server.parse_metrics(daemon.client.metrics())


# --------------------------------------------------------------------- #
def report_serve_layers(outcome: Outcome, phases: dict[str, LoadResult], recorder: Recorder,
                        delta: dict[str, float], window_s: float) -> None:
    """Client-side, response-body and ``/metrics`` numbers of the serve layer."""
    total = LoadResult()
    for phase in phases.values():
        total.merge(phase)
    outcome.put("serve.client.sent", total.sent, "count")
    outcome.put("serve.client.succeeded", total.succeeded, "count")
    outcome.put("serve.client.failed", total.failed, "count")
    outcome.notes["phases"] = {
        name: {"sent": p.sent, "succeeded": p.succeeded, "failed": p.failed,
               "window_s": p.window_s, "failures": p.failures}
        for name, p in phases.items()
    }
    latest = list(phases.values())[-1]
    if latest.latencies_s:
        summary = stats.summarize([v * 1000.0 for v in latest.latencies_s])
        outcome.samples["serve.client.latency_ms"] = summary
        outcome.put("serve.client.latency_hi_ms", summary["hi"], "ms")
        outcome.put("serve.client.latency_hi_pct", summary["hi_pct"], "%")
    if total.late_s:
        outcome.put("serve.client.late_ms_p50", 1000.0 * stats.median(total.late_s), "ms")
        outcome.put("serve.client.late_ms_max", 1000.0 * max(total.late_s), "ms")
    closed = phases["closed"]
    if recorder.server_ms.get("closed") and closed.latencies_s:
        score_ms = stats.median(recorder.server_ms["closed"])
        outcome.put("serve.service.score_ms_p50", score_ms, "ms")
        # Client latency minus the server's own queue-wait + pass: wire, JSON, admission.
        outcome.put(
            "serve.front_ms_p50", 1000.0 * stats.median(closed.latencies_s) - score_ms, "ms"
        )
    for metric, (value, unit) in server.service_metrics(delta, window_s).items():
        outcome.put(metric, value, unit)


def replay_in_process(name: str, outcome: Outcome, inputs: Inputs, tracer: Tracer) -> None:
    """The same request bodies through ``repro.serve`` without a socket."""
    from repro import serve

    config = serve.ServeConfig()
    bodies = [
        json.dumps({"netlist": text, "design": "request", "return_predictions": True}).encode()
        for text in inputs.texts[:BATCH]
    ]
    for rep in range(REPLAY_REPS):
        for body in bodies:
            with tracer.span("serve.admission.admit", op=rep):
                serve.admit(body, config)
    graphs = [serve.admit(body, config).graph for body in bodies]
    for graph in graphs:  # merging reuses each member's cached CSR, as in the service
        graph.pred.to_scipy()
        graph.succ.to_scipy()
    manager = serve.ModelManager(common.ASSET)
    try:
        for rep in range(REPLAY_REPS):
            with tracer.span("serve.batch.merge", op=rep):
                merged = serve.merge_graphs(graphs)
            with tracer.span("serve.models.predict_merged", op=rep):
                manager.predict(merged.graph)
            for graph in graphs:
                with tracer.span("serve.models.predict", op=rep):
                    manager.predict(graph)
    finally:
        manager.close()

    def p50_ms(span_name: str) -> float:
        return 1000.0 * stats.median(tracer.durations(span_name))

    admit_ms = p50_ms("serve.admission.admit")
    outcome.put("serve.admission.admit_ms_p50", admit_ms, "ms")
    outcome.put("serve.batch.merge_ms_p50", p50_ms("serve.batch.merge"), "ms")
    outcome.put("serve.models.predict_ms_p50", p50_ms("serve.models.predict"), "ms")
    outcome.put(
        "serve.models.predict_merged_ms_p50", p50_ms("serve.models.predict_merged"), "ms"
    )
    front_ms = outcome.metrics["serve.front_ms_p50"][0]
    designs_per_call = BATCH if name == "serve_tiny_batch" else 1
    outcome.put("serve.http.wire_ms_p50", front_ms - designs_per_call * admit_ms, "ms")


# --------------------------------------------------------------------- #
def normalised(host: HostSpeed, phase: LoadResult) -> list[float]:
    """Each call's latency over the host slowdown probed while it was in flight."""
    return [
        latency / host.slowdown_between(ended - latency, ended)
        for latency, ended in zip(phase.latencies_s, phase.ended_s)
    ]


def run(seed: int, seconds: float, trace: bool, size: str, name: str) -> Outcome:
    from repro import api

    outcome = Outcome()
    host = HostSpeed()
    tracer = Tracer() if trace else None
    with common.scratch_dir() as scratch:
        inputs, daemon = common.measure_setup(
            outcome, host,
            lambda: prepare(name, seed, size),
            lambda inputs: program_setup(name, inputs, scratch),
            teardown=server.Server.stop,
            repeats=common.setup_repeats(trace, size),
        )
        try:
            recorder = Recorder()
            calls = call_factory(name, daemon.client, inputs, recorder)
            phases: dict[str, LoadResult] = {}
            before = scrape(daemon)
            window_started = time.perf_counter()

            def run_phase(phase: str, loop, length_s: float) -> None:
                recorder.phase = phase
                phases[phase] = loop(calls, length_s)

            with host.background():
                if trace:
                    # Half the window without spans, half with: the difference
                    # in client latency is the tracing overhead.
                    run_phase("untraced", closed_phase, seconds / 2)
                    recorder.tracer = tracer
                    run_phase("closed", closed_phase, seconds / 2)
                    if name == "serve_tiny_batch":
                        run_phase("open", open_phase, min(seconds / 2, 5.0))
                elif name == "serve_2k":
                    run_phase("closed", closed_phase, seconds)
                else:
                    run_phase("closed", closed_phase, seconds / 2)
                    run_phase("open", open_phase, seconds / 2)
            window_s = time.perf_counter() - window_started
            delta = server.metrics_delta(before, scrape(daemon))
            outcome.put("peak_rss_mb", daemon.peak_rss_mb(), "MB")
        finally:
            daemon.stop()

    for phase in phases.values():
        outcome.attempted += phase.sent
        for reason, count in phase.failures.items():
            outcome.fail(reason, count)
    closed = phases["closed"]
    latency_phase = phases.get("open", closed)
    if not closed.latencies_s or not latency_phase.latencies_s:
        raise RuntimeError(f"{name}: no call succeeded ({closed.failures})")

    report_serve_layers(outcome, phases, recorder, delta, window_s)
    if trace:
        overhead = stats.median(normalised(host, closed)) / stats.median(
            normalised(host, phases["untraced"])
        ) - 1.0
        replay_in_process(name, outcome, inputs, tracer)
        layers.probe(tracer, outcome, inputs.weights, inputs.texts[0], budget_s=seconds / 3)
        outcome.put("obs.trace_overhead_ratio", overhead, "ratio")
        tracer.write(common.OUT_DIR / f"trace-{name}.json")
        layers.fill_unexercised(outcome)
        return outcome

    graph = api.build_graph(api.load_netlist(inputs.texts[0]))
    common.rescore(outcome, host, inputs.weights, graph, size)
    raw_rate = closed.designs_ok / closed.window_s
    rate_factor = host.rate_factor(closed.started_at, closed.started_at + closed.window_s)
    outcome.put("designs_per_s", raw_rate / rate_factor, "1/s")
    outcome.notes["designs_per_s_raw"] = raw_rate
    outcome.put_sample("wall_p50_s", normalised(host, closed), "s", raw=closed.latencies_s)
    outcome.put_sample(
        "latency_p50_ms",
        [1000.0 * v for v in normalised(host, latency_phase)],
        "ms",
        raw=[1000.0 * v for v in latency_phase.latencies_s],
    )
    return outcome
