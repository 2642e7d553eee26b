"""Serving-layer load benchmark: coalesced batching vs one-pass-per-request.

Drives :class:`~repro.serve.ScoringService` directly (no HTTP socket — the
wire cost is identical for both lanes and would only blur the quantity
under test, the scoring passes themselves) with two load shapes over a
pool of small netlists:

* **closed loop** — N client threads each drive ``submit_many``-then-wait
  groups (the ``score_many`` / ``/v1/score:batch`` pattern) back-to-back
  for a fixed window, once against a ``batching=False`` service (the
  one-request-per-pass baseline) and once against the coalescing
  service.  Sustained req/s and the ``batch_speedup`` ratio come from
  here; the ratio is reported, not gated — with 48 client threads their
  wake-ups, not the passes, bound both lanes on a two-core host.
* **open loop** — a pacer submits at a fixed offered rate (60% of the
  measured batched throughput: above what the solo lane sustains, below
  the batch lane's ceiling) and a drainer records end-to-end latency
  per request.  p50/p99 come from here, judged against the explicit
  ``--gate-p99`` budget.

The batch-occupancy histogram is read back from the service's own
``/metrics`` registry (``repro_serve_batch_size``), so the numbers in
``results/BENCH_serve.json`` are exactly what a scrape would see.  Its
mean — designs per scoring pass in the batched lane — must be at least
``_MIN_MEAN_BATCH``: that the coalescer coalesces is a count, the same
on every machine.  Speed regressions are not this file's job; they are
``perf/``'s ``serve_*`` workloads, gated by ``make bench-check``.

Run directly (``make bench-serve``); environment knobs: ``REPRO_SCALE``
scales the netlist tier, ``REPRO_RESULTS`` redirects output,
``REPRO_BENCH_SECONDS`` (default 1.0) sets the measurement window and
``REPRO_BENCH_REPEATS`` (default 3) the best-of-N rounds per lane.
"""

from __future__ import annotations

import argparse
import os
import queue
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.graphdata import GraphData
from repro.core.model import GCN, GCNConfig
from repro.core.serialize import save_gcn
from repro.data.benchmarks import benchmark_scale, generate_design
from repro.experiments.common import write_result
from repro.serve import ModelManager, ScoreRequest, ScoringService, ServeConfig

#: the small-netlist tier: gate count per design at REPRO_SCALE=1.
#: Deliberately tiny — coalescing monetises the *per-pass* overhead
#: (python/scipy dispatch, the row-stable final layer, manager
#: bookkeeping), which dominates scoring cost only for small blocks;
#: large designs route past the batch lane to sharded inference anyway.
_BASE_GATES = 10
#: distinct designs cycled through by the load generators
_POOL = 24
#: closed-loop client threads (well past batch_max_requests, so there is
#: always a standing queue: batches form from what queued while the one
#: worker was busy — the service never waits for them)
_CLIENTS = 48
#: requests per closed-loop client round, ``submit_many`` then wait — the
#: ``score_many`` / ``/v1/score:batch`` access pattern
_GROUP = 8
#: netlists per coalesced pass (the occupancy target)
_BATCH_MAX = 24
_SEED = 21
#: default end-to-end p99 budget (seconds) — generous for CI timesharing,
#: tight enough to catch a lost wakeup
_P99_BUDGET_S = 0.5
#: floor on mean designs per scoring pass in the batched lane; clients
#: submit groups of ``_GROUP``, so a working coalescer is far above it
_MIN_MEAN_BATCH = 2.0


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def _request_pool(scale: float) -> list[ScoreRequest]:
    gates = max(8, int(_BASE_GATES * scale))
    pool = []
    for i in range(_POOL):
        netlist = generate_design(gates, seed=_SEED + i)
        graph = GraphData.from_netlist(netlist)
        # Warm the CSR caches: both lanes then pay the same conversion
        # cost (none), leaving only the scoring passes to differ.
        graph.pred.to_scipy()
        graph.succ.to_scipy()
        pool.append(
            ScoreRequest(
                graph=graph,
                design=f"bench-{i}",
                deadline_s=60.0,
                return_predictions=False,
            )
        )
    return pool


def _closed_loop(
    service: ScoringService, pool: list[ScoreRequest], seconds: float
) -> dict:
    """N clients scoring back-to-back; returns req/s and latency quantiles.

    Each client issues groups of ``_GROUP`` requests through
    :meth:`ScoringService.submit_many`, then waits on each — the exact
    calls ``POST /v1/score:batch`` (and ``ServeClient.score_many``) makes — so
    both lanes see the same arrival process and the lanes differ only in
    how many netlists each scoring pass carries.
    """
    latencies: list[float] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def client(offset: int) -> None:
        local = []
        i = offset
        while time.perf_counter() < stop_at:
            t0 = time.perf_counter()
            group = service.submit_many(
                [pool[(i + j) % len(pool)] for j in range(_GROUP)]
            )
            i += _GROUP
            for job in group:
                if isinstance(job, BaseException):  # refused: queue full
                    raise job
                service.wait_for(job)
                local.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return {
        "requests": len(latencies),
        "req_per_s": len(latencies) / elapsed,
        "p50_latency_seconds": _percentile(latencies, 50),
        "p99_latency_seconds": _percentile(latencies, 99),
    }


def _open_loop(
    service: ScoringService,
    pool: list[ScoreRequest],
    offered_req_per_s: float,
    seconds: float,
) -> dict:
    """Paced submission at a fixed offered rate; end-to-end latency per job.

    The pacer never waits on results (that is what makes the loop open);
    a single drainer thread waits the jobs out in submission order —
    batches complete FIFO, so in-order draining observes each completion
    promptly while keeping the instrumentation off the hot path.  When
    the service cannot keep up, the backlog shows up as queueing delay
    in p99 instead of silently throttling the load.
    """
    interarrival = 1.0 / offered_req_per_s
    pending: queue.Queue = queue.Queue()
    latencies: list[float] = []
    rejected = 0

    def drainer() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            job, t0 = item
            try:
                service.wait_for(job)
                latencies.append(time.perf_counter() - t0)
            except Exception:
                pass

    drain = threading.Thread(target=drainer)
    drain.start()

    start = time.perf_counter()
    n = 0
    submitted = 0
    while True:
        now = time.perf_counter()
        if now - start >= seconds:
            break
        due = start + n * interarrival
        if now < due:
            time.sleep(min(interarrival, due - now))
            continue
        n += 1
        t0 = time.perf_counter()
        try:
            job = service.submit(pool[n % len(pool)])
        except Exception:
            rejected += 1
            continue
        submitted += 1
        pending.put((job, t0))
    pending.put(None)
    drain.join()
    elapsed = time.perf_counter() - start
    return {
        "offered_req_per_s": offered_req_per_s,
        "submitted": submitted,
        "rejected": rejected,
        "achieved_req_per_s": len(latencies) / elapsed,
        "p50_latency_seconds": _percentile(latencies, 50),
        "p99_latency_seconds": _percentile(latencies, 99),
    }


def _occupancy(service: ScoringService) -> tuple[dict[str, float], float]:
    """Batch-size histogram exactly as a /metrics scrape reports it, and
    its mean (designs per scoring pass)."""
    buckets: dict[str, float] = {}
    total = passes = 0.0
    for line in service.registry.render_prometheus().splitlines():
        value = line.rpartition(" ")[2]
        if line.startswith("repro_serve_batch_size_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets[le] = float(value)
        elif line.startswith("repro_serve_batch_size_sum"):
            total = float(value)
        elif line.startswith("repro_serve_batch_size_count"):
            passes = float(value)
    return buckets, total / max(passes, 1.0)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate-p99",
        type=float,
        default=_P99_BUDGET_S,
        metavar="SECONDS",
        help="open-loop p99 budget in seconds (default %(default)s)",
    )
    args = parser.parse_args(argv)

    scale = benchmark_scale()
    seconds = float(os.environ.get("REPRO_BENCH_SECONDS", "1.0"))
    pool = _request_pool(scale)

    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    with tempfile.TemporaryDirectory() as tmp:
        model = save_gcn(GCN(GCNConfig(seed=3)), Path(tmp) / "model.npz")
        manager = ModelManager(model_path=model)
        try:
            # One scoring worker for both lanes: the lanes then differ in
            # exactly one thing — how many netlists each pass carries —
            # and the comparison stays stable on timeshared CI hosts.
            base = dict(workers=1, queue_capacity=512)

            def best_of(service) -> dict:
                _closed_loop(service, pool, seconds / 4)  # warm-up
                rounds = [
                    _closed_loop(service, pool, seconds)
                    for _ in range(repeats)
                ]
                return max(rounds, key=lambda r: r["req_per_s"])

            solo_service = ScoringService(
                manager, ServeConfig(batching=False, **base)
            )
            try:
                solo = best_of(solo_service)
            finally:
                solo_service.stop()

            batched_service = ScoringService(
                manager,
                ServeConfig(
                    batch_max_requests=_BATCH_MAX,
                    batch_max_nodes=4096,
                    **base,
                ),
            )
            try:
                batched = best_of(batched_service)
                # Offered load: comfortably above what the solo lane can
                # sustain, comfortably below the batch lane's ceiling —
                # the regime the coalescer exists for.  Best-of-N on the
                # p99: tail noise on a timeshared host is 2x run-to-run,
                # and the budget is a claim about the repeatable floor.
                rate = max(10.0, 0.6 * batched["req_per_s"])
                open_rounds = [
                    _open_loop(
                        batched_service, pool,
                        offered_req_per_s=rate, seconds=seconds,
                    )
                    for _ in range(repeats)
                ]
                open_loop = min(
                    open_rounds, key=lambda r: r["p99_latency_seconds"]
                )
                occupancy, mean_batch = _occupancy(batched_service)
            finally:
                batched_service.stop()
        finally:
            manager.close()

    speedup = batched["req_per_s"] / max(solo["req_per_s"], 1e-9)
    payload = {
        "scale": scale,
        "nodes_per_design": pool[0].graph.num_nodes,
        "pool": len(pool),
        "clients": _CLIENTS,
        "batch_max_requests": _BATCH_MAX,
        "window_seconds": seconds,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "solo": solo,
        "batched": batched,
        "open_loop": open_loop,
        "batch_speedup": speedup,
        "batch_occupancy": occupancy,
        "mean_batch_size": mean_batch,
        "p99_budget_seconds": args.gate_p99,
        "p99_within_budget": open_loop["p99_latency_seconds"]
        <= args.gate_p99,
    }
    print(
        f"solo={solo['req_per_s']:.0f} req/s "
        f"batched={batched['req_per_s']:.0f} req/s "
        f"speedup={speedup:.2f}x "
        f"designs/pass={mean_batch:.1f} "
        f"open-loop p50={open_loop['p50_latency_seconds'] * 1e3:.1f}ms "
        f"p99={open_loop['p99_latency_seconds'] * 1e3:.1f}ms "
        f"(budget {args.gate_p99 * 1e3:.0f}ms)"
    )
    path = write_result("BENCH_serve", payload)
    print(f"wrote {path}")
    failed = False
    if mean_batch < _MIN_MEAN_BATCH:
        print(
            f"FAIL: batched lane carried {mean_batch:.2f} designs per pass, "
            f"under {_MIN_MEAN_BATCH:.0f}"
        )
        failed = True
    if not payload["p99_within_budget"]:
        print(
            f"FAIL: open-loop p99 "
            f"{open_loop['p99_latency_seconds'] * 1e3:.1f}ms over the "
            f"{args.gate_p99 * 1e3:.0f}ms budget"
        )
        failed = True
    if failed:
        sys.exit(1)
    return payload


if __name__ == "__main__":
    main()
