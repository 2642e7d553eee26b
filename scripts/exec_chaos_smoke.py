#!/usr/bin/env python
"""Chaos smoke for the execution fabric: every mode, every recovery path.

Default section — runs the fault-simulation engine through the fork-pool
fabric under each *process* ``REPRO_CHAOS`` mode (kill / hang / raise /
corrupt) plus a clean baseline, asserting after every run that:

1. the recovered result is bit-identical to the batched serial oracle;
2. the fabric actually exercised the recovery machinery (retries > 0 for
   every chaos mode; integrity rejections > 0 for ``corrupt``);
3. no ``repro-exec-*`` shared-memory segment is left in ``/dev/shm``.

``--distributed`` section — boots a loopback coordinator plus two real
``repro exec-worker`` subprocesses and drives all three engines
(ParallelTrainer, PpsfpEngine, ShardedInference) through the ``socket``
backend under each *network* chaos mode (disconnect / delay / partition
/ stale), asserting bit-identical results against the in-process oracle,
that the expected ``repro_exec_*`` counters moved, that a SIGKILLed
worker mid-run leaves the survivor to finish, and that a fleet of zero
workers runs the same ladder on forked local workers with identical
numbers.

Metrics snapshots land in ``$REPRO_RESULTS/exec_chaos_metrics.json`` and
``$REPRO_RESULTS/exec_net_chaos_metrics.json`` (default ``results/``) so
CI can archive exactly which counters each chaos mode moved.

Exits non-zero with a one-line FAIL message on the first violated check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.atpg.fault_sim import FaultSimulator  # noqa: E402
from repro.atpg.faults import collapse_faults  # noqa: E402
from repro.atpg.ppsfp import PpsfpConfig  # noqa: E402
from repro.data.benchmarks import generate_design  # noqa: E402
from repro.exec import (  # noqa: E402
    NET_CHAOS_MODES,
    PROCESS_CHAOS_MODES,
    get_coordinator,
    leaked_segment_names,
    shutdown_coordinator,
)
from repro.obs.metrics import MetricsRegistry, set_registry  # noqa: E402
from repro.resilience.retry import RetryPolicy  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _counter_total(snapshot: dict, name: str) -> float:
    family = snapshot.get(name, {})
    return sum(s["value"] for s in family.get("samples", ()))


def main() -> None:
    netlist = generate_design(200, seed=7)
    faults = collapse_faults(netlist)
    fsim = FaultSimulator(
        netlist,
        config=PpsfpConfig(
            workers=2,
            shards=2,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            worker_timeout=1.0,
        ),
    )
    rng = np.random.default_rng(1)
    values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
    oracle = fsim.detection_masks(faults, values, backend="batched")

    # Longer than the worker timeout: the hung worker is killed at its
    # deadline, not waited for.
    os.environ["REPRO_CHAOS_HANG_S"] = "5"
    report: dict = {}
    for mode in (None, *PROCESS_CHAOS_MODES):
        label = mode or "baseline"
        registry = MetricsRegistry()
        set_registry(registry)
        if mode is None:
            os.environ.pop("REPRO_CHAOS", None)
        else:
            os.environ["REPRO_CHAOS"] = mode
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                masks = fsim.detection_masks(faults, values, backend="parallel")
        finally:
            os.environ.pop("REPRO_CHAOS", None)
        if not np.array_equal(masks, oracle):
            fail(f"{label}: recovered masks differ from the serial oracle")
        snapshot = registry.snapshot()
        retries = _counter_total(snapshot, "repro_exec_task_retries_total")
        if mode is not None and retries == 0:
            fail(f"{label}: chaos was enabled but no task retries were counted")
        if mode == "corrupt" and _counter_total(
            snapshot, "repro_exec_integrity_failures_total"
        ) == 0:
            fail("corrupt: no CRC integrity rejections were counted")
        leaked = leaked_segment_names()
        if leaked:
            fail(f"{label}: leaked shared-memory segments: {leaked}")
        report[label] = snapshot
        print(
            f"OK   {label}: bit-identical, retries={int(retries)}, "
            f"no leaked segments"
        )
    fsim.close()

    out_dir = Path(os.environ.get("REPRO_RESULTS", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "exec_chaos_metrics.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"PASS: all chaos modes recovered; metrics dumped to {out_path}")


# --------------------------------------------------------------------- #
# Distributed section: coordinator + two worker subprocesses, all three
# engines, every network chaos mode, bit-identical to in-process oracles.
# --------------------------------------------------------------------- #
RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)
WORKER_TIMEOUT_S = 2.5
#: which counter each net chaos mode must move
_MODE_EVIDENCE = {
    "disconnect": "repro_exec_net_requeues_total",
    "partition": "repro_exec_net_requeues_total",
    "stale": "repro_exec_net_stale_results_total",
    "delay": "repro_exec_net_stragglers_total",
}


def _spawn_worker(port: int, worker_id: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "exec-worker",
         "--connect", f"127.0.0.1:{port}", "--worker-id", worker_id],
        env=env, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _train_step(graphs):
    from repro.core.model import GCN, GCNConfig
    from repro.core.trainer import ParallelTrainer, TrainConfig

    model = GCN(GCNConfig(hidden_dims=(8,), fc_dims=(8,), seed=5))
    trainer = ParallelTrainer(
        model,
        TrainConfig(epochs=1, lr=0.1, momentum=0.0, optimizer="sgd"),
        max_workers=2,
        worker_timeout=WORKER_TIMEOUT_S,
        retry_policy=RETRY,
    )
    loss = trainer.train_step(graphs)
    return loss, {k: v.copy() for k, v in model.state_dict().items()}


def _labelled_graphs():
    from repro.core.graphdata import GraphData

    graphs = []
    for seed in (1, 2):
        g = GraphData.from_netlist(generate_design(100, seed=seed))
        graphs.append(
            GraphData(
                pred=g.pred, succ=g.succ, attributes=g.attributes,
                labels=(
                    g.attributes[:, 3] > np.median(g.attributes[:, 3])
                ).astype(np.int64),
                name=f"g{seed}",
            )
        )
    return graphs


def _make_fsim():
    netlist = generate_design(120, seed=7)
    faults = collapse_faults(netlist)
    fsim = FaultSimulator(
        netlist,
        config=PpsfpConfig(
            workers=2, shards=4, retry=RETRY, worker_timeout=WORKER_TIMEOUT_S
        ),
    )
    rng = np.random.default_rng(1)
    values = fsim.good_values(fsim.simulator.random_source_words(2, rng))
    return fsim, faults, values


def _make_inference():
    from repro.config import ExecutionConfig
    from repro.core.graphdata import GraphData
    from repro.core.inference import FastInference
    from repro.core.model import GCN, GCNConfig
    from repro.graph import ShardedInference

    weights = GCN(GCNConfig(seed=5)).layer_weights()
    graph = GraphData.from_netlist(generate_design(400, seed=23))
    oracle = FastInference(weights).logits(graph)
    engine = ShardedInference(
        weights, ExecutionConfig(shards=4, workers=2)
    )
    engine.retry = RETRY
    engine.worker_timeout = WORKER_TIMEOUT_S
    return engine, graph, oracle


def _run_engines(label, graphs, oracle_train, fsim, faults, values,
                 oracle_masks, inference, graph, oracle_logits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loss, state = _train_step(graphs)
        masks = fsim.detection_masks(faults, values, backend="parallel")
        logits = inference.logits(graph)
    oracle_loss, oracle_state = oracle_train
    if loss != oracle_loss or any(
        not np.array_equal(state[k], oracle_state[k]) for k in oracle_state
    ):
        fail(f"{label}: trainer diverged from the in-process oracle")
    if not np.array_equal(masks, oracle_masks):
        fail(f"{label}: fault-sim masks diverged from the in-process oracle")
    if not np.array_equal(logits, oracle_logits):
        fail(f"{label}: sharded logits diverged from the in-process oracle")


def distributed_main() -> None:
    os.environ["REPRO_EXEC_HB_INTERVAL_S"] = "0.05"
    os.environ["REPRO_EXEC_HB_TIMEOUT_S"] = "0.5"
    os.environ["REPRO_EXEC_CONNECT_TIMEOUT_S"] = "10"
    os.environ.pop("REPRO_CHAOS", None)
    os.environ.pop("REPRO_EXEC_BACKEND", None)

    # In-process oracles, before any worker exists.
    graphs = _labelled_graphs()
    os.environ["REPRO_EXEC_BACKEND"] = "inprocess"
    oracle_train = _train_step(graphs)
    os.environ.pop("REPRO_EXEC_BACKEND", None)
    fsim, faults, values = _make_fsim()
    oracle_masks = fsim.detection_masks(faults, values, backend="batched")
    inference, graph, oracle_logits = _make_inference()

    report: dict = {}

    # Rung check: socket backend with zero workers degrades to forkpool.
    os.environ["REPRO_EXEC_BACKEND"] = "socket"
    os.environ["REPRO_EXEC_CONNECT_TIMEOUT_S"] = "0.3"
    registry = MetricsRegistry()
    set_registry(registry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        logits = inference.logits(graph)
    if not np.array_equal(logits, oracle_logits):
        fail("zero-workers: degraded logits diverged from the oracle")
    snapshot = registry.snapshot()
    on_forkpool = sum(
        s["value"]
        for s in snapshot.get("repro_exec_tasks_total", {}).get("samples", ())
        if s["labels"].get("backend") == "forkpool"
    )
    if on_forkpool == 0:
        fail("zero-workers: no task was accounted to the forkpool backend")
    if _counter_total(snapshot, "repro_exec_fallbacks_total") != 0:
        fail("zero-workers: tasks were rescued in-process, not run locally")
    report["zero_workers"] = snapshot
    print("OK   zero-workers: degraded to forkpool, bit-identical")
    inference.close()
    os.environ["REPRO_EXEC_CONNECT_TIMEOUT_S"] = "10"

    coordinator = get_coordinator()
    port = coordinator.address[1]
    procs = [_spawn_worker(port, f"smoke-w{i}") for i in range(2)]
    try:
        if not coordinator.wait_for_workers(60.0, minimum=2):
            fail("workers never registered with the coordinator")
        print(f"OK   fleet: 2 workers registered on 127.0.0.1:{port}")

        os.environ["REPRO_CHAOS_HANG_S"] = "1.5"
        os.environ["REPRO_CHAOS_SEED"] = "1"
        for mode in NET_CHAOS_MODES:
            registry = MetricsRegistry()
            set_registry(registry)
            rate = ":0.5" if mode in ("delay", "partition") else ""
            os.environ["REPRO_CHAOS"] = f"{mode}{rate}"
            try:
                _run_engines(
                    mode, graphs, oracle_train, fsim, faults, values,
                    oracle_masks, inference, graph, oracle_logits,
                )
            finally:
                os.environ.pop("REPRO_CHAOS", None)
            snapshot = registry.snapshot()
            evidence = _MODE_EVIDENCE[mode]
            moved = _counter_total(snapshot, evidence)
            if moved == 0:
                fail(f"{mode}: chaos was enabled but {evidence} never moved")
            report[mode] = snapshot
            print(
                f"OK   {mode}: all 3 engines bit-identical, "
                f"{evidence}={int(moved)}"
            )

        # Kill one worker mid-run: the survivor must finish the job.
        registry = MetricsRegistry()
        set_registry(registry)
        victim = procs[0]
        killer = threading.Timer(
            0.05, lambda: victim.send_signal(signal.SIGKILL)
        )
        killer.start()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            masks = fsim.detection_masks(faults, values, backend="parallel")
        killer.join()
        if not np.array_equal(masks, oracle_masks):
            fail("worker-kill: survivor's masks diverged from the oracle")
        victim.wait(timeout=10.0)
        report["worker_kill"] = registry.snapshot()
        print("OK   worker-kill: survivor completed, bit-identical")
    finally:
        fsim.close()
        inference.close()
        shutdown_coordinator()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=10.0)

    leaked = leaked_segment_names()
    if leaked:
        fail(f"distributed: leaked shared-memory segments: {leaked}")
    out_dir = Path(os.environ.get("REPRO_RESULTS", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "exec_net_chaos_metrics.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(
        "PASS: distributed fabric survived every net chaos mode; "
        f"metrics dumped to {out_path}"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="run the loopback coordinator + exec-worker subprocess section "
        "(network chaos modes) instead of the fork-pool process modes",
    )
    if parser.parse_args().distributed:
        distributed_main()
    else:
        main()
