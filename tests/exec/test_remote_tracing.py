"""Distributed tracing + telemetry forwarding over a loopback fleet.

The telemetry plane's end-to-end contract: worker ``exec.task`` spans
(including retries and straggler duplicate dispatches) graft back under
the submitting trace root, task results stay bit-identical to the
in-process oracle under every network chaos mode, and a delayed or
partitioned coordinator makes workers *drop and count* telemetry rather
than block or fail a single task.
"""

from __future__ import annotations

import importlib
import threading
import time
import warnings

import pytest

from repro.exec import DistributedExecutor, ExecPolicy, ShardTask
from repro.exec.chaos import NET_CHAOS_MODES
from repro.obs import logs
from repro.resilience.retry import RetryPolicy

trace = importlib.import_module("repro.obs.trace")

FAST = ExecPolicy(
    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    worker_timeout=2.0,
    quarantine_after=2,
)

_FLAKY_LOCK = threading.Lock()
_FLAKY_CALLS: dict = {}


def _square(x):
    return x * x


def _flaky_square(x):
    """Fails the first time each argument is seen, succeeds after."""
    with _FLAKY_LOCK:
        _FLAKY_CALLS[x] = _FLAKY_CALLS.get(x, 0) + 1
        attempt = _FLAKY_CALLS[x]
    if attempt == 1:
        raise RuntimeError(f"injected first-attempt failure for {x}")
    return x * x


def _sleep_square(x, delay):
    time.sleep(delay)
    return x * x


def _chatty_square(x):
    """Emit far more log records than any bounded buffer will hold."""
    logger = logs.get_logger("worker.chatty")
    for i in range(200):
        logger.warning("telemetry flood %d for task %d", i, x)
    return x * x


def _tasks(n=6, fn=_square):
    return [
        ShardTask(key=f"t{i}", fn=fn, args=(i,), fallback=lambda i=i: i * i)
        for i in range(n)
    ]


def _named(root, name):
    """Every span called ``name`` anywhere in the tree (depth-first)."""
    found = []

    def walk(node):
        for child in node.children:
            if child.name == name:
                found.append(child)
            walk(child)

    walk(root)
    return found


def _sum(snapshot, name, **labels):
    total = 0.0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


# --------------------------------------------------------------------- #
pytestmark = pytest.mark.usefixtures("fast_net")


# --------------------------------------------------------------------- #
class TestWorkerSpanGrafting:
    def test_worker_spans_land_under_coordinator_root(self, fleet, metrics):
        fleet(2)
        with trace.trace("submit-root") as root:
            with DistributedExecutor(name="t", policy=FAST) as ex:
                assert ex.submit(_tasks(6)) == [i * i for i in range(6)]
        submit = root.find("exec.submit")
        assert submit is not None, "submit span missing under the trace root"
        task_spans = _named(submit, "exec.task")
        assert len(task_spans) == 6
        # Every grafted span names its executing worker, and both
        # loopback workers contributed.
        workers = {s.attrs.get("worker") for s in task_spans}
        assert all(workers)
        assert workers <= {"w0", "w1"}
        assert {s.attrs.get("task") for s in task_spans} == {
            f"t{i}" for i in range(6)
        }
        snap = metrics.snapshot()
        assert _sum(snap, "repro_obs_remote_spans_total", engine="t") == 6

    def test_retry_annotated_and_retried_task_still_grafts(
        self, fleet, metrics
    ):
        with _FLAKY_LOCK:
            _FLAKY_CALLS.clear()
        fleet(2)
        with trace.trace("retry-root") as root:
            with DistributedExecutor(name="t", policy=FAST) as ex:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert ex.submit(_tasks(4, fn=_flaky_square)) == [
                        i * i for i in range(4)
                    ]
        requeues = _named(root, "exec.requeue")
        assert any(s.attrs.get("reason") == "error" for s in requeues)
        # The second attempt succeeded on a worker, so its span came home
        # with an attempt number above 1.
        task_spans = _named(root, "exec.task")
        assert task_spans
        assert any(s.attrs.get("attempt", 1) > 1 for s in task_spans)
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_net_requeues_total", engine="t", reason="error"
        ) > 0

    def test_straggler_duplicate_dispatch_annotated(self, fleet, metrics):
        fleet(2)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            worker_timeout=2.0,
            straggler_fraction=0.1,
        )
        tasks = [
            ShardTask(key=f"t{i}", fn=_sleep_square, args=(i, delay))
            for i, delay in enumerate((0.0, 0.0, 0.0, 0.5))
        ]
        with trace.trace("straggler-root") as root:
            with DistributedExecutor(name="t", policy=policy) as ex:
                assert ex.submit(tasks) == [0, 1, 4, 9]
        stragglers = _named(root, "exec.straggler")
        assert stragglers, "straggler duplicate dispatch left no span"
        assert all(s.attrs.get("worker") for s in stragglers)
        assert all(s.wall_s == 0.0 for s in stragglers)  # annotations
        snap = metrics.snapshot()
        assert _sum(snap, "repro_exec_net_stragglers_total", engine="t") > 0


# --------------------------------------------------------------------- #
class TestChaosBitIdentity:
    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_traced_results_bit_identical_under_chaos(
        self, mode, fleet, metrics, monkeypatch
    ):
        fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", mode)
        # Bit-identity is all that is asserted, so the windows are as
        # short as the modes allow: hang (0.3 s) > heartbeat timeout.
        monkeypatch.setenv("REPRO_EXEC_HB_TIMEOUT_S", "0.2")
        policy = ExecPolicy(
            retry=FAST.retry, worker_timeout=0.5, quarantine_after=2
        )
        oracle = [i * i for i in range(4)]
        with trace.trace(f"chaos-{mode}") as root:
            with DistributedExecutor(name="t", policy=policy) as ex:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert ex.submit(_tasks(4)) == oracle
        # Tracing must never perturb results; the tree still shows the
        # submit and any worker spans that made it home carry their ids.
        assert root.find("exec.submit") is not None
        for s in _named(root, "exec.task"):
            assert s.attrs.get("worker")


# --------------------------------------------------------------------- #
class TestTelemetryBackpressure:
    @pytest.mark.parametrize("mode", ["delay", "partition"])
    def test_chaos_drops_telemetry_never_tasks(
        self, mode, metrics, fleet, monkeypatch
    ):
        # A 4-record buffer against a 200-record flood per task: the
        # plane must shed load.  Chaos hang stays under the heartbeat
        # timeout so the fabric itself sees zero failures.
        monkeypatch.setenv("REPRO_OBS_TELEMETRY_BUFFER", "4")
        fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", mode)
        # The 0.3 s hang stays under the (conftest's generous) heartbeat
        # timeout, so the only casualty can be telemetry.
        with DistributedExecutor(name="t", policy=FAST) as ex:
            assert ex.submit(_tasks(4, fn=_chatty_square)) == [
                i * i for i in range(4)
            ]
            assert ex.last_submit_failures == 0
        snap = metrics.snapshot()
        assert _sum(snap, "repro_obs_telemetry_dropped_total") > 0
        assert _sum(snap, "repro_exec_tasks_quarantined_total") == 0

    def test_forwarded_metrics_merge_as_fleet_families(self, metrics, fleet):
        fleet(1)
        with DistributedExecutor(name="t", policy=FAST) as ex:
            assert ex.submit(_tasks(4)) == [i * i for i in range(4)]
            # Give the 50ms heartbeat a moment to carry the delta home.
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                snap = metrics.snapshot()
                if any(
                    name.startswith("repro_fleet_") for name in snap
                ):
                    break
                time.sleep(0.05)
        snap = metrics.snapshot()
        fleet_families = [n for n in snap if n.startswith("repro_fleet_")]
        assert fleet_families, "no forwarded worker metrics merged"
        # Every fleet sample is stamped with the worker that produced it.
        for name in fleet_families:
            for sample in snap[name]["samples"]:
                assert sample["labels"].get("worker") == "w0"
