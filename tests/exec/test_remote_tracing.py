"""Worker span grafting over the fleet fixture's socketpair workers.

The trace plane's end-to-end contract: worker ``exec.task`` spans
(including retries) graft back under
the submitting trace root, and tracing never perturbs a result — under
chaos too.
"""

from __future__ import annotations

import importlib
import pickle
import threading
import warnings

import pytest

from repro.exec import ExecPolicy, ShardTask
from repro.resilience.retry import RetryPolicy

trace = importlib.import_module("repro.obs.trace")

FAST = ExecPolicy(
    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    worker_timeout=2.0,
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


def _tasks(n=6, fn=_square):
    return [
        ShardTask(key=f"t{i}", fn=fn, args=(i,), fallback=lambda i=i: i * i)
        for i in range(n)
    ]


def _submit(coordinator, tasks, policy=FAST):
    return coordinator.submit(
        "s", pickle.dumps((None, ())), tasks, policy, engine="t"
    )


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
pytestmark = pytest.mark.usefixtures("fast_heartbeats")


# --------------------------------------------------------------------- #
class TestWorkerSpanGrafting:
    def test_worker_spans_land_under_coordinator_root(self, fleet, metrics):
        coordinator = fleet(2)
        with trace.trace("submit-root") as root:
            assert _submit(coordinator, _tasks(6)) == [i * i for i in range(6)]
        task_spans = _named(root, "exec.task")
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
        coordinator = fleet(2)
        with trace.trace("retry-root") as root:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert _submit(coordinator, _tasks(4, fn=_flaky_square)) == [
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

# --------------------------------------------------------------------- #
class TestChaosBitIdentity:
    # ``kill`` would end the test process: these workers are threads.
    @pytest.mark.parametrize("mode", ["hang", "raise", "corrupt"])
    def test_traced_results_bit_identical_under_chaos(
        self, mode, fleet, metrics, monkeypatch
    ):
        coordinator = fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", mode)
        # Bit-identity is all that is asserted, so the windows are as
        # short as the modes allow: the 0.3 s hang outlives the deadline.
        policy = ExecPolicy(retry=FAST.retry, worker_timeout=0.2)
        oracle = [i * i for i in range(4)]
        with trace.trace(f"chaos-{mode}") as root:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert _submit(coordinator, _tasks(4), policy) == oracle
        # Tracing must never perturb results; the tree still shows the
        # fallback and any worker spans that made it home carry their ids.
        assert root.find("exec.fallback") is not None
        for s in _named(root, "exec.task"):
            assert s.attrs.get("worker")
