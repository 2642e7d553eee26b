"""Execution-fabric test fixtures.

Every test in this package runs under a hard SIGALRM deadline — the suite
exists to crash, hang, and corrupt workers on purpose, and a supervision
bug must fail CI loudly instead of wedging it (stdlib substitute for
pytest-timeout).
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.exec import Coordinator, run_worker
from repro.exec import coordinator as coordinator_mod
from repro.obs.metrics import MetricsRegistry, set_registry

#: per-test wall-clock budget; generous next to the suite's sub-second
#: worker timeouts so only a genuine supervision hang trips it
DEADLINE_S = 20


@pytest.fixture(autouse=True)
def _test_deadline():
    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {DEADLINE_S}s deadline — a worker hang "
            f"escaped the fabric's supervision"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Chaos is opt-in per test; never inherit it from the environment."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_HANG_S", raising=False)
    monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXEC_COORD", raising=False)
    monkeypatch.delenv("REPRO_EXEC_CONNECT_TIMEOUT_S", raising=False)
    monkeypatch.delenv("REPRO_EXEC_HB_INTERVAL_S", raising=False)
    monkeypatch.delenv("REPRO_EXEC_HB_TIMEOUT_S", raising=False)
    monkeypatch.delenv("REPRO_EXEC_TOKEN", raising=False)


@pytest.fixture(autouse=True)
def _fresh_coordinator():
    """Tear the process-global coordinator down so tests never share one."""
    yield
    from repro.exec import shutdown_coordinator

    shutdown_coordinator()


@pytest.fixture()
def metrics():
    """A fresh process-default metrics registry for one test."""
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


@pytest.fixture()
def fast_net(monkeypatch):
    """Fast heartbeats and a short connect window, so failure paths drain
    in well under a second; the heartbeat *timeout* stays generous — only
    the tests that partition a worker on purpose shorten it."""
    monkeypatch.setenv("REPRO_EXEC_HB_INTERVAL_S", "0.05")
    monkeypatch.setenv("REPRO_EXEC_HB_TIMEOUT_S", "5.0")
    monkeypatch.setenv("REPRO_EXEC_CONNECT_TIMEOUT_S", "2.0")
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "0.3")


@pytest.fixture()
def fleet(fast_net, monkeypatch):
    """``fleet(n)``: a private loopback coordinator plus ``n`` in-thread
    workers named ``w0..``, torn down hard.

    The coordinator is this test's own — bound here, closed here — and
    installed as the process-global one for the test's duration so
    engines asking for the ``socket`` backend reach it.
    """
    stop = threading.Event()
    threads: list[threading.Thread] = []
    coordinator = Coordinator(("127.0.0.1", 0))
    monkeypatch.setattr(coordinator_mod, "_coordinator", coordinator)

    def start(n=2):
        for i in range(n):
            t = threading.Thread(
                target=run_worker,
                args=(coordinator.address,),
                kwargs={"worker_id": f"w{i}", "stop": stop},
                daemon=True,
            )
            t.start()
            threads.append(t)
        assert coordinator.wait_for_workers(5.0, minimum=n)
        return coordinator

    yield start
    stop.set()
    coordinator.close()
    for t in threads:
        t.join(timeout=5.0)
