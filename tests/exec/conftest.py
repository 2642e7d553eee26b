"""Execution-fabric test fixtures.

Every test in this package runs under a hard SIGALRM deadline — the suite
exists to crash, hang, and corrupt workers on purpose, and a supervision
bug must fail CI loudly instead of wedging it (stdlib substitute for
pytest-timeout).
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading

import pytest

from repro.exec import Coordinator
from repro.exec import coordinator as coordinator_mod
from repro.exec import net as net_mod
from repro.exec.worker import serve_connection
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience.errors import ResultIntegrityError

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


@pytest.fixture()
def metrics():
    """A fresh process-default metrics registry for one test."""
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


@pytest.fixture()
def fast_heartbeats(monkeypatch):
    """Fast heartbeats and a short chaos hang, so failure paths drain in
    well under a second; the heartbeat *timeout* stays generous."""
    monkeypatch.setattr(net_mod, "HB_INTERVAL_S", 0.05)
    monkeypatch.setattr(net_mod, "HB_TIMEOUT_S", 5.0)
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "0.3")


def _adopt_peer(coordinator: Coordinator, worker_id: str) -> socket.socket:
    ours, theirs = socket.socketpair()
    coordinator._adopt(ours, worker_id)
    return theirs


@pytest.fixture()
def adopt_peer():
    """``adopt_peer(coordinator, worker_id)``: register one end of a fresh
    ``socketpair`` with ``coordinator`` as worker ``worker_id`` and return
    the other — whatever speaks on it is that worker (tests play rogue
    peers with it)."""
    return _adopt_peer


def _serve(sock: socket.socket, worker_id: str) -> None:
    with sock, contextlib.suppress(OSError, EOFError, ResultIntegrityError):
        serve_connection(sock, worker_id, coordinator_mod._LOCAL_KEY)


@pytest.fixture()
def fleet(fast_heartbeats, monkeypatch):
    """``fleet(n)``: a private coordinator plus ``n`` in-thread workers
    named ``w0..``, each on a ``socketpair``, torn down hard.

    The workers run the real worker loop (:func:`serve_connection`) on
    frames signed with the coordinator's key; tests drive the coordinator
    through :meth:`Coordinator.submit`.  Threads share the test process,
    so no test may inject ``kill`` into them.
    """
    # Nothing respawns a lost in-thread worker, so a submit that has lost
    # them all need not wait the window a forked pool's respawn gets.
    monkeypatch.setattr(coordinator_mod, "_NO_WORKER_GRACE_S", 0.3)
    coordinator = Coordinator()
    threads: list[threading.Thread] = []

    def start(n=2):
        for i in range(n):
            worker_id = f"w{i}"
            t = threading.Thread(
                target=_serve,
                args=(_adopt_peer(coordinator, worker_id), worker_id),
                daemon=True,
            )
            t.start()
            threads.append(t)
        return coordinator

    yield start
    coordinator.close()
    for t in threads:
        t.join(timeout=5.0)
