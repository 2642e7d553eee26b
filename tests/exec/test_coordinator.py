"""Coordinator tests: worker registry, ladder rungs and the trust boundary.

In-thread :func:`~repro.exec.worker.serve_connection` loops on
``socketpair`` ends stand in for forked workers — the same worker loop
and frames, minus the fork — and hand-driven peers play rogue workers.
Tests call :meth:`Coordinator.submit` directly.  ``kill`` chaos needs a
real process and lives in ``test_executor.py`` / ``test_chaos_engines.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import importlib
import pickle
import socket
import struct
import threading
import time
import warnings
import zlib

import pytest

from repro.exec import ExecPolicy, ShardTask
from repro.exec import coordinator as coordinator_mod
from repro.exec import net as net_mod
from repro.exec.worker import serve_connection
from repro.resilience.retry import RetryPolicy
from tests.exec.test_net import FLAGS, Bomb

trace = importlib.import_module("repro.obs.trace")

KEY = coordinator_mod._LOCAL_KEY

FAST = ExecPolicy(
    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    worker_timeout=2.0,
)

_INIT_STATE: dict = {}


def _set_state(value):
    _INIT_STATE["value"] = value


def _read_state(x):
    return (_INIT_STATE.get("value"), x)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"injected failure for {x}")


def _tasks(n=8, fn=_square):
    return [
        ShardTask(key=f"t{i}", fn=fn, args=(i,), fallback=lambda i=i: i * i)
        for i in range(n)
    ]


def _submit(coordinator, tasks, policy=FAST, *, session="s", init=(None, ())):
    return coordinator.submit(
        session, pickle.dumps(init), tasks, policy, engine="t"
    )


# --------------------------------------------------------------------- #
pytestmark = pytest.mark.usefixtures("fast_heartbeats")


def _sum(snapshot, name, **labels):
    total = 0.0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


# --------------------------------------------------------------------- #
class TestHappyPath:
    def test_dispatch_order_and_results(self, fleet, metrics):
        coordinator = fleet(2)
        assert _submit(coordinator, _tasks(8)) == [i * i for i in range(8)]
        assert coordinator.last_submit_failures == 0
        assert coordinator.worker_count() == 2
        snap = metrics.snapshot()
        assert _sum(snap, "repro_exec_net_dispatches_total", engine="t") >= 8

    def test_initializer_reruns_on_session_switch(self, fleet):
        coordinator = fleet(1)
        tasks = [ShardTask(key=f"t{i}", fn=_read_state, args=(i,)) for i in range(2)]
        assert _submit(
            coordinator, tasks, session="a", init=(_set_state, ("alpha",))
        ) == [("alpha", 0), ("alpha", 1)]
        assert _submit(
            coordinator, tasks, session="b", init=(_set_state, ("beta",))
        ) == [("beta", 0), ("beta", 1)]

    def test_a_task_sent_before_the_worker_ran_is_answered(
        self, fleet, adopt_peer, monkeypatch
    ):
        # A worker is registered before it runs, so a submit can send its
        # ``init`` and ``task`` first: they wait in the socket, and the
        # heartbeat-silence rung leaves a worker that has not spoken yet
        # alone for a whole timeout.
        monkeypatch.setattr(net_mod, "HB_TIMEOUT_S", 1.0)
        coordinator = fleet(0)
        sock = adopt_peer(coordinator, "late")

        def late_start():
            time.sleep(0.5)
            with sock, contextlib.suppress(EOFError, OSError):
                serve_connection(sock, "late", KEY)

        late = threading.Thread(target=late_start, daemon=True)
        late.start()
        try:
            assert _submit(
                coordinator, _tasks(2), init=(_set_state, ("late",))
            ) == [0, 1]
            assert coordinator.last_submit_failures == 0
        finally:
            coordinator.close()
            late.join(timeout=5.0)

    def test_task_errors_retry_then_rescue(self, fleet, metrics):
        coordinator = fleet(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _submit(coordinator, _tasks(4, fn=_boom)) == [0, 1, 4, 9]
        assert coordinator.last_submit_failures > 0
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_net_requeues_total", engine="t", reason="error"
        ) > 0


# --------------------------------------------------------------------- #
class TestDegradationLadder:
    def test_corrupt_results_fail_integrity_then_rescue(
        self, fleet, metrics, monkeypatch
    ):
        coordinator = fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", "corrupt")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _submit(coordinator, _tasks(4)) == [0, 1, 4, 9]
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_integrity_failures_total", backend="forkpool"
        ) > 0
        assert _sum(
            snap, "repro_exec_net_requeues_total", engine="t", reason="integrity"
        ) > 0


# --------------------------------------------------------------------- #
def _closed_by_peer(sock, within=3.0) -> bool:
    sock.settimeout(within)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except OSError:  # reset rather than a clean FIN
        return True


class TestTrustBoundary:
    """The coordinator does not trust its peer (see docs/architecture.md)."""

    @pytest.fixture(autouse=True)
    def _bomb_stays_unexploded(self):
        FLAGS.clear()
        yield
        assert FLAGS == [], "an unauthenticated peer reached pickle.loads"

    @pytest.mark.parametrize("forgery", ["tampered", "unsigned", "oversized"])
    def test_forged_first_frame_is_dropped_before_unpickle(
        self, fleet, adopt_peer, metrics, forgery
    ):
        coordinator = fleet(0)
        bomb = pickle.dumps(("heartbeat", Bomb()))
        if forgery == "tampered":
            good = pickle.dumps(("heartbeat", "w"))
            frame = struct.pack("!I", len(bomb)) + hmac.digest(
                KEY, good, hashlib.sha256
            ) + bomb
        elif forgery == "unsigned":  # the pre-HMAC len|crc|payload frame
            frame = struct.pack("!II", len(bomb), zlib.crc32(bomb)) + bomb
            frame += b"\0" * 64
        else:  # correctly signed, but announced beyond any frame's bound
            frame = struct.pack(
                "!I", net_mod.MAX_FRAME_BYTES + 1
            ) + hmac.digest(KEY, bomb, hashlib.sha256) + bomb
        with adopt_peer(coordinator, "w") as sock:
            sock.sendall(frame)
            assert _closed_by_peer(sock)
        assert coordinator.worker_count() == 0
        assert _sum(
            metrics.snapshot(), "repro_exec_integrity_failures_total",
            engine="coordinator",
        ) == 1

    def test_worker_with_the_wrong_key_is_dropped(self, fleet, adopt_peer):
        coordinator = fleet(0)
        with adopt_peer(coordinator, "w") as sock:
            net_mod.send_frame(
                sock, ("heartbeat", "w"), b"not-the-coordinators"
            )
            assert _closed_by_peer(sock)
        assert coordinator.worker_count() == 0


def _rogue_worker(sock, replies):
    """Answers every task with ``replies(task)``."""
    with sock, contextlib.suppress(EOFError, OSError):
        while True:
            message = net_mod.recv_frame(sock, KEY)
            if message[0] == "task":
                for reply in replies(message):
                    net_mod.send_frame(sock, reply, KEY)


@contextlib.contextmanager
def _rogue(coordinator, adopt_peer, replies):
    """One registered rogue peer for the duration of the block."""
    rogue = threading.Thread(
        target=_rogue_worker, args=(adopt_peer(coordinator, "rogue"), replies),
        daemon=True,
    )
    rogue.start()
    try:
        yield
    finally:
        coordinator.close()
        rogue.join(timeout=5.0)


class TestMalformedFrames:
    """Bug fix: a registered worker's malformed frame used to raise
    TypeError out of the submit loop."""

    @pytest.mark.parametrize(
        "replies",
        [
            lambda task: [("result", task[1], task[2])],
            lambda task: [("result", task[1], "zero", task[4], 0, b"", None)],
            lambda task: [("result", task[1], task[2], None, 0, b"", None)],
            lambda task: [("error", task[1], task[2], task[4])],
            lambda task: [("error", task[1], [task[2]], task[4], "x", None)],
            lambda task: [("surprise", 1, 2, 3), "not even a tuple"],
        ],
        ids=["short-result", "str-index", "none-attempt", "short-error",
             "list-index", "unknown-kind"],
    )
    def test_malformed_reply_is_dropped_and_the_task_requeued(
        self, fleet, adopt_peer, metrics, replies
    ):
        coordinator = fleet(0)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            worker_timeout=0.2,
        )
        with _rogue(coordinator, adopt_peer, replies):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert _submit(coordinator, _tasks(1), policy) == [0]
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_obs_telemetry_malformed_total", worker="rogue"
        ) >= 1
        assert _sum(
            snap, "repro_exec_net_requeues_total", reason="deadline"
        ) == 1

    def test_corrupt_span_blob_still_returns_the_result(
        self, fleet, adopt_peer, metrics
    ):
        def honest_but_garbled(task):
            fn, args = pickle.loads(task[5])
            crc, payload = net_mod.seal(fn(*args))
            return [("result", task[1], task[2], task[4], crc, payload,
                     {"children": 7})]

        coordinator = fleet(0)
        with _rogue(coordinator, adopt_peer, honest_but_garbled):
            with trace.trace("root", register_last=False):
                assert _submit(coordinator, _tasks(3)) == [0, 1, 4]
                assert coordinator.last_submit_failures == 0
        assert _sum(
            metrics.snapshot(), "repro_obs_telemetry_malformed_total",
            worker="rogue",
        ) == 3

    def test_out_of_range_index_is_stale_not_fatal(
        self, fleet, adopt_peer, metrics
    ):
        coordinator = fleet(0)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            worker_timeout=0.2,
        )

        def out_of_range(task):
            return [
                ("result", task[1], 10**6, task[4], 0, b"", None),
                ("result", task[1], -1, task[4], 0, b"", None),
            ]

        with _rogue(coordinator, adopt_peer, out_of_range):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert _submit(coordinator, _tasks(1), policy) == [0]
        assert _sum(
            metrics.snapshot(), "repro_exec_net_stale_results_total"
        ) == 2
