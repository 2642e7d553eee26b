"""Distributed backend tests: coordinator, worker fleet, degradation ladder.

Thread-based ``run_worker`` loops stand in for remote hosts — safe for
every *network* chaos mode (none of them call ``os._exit``).  The one
test that needs a worker to die for real spawns ``repro exec-worker``
subprocesses and SIGKILLs one mid-run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import logging
import hmac
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
import zlib
from pathlib import Path

import pytest

from repro.exec import (
    Coordinator,
    DistributedExecutor,
    ExecPolicy,
    ShardTask,
    get_coordinator,
    make_executor,
    shutdown_coordinator,
)
from repro.exec import net as net_mod
from repro.resilience.errors import ConfigError
from repro.resilience.retry import RetryPolicy
from tests.exec.test_net import FLAGS, Bomb

trace = importlib.import_module("repro.obs.trace")

REPO_ROOT = Path(__file__).resolve().parents[2]

FAST = ExecPolicy(
    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    worker_timeout=2.0,
    quarantine_after=2,
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


def sleep_square(x, delay):
    time.sleep(delay)
    return x * x


def _tasks(n=8, fn=_square):
    return [
        ShardTask(key=f"t{i}", fn=fn, args=(i,), fallback=lambda i=i: i * i)
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
pytestmark = pytest.mark.usefixtures("fast_net")


def _sum(snapshot, name, **labels):
    total = 0.0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


# --------------------------------------------------------------------- #
class TestHappyPath:
    def test_dispatch_order_and_results(self, fleet, metrics):
        fleet(2)
        with DistributedExecutor(name="t", policy=FAST) as ex:
            assert ex.kind == "socket"
            assert ex.submit(_tasks(8)) == [i * i for i in range(8)]
            assert ex.last_submit_failures == 0
        snap = metrics.snapshot()
        assert _sum(snap, "repro_exec_net_dispatches_total", engine="t") >= 8
        assert _sum(snap, "repro_exec_net_workers") == 2

    def test_make_executor_builds_socket_backend(self, fleet):
        fleet(1)
        ex = make_executor("socket", name="t", policy=FAST)
        try:
            assert isinstance(ex, DistributedExecutor)
            assert ex.submit(_tasks(4)) == [0, 1, 4, 9]
        finally:
            ex.close()

    def test_initializer_reruns_on_session_switch(self, fleet):
        fleet(1)
        kwargs = dict(initializer=_set_state, policy=FAST)
        tasks = [ShardTask(key=f"t{i}", fn=_read_state, args=(i,)) for i in range(2)]
        with DistributedExecutor(name="a", initargs=("alpha",), **kwargs) as ex:
            assert ex.submit(tasks) == [("alpha", 0), ("alpha", 1)]
        with DistributedExecutor(name="b", initargs=("beta",), **kwargs) as ex:
            assert ex.submit(tasks) == [("beta", 0), ("beta", 1)]

    def test_task_errors_retry_then_rescue(self, fleet, metrics):
        fleet(2)
        with DistributedExecutor(name="t", policy=FAST) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(4, fn=_boom)) == [0, 1, 4, 9]
            assert ex.last_submit_failures > 0
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_net_requeues_total", engine="t", reason="error"
        ) > 0


# --------------------------------------------------------------------- #
class TestDegradationLadder:
    def test_zero_workers_degrades_to_forkpool(self, metrics, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CONNECT_TIMEOUT_S", "0.2")
        with DistributedExecutor(name="t", policy=FAST) as ex:
            with pytest.warns(ResourceWarning, match="degrading"):
                assert ex.submit(_tasks(4)) == [0, 1, 4, 9]
        # Same ladder, other socket source: the submit is accounted to the
        # backend it actually ran on, and nothing was rescued in-process.
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_tasks_total", engine="t", backend="forkpool"
        ) == 4
        assert _sum(snap, "repro_exec_tasks_total", backend="socket") == 0
        assert _sum(snap, "repro_exec_net_dispatches_total", engine="t") == 4
        assert _sum(snap, "repro_exec_fallbacks_total") == 0

    def test_straggler_redispatch_first_result_wins(self, fleet, metrics):
        fleet(2)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            worker_timeout=2.0,
            straggler_fraction=0.1,
        )
        tasks = [
            ShardTask(key=f"t{i}", fn=sleep_square, args=(i, delay))
            for i, delay in enumerate((0.0, 0.0, 0.0, 0.5))
        ]
        with DistributedExecutor(name="t", policy=policy) as ex:
            assert ex.submit(tasks) == [0, 1, 4, 9]
        snap = metrics.snapshot()
        assert _sum(snap, "repro_exec_net_stragglers_total", engine="t") > 0

    def test_disconnect_storm_quarantines_and_rescues(
        self, fleet, metrics, monkeypatch
    ):
        fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", "disconnect")
        with DistributedExecutor(name="t", policy=FAST) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(6)) == [i * i for i in range(6)]
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_net_requeues_total", engine="t", reason="disconnect"
        ) > 0
        assert _sum(
            snap, "repro_exec_tasks_quarantined_total", engine="t",
            backend="socket",
        ) > 0
        assert _sum(
            snap, "repro_exec_fallbacks_total", engine="t", backend="socket"
        ) > 0

    def test_corrupt_results_fail_integrity_then_rescue(
        self, fleet, metrics, monkeypatch
    ):
        fleet(2)
        monkeypatch.setenv("REPRO_CHAOS", "corrupt")
        with DistributedExecutor(name="t", policy=FAST) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(4)) == [0, 1, 4, 9]
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_exec_integrity_failures_total", backend="socket"
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
    """The listener does not trust its peer (see docs/architecture.md)."""

    @pytest.fixture(autouse=True)
    def _bomb_stays_unexploded(self):
        FLAGS.clear()
        yield
        assert FLAGS == [], "an unauthenticated peer reached pickle.loads"

    def test_refuses_to_listen_beyond_loopback_without_a_token(self):
        with pytest.raises(ConfigError, match="REPRO_EXEC_TOKEN"):
            Coordinator(("0.0.0.0", 0))

    def test_cli_exits_2_on_a_non_loopback_coordinator_without_a_token(
        self, monkeypatch, capsys
    ):
        from repro.cli import main

        # main() points the ``repro`` logger at this test's captured
        # stderr; put the logger back so later tests do not log into a
        # closed file.
        logger = logging.getLogger("repro")
        monkeypatch.setattr(logger, "handlers", list(logger.handlers))
        monkeypatch.setattr(logger, "propagate", logger.propagate)
        monkeypatch.setattr(logger, "level", logger.level)
        monkeypatch.setenv("REPRO_EXEC_COORD", "0.0.0.0:7077")
        assert main(["exec-info"]) == 2
        assert "error: ConfigError" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_EXEC_TOKEN", "s3cret")
        assert main(["exec-info"]) == 0

    @pytest.mark.parametrize("forgery", ["tampered", "unsigned", "oversized"])
    def test_forged_first_frame_is_dropped_before_unpickle(
        self, fleet, metrics, forgery
    ):
        coordinator = fleet(0)
        key = net_mod.wire_key()
        bomb = pickle.dumps(("register", Bomb(), 1, "host"))
        if forgery == "tampered":
            good = pickle.dumps(("register", "w", 1, "host"))
            frame = struct.pack("!I", len(bomb)) + hmac.digest(
                key, good, hashlib.sha256
            ) + bomb
        elif forgery == "unsigned":  # the pre-HMAC len|crc|payload frame
            frame = struct.pack("!II", len(bomb), zlib.crc32(bomb)) + bomb
            frame += b"\0" * 64
        else:  # correctly signed, but larger than a stranger may send
            bomb += b"\0" * net_mod.MAX_HELLO_BYTES
            frame = struct.pack("!I", len(bomb)) + hmac.digest(
                key, bomb, hashlib.sha256
            ) + bomb
        with socket.create_connection(coordinator.address) as sock:
            sock.sendall(frame)
            assert _closed_by_peer(sock)
        assert coordinator.worker_count() == 0
        assert _sum(
            metrics.snapshot(), "repro_exec_integrity_failures_total",
            engine="coordinator",
        ) == 1

    def test_worker_with_the_wrong_token_never_registers(
        self, fleet, monkeypatch
    ):
        coordinator = fleet(0)
        monkeypatch.setenv("REPRO_EXEC_TOKEN", "not-the-coordinators")
        with socket.create_connection(coordinator.address) as sock:
            net_mod.send_frame(
                sock, ("register", "w", 1, "host"), net_mod.wire_key()
            )
            assert _closed_by_peer(sock)
        assert coordinator.worker_count() == 0

    def test_silent_peer_is_dropped_at_the_registration_timeout(
        self, fleet, monkeypatch
    ):
        monkeypatch.setattr(net_mod, "REGISTER_TIMEOUT_S", 0.2)
        coordinator = fleet(0)
        start = time.monotonic()
        with socket.create_connection(coordinator.address) as sock:
            assert _closed_by_peer(sock)
        assert time.monotonic() - start < 2.0

    def test_malformed_register_is_counted_and_dropped(self, fleet, metrics):
        coordinator = fleet(0)
        with socket.create_connection(coordinator.address) as sock:
            net_mod.send_frame(sock, ("register", "w"), net_mod.wire_key())
            assert _closed_by_peer(sock)
        assert coordinator.worker_count() == 0
        assert _sum(
            metrics.snapshot(), "repro_obs_telemetry_malformed_total",
            worker="unregistered",
        ) == 1


def _rogue_worker(address, replies):
    """Registers properly, then answers every task with ``replies(task)``."""
    key = net_mod.wire_key()
    with socket.create_connection(address) as sock:
        net_mod.send_frame(sock, ("register", "rogue", os.getpid(), "h"), key)
        with contextlib.suppress(EOFError, OSError):
            while True:
                message = net_mod.recv_frame(sock, key)
                if message[0] == "task":
                    for reply in replies(message):
                        net_mod.send_frame(sock, reply, key)


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
        self, fleet, metrics, replies
    ):
        coordinator = fleet(0)
        rogue = threading.Thread(
            target=_rogue_worker, args=(coordinator.address, replies),
            daemon=True,
        )
        rogue.start()
        assert coordinator.wait_for_workers(5.0)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            worker_timeout=0.2,
        )
        with DistributedExecutor(name="t", policy=policy) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(1)) == [0]
        snap = metrics.snapshot()
        assert _sum(
            snap, "repro_obs_telemetry_malformed_total", worker="rogue"
        ) >= 1
        assert _sum(
            snap, "repro_exec_net_requeues_total", reason="deadline"
        ) == 1
        coordinator.close()
        rogue.join(timeout=5.0)

    def test_corrupt_span_blob_still_returns_the_result(self, fleet, metrics):
        def honest_but_garbled(task):
            fn, args = pickle.loads(task[5])
            crc, payload = net_mod.seal(fn(*args))
            return [("result", task[1], task[2], task[4], crc, payload,
                     {"children": 7})]

        coordinator = fleet(0)
        rogue = threading.Thread(
            target=_rogue_worker, args=(coordinator.address, honest_but_garbled),
            daemon=True,
        )
        rogue.start()
        assert coordinator.wait_for_workers(5.0)
        with trace.trace("root", register_last=False):
            with DistributedExecutor(name="t", policy=FAST) as ex:
                assert ex.submit(_tasks(3)) == [0, 1, 4]
                assert ex.last_submit_failures == 0
        assert _sum(
            metrics.snapshot(), "repro_obs_telemetry_malformed_total",
            worker="rogue",
        ) == 3
        coordinator.close()
        rogue.join(timeout=5.0)

    def test_out_of_range_index_is_stale_not_fatal(self, fleet, metrics):
        coordinator = fleet(0)
        rogue = threading.Thread(
            target=_rogue_worker,
            args=(
                coordinator.address,
                lambda task: [
                    ("result", task[1], 10**6, task[4], 0, b"", None),
                    ("result", task[1], -1, task[4], 0, b"", None),
                ],
            ),
            daemon=True,
        )
        rogue.start()
        assert coordinator.wait_for_workers(5.0)
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            worker_timeout=0.2,
        )
        with DistributedExecutor(name="t", policy=policy) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(1)) == [0]
        assert _sum(
            metrics.snapshot(), "repro_exec_net_stale_results_total"
        ) == 2
        coordinator.close()
        rogue.join(timeout=5.0)


# --------------------------------------------------------------------- #
class TestSubprocessWorkers:
    def _spawn_worker(self, port: int, worker_id: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "exec-worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--worker-id",
                worker_id,
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_one_worker_survivor_completes(self, metrics):
        coordinator = get_coordinator()
        port = coordinator.address[1]
        procs = [self._spawn_worker(port, f"sub-w{i}") for i in range(2)]
        try:
            assert coordinator.wait_for_workers(30.0, minimum=2)
            victim = procs[0]
            killer = threading.Timer(
                0.3, lambda: victim.send_signal(signal.SIGKILL)
            )
            killer.start()
            tasks = [
                ShardTask(key=f"t{i}", fn=sleep_square, args=(i, 0.25))
                for i in range(6)
            ]
            with DistributedExecutor(name="t", policy=FAST) as ex:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert ex.submit(tasks) == [i * i for i in range(6)]
            killer.cancel()
            assert victim.wait(timeout=10.0) != 0
            # The fleet shrank to the survivor.
            assert coordinator.worker_count() == 1
        finally:
            shutdown_coordinator()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                proc.wait(timeout=10.0)
