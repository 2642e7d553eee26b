"""Unit tests for the execution fabric itself (policy, supervision, chaos)."""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from repro.exec import (
    ChaosSpec,
    ExecPolicy,
    ForkPoolExecutor,
    InProcessExecutor,
    ShardTask,
    make_executor,
    resolve_exec_backend,
)
from repro.exec.chaos import ChaosInjectedError
from repro.exec.shm import pid_alive
from repro.resilience.errors import ConfigError, ResultIntegrityError
from repro.resilience.retry import RetryPolicy

FAST = ExecPolicy(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
NO_SLEEP = lambda s: None  # noqa: E731


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"injected failure for {x}")


def _die(x):
    os._exit(1)


def _raise_typed():
    raise FileNotFoundError("typed failure")


def _sleep_square(x, delay):
    time.sleep(delay)
    return x * x


def _tasks(n=4, fn=_square):
    return [ShardTask(key=f"t{i}", fn=fn, args=(i,)) for i in range(n)]


# --------------------------------------------------------------------- #
class TestBackendResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
        assert resolve_exec_backend("forkpool") == "forkpool"

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "inprocess")
        assert resolve_exec_backend(None, default="forkpool") == "inprocess"
        assert resolve_exec_backend("auto", default="forkpool") == "inprocess"

    def test_default_applies_when_unset(self):
        assert resolve_exec_backend(None, default="forkpool") == "forkpool"
        assert resolve_exec_backend(None, default="inprocess") == "inprocess"

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigError):
            resolve_exec_backend("threads")
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "threads")
        with pytest.raises(ConfigError):
            resolve_exec_backend(None)

    def test_make_executor_kinds(self):
        assert isinstance(make_executor("inprocess"), InProcessExecutor)
        fork = make_executor("forkpool", max_workers=1)
        try:
            assert isinstance(fork, ForkPoolExecutor)
        finally:
            fork.close()


class TestPolicyValidation:
    def test_quarantine_after_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExecPolicy(quarantine_after=0)

    def test_worker_timeout_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExecPolicy(worker_timeout=-1.0)

    def test_task_without_fn_or_fallback_rejected(self):
        with pytest.raises(ValueError, match="neither fn nor fallback"):
            ShardTask(key="empty").run_fallback()


class TestChaosSpec:
    def test_from_env_off_by_default(self):
        assert ChaosSpec.from_env() is None

    def test_parse_mode_and_rate(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.25")
        spec = ChaosSpec.from_env()
        assert spec.mode == "raise" and spec.rate == 0.25

    @pytest.mark.parametrize("raw", ["explode", "kill:2.0", "raise:x"])
    def test_invalid_specs_rejected(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", raw)
        with pytest.raises(ConfigError):
            ChaosSpec.from_env()

    def test_rolls_are_deterministic_and_attempt_dependent(self):
        spec = ChaosSpec(mode="raise", rate=0.5, seed=7)
        rolls = [spec.should_inject("task", a) for a in range(64)]
        assert rolls == [ChaosSpec(mode="raise", rate=0.5, seed=7).should_inject("task", a) for a in range(64)]
        assert any(rolls) and not all(rolls)


# --------------------------------------------------------------------- #
class TestInProcess:
    def test_runs_fallbacks_in_task_order(self):
        order = []
        tasks = [
            ShardTask(key=f"t{i}", fallback=lambda i=i: order.append(i) or i)
            for i in range(5)
        ]
        assert InProcessExecutor().submit(tasks) == [0, 1, 2, 3, 4]
        assert order == [0, 1, 2, 3, 4]

    def test_failures_propagate_immediately(self):
        with pytest.raises(RuntimeError, match="injected"):
            InProcessExecutor().submit(_tasks(fn=_boom))


class TestForkPool:
    def test_results_in_task_order(self):
        with ForkPoolExecutor(2, name="t", policy=FAST, sleep=NO_SLEEP) as ex:
            assert ex.submit(_tasks(6)) == [0, 1, 4, 9, 16, 25]

    def test_ndarray_results_bit_identical(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((128, 16))
        with ForkPoolExecutor(2, name="t", policy=FAST, sleep=NO_SLEEP) as ex:
            (result,) = ex.submit(
                [ShardTask(key="a", fn=_square, args=(arr,))]
            )
        np.testing.assert_array_equal(result, arr * arr)

    def test_permanent_failure_rescued_via_fallback(self):
        tasks = [
            ShardTask(key=f"t{i}", fn=_boom, args=(i,), fallback=lambda i=i: -i)
            for i in range(3)
        ]
        with ForkPoolExecutor(2, name="t", policy=FAST, sleep=NO_SLEEP) as ex:
            with pytest.warns(ResourceWarning, match="serially"):
                assert ex.submit(tasks) == [0, -1, -2]
            assert ex.last_submit_failures > 0

    def test_no_fallback_reraises_last_worker_error(self):
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            serial_fallback=False,
        )
        with ForkPoolExecutor(1, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(RuntimeError, match="injected failure"):
                    ex.submit(_tasks(2, fn=_boom))

    def test_exhausted_error_factory_types_the_error(self):
        class Custom(RuntimeError):
            pass

        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            serial_fallback=False,
            exhausted_error=lambda tasks, rounds, exc: Custom(
                f"{len(tasks)} tasks dead after {rounds} rounds"
            ),
        )
        with ForkPoolExecutor(1, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.raises(Custom, match="dead after 1 rounds"):
                ex.submit(_tasks(2, fn=_boom))

    def test_quarantine_pulls_poison_task(self):
        # One worker-killing task among good ones: quarantine after 1 death
        # must rescue it through its fallback without burning the whole
        # failure budget (and four more workers).
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.0),
            quarantine_after=1,
        )
        tasks = _tasks(3)
        tasks.append(
            ShardTask(key="poison", fn=_die, args=(9,), fallback=lambda: 81)
        )
        with ForkPoolExecutor(2, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.warns(ResourceWarning, match="quarantin"):
                assert ex.submit(tasks) == [0, 1, 4, 81]

    def test_timeout_kills_wedged_worker_and_rescues(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang")
        monkeypatch.setenv("REPRO_CHAOS_HANG_S", "30")
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            worker_timeout=0.2,
        )
        with ForkPoolExecutor(1, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.warns(ResourceWarning):
                assert ex.submit(_tasks(2)) == [0, 1]
            assert ex.last_submit_failures == 4
        # Every hung worker was killed and reaped, not left sleeping.
        assert multiprocessing.active_children() == []

    def test_integrity_failure_detected_and_rescued(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt")
        policy = ExecPolicy(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        with ForkPoolExecutor(2, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.warns(ResourceWarning):
                assert ex.submit(_tasks(3)) == [0, 1, 4]

    def test_integrity_error_surfaces_without_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt")
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            serial_fallback=False,
        )
        with ForkPoolExecutor(1, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.raises(ResultIntegrityError):
                ex.submit(_tasks(1))

    def test_killed_worker_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill")
        with ForkPoolExecutor(2, name="t", policy=FAST, sleep=NO_SLEEP) as ex:
            with pytest.warns(ResourceWarning):
                assert ex.submit(_tasks(3)) == [0, 1, 4]

    def test_partial_chaos_rate_recovers_within_retries(self, monkeypatch):
        # At rate 0.5 a retried task gets an independent roll each attempt,
        # so with enough rounds every task eventually runs clean — no
        # fallback warning required, results still exact.
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "11")
        policy = ExecPolicy(retry=RetryPolicy(max_attempts=8, base_delay=0.0))
        with ForkPoolExecutor(2, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert ex.submit(_tasks(4)) == [0, 1, 4, 9]

    def test_close_is_idempotent_and_reusable(self):
        ex = ForkPoolExecutor(1, name="t", policy=FAST, sleep=NO_SLEEP)
        assert ex.submit(_tasks(2)) == [0, 1]
        ex.close()
        ex.close()
        assert ex.submit(_tasks(2)) == [0, 1]
        ex.close()

    def test_heartbeats_recorded(self, monkeypatch):
        # Forked workers are watched like remote ones: heartbeat frames
        # over their socket, recorded per connection.
        monkeypatch.setenv("REPRO_EXEC_HB_INTERVAL_S", "0.02")
        with ForkPoolExecutor(2, name="t", policy=FAST, sleep=NO_SLEEP) as ex:
            ex.submit(_tasks(2))
            workers = ex._pool.workers()
            assert len(workers) == 2
            assert all(w.pid != os.getpid() and pid_alive(w.pid) for w in workers)
            registered = {w.id: w.last_hb for w in workers}
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                w.last_hb == registered[w.id] for w in workers
            ):
                time.sleep(0.01)
            assert all(w.last_hb > registered[w.id] for w in workers)

    def test_pool_rebuild_prunes_replaced_worker_heartbeats(self, monkeypatch):
        """Regression: dead workers must not linger in the registry.

        Chaos-killed workers are replaced one by one; what the parent
        tracks (the connections whose heartbeats it records) must be the
        live fleet only, never the pids it replaced.
        """
        monkeypatch.setenv("REPRO_CHAOS", "kill:0.5")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1")
        policy = ExecPolicy(retry=RetryPolicy(max_attempts=8, base_delay=0.0))
        with ForkPoolExecutor(2, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(3):
                    assert ex.submit(_tasks(4)) == [0, 1, 4, 9]
            pool = ex._pool
            assert pool.wait_for_workers(5.0, minimum=2)
            workers = pool.workers()
            assert len(workers) == 2, "replaced, not accumulated"
            assert all(pid_alive(w.pid) for w in workers)
            assert ex.last_submit_failures > 0, (
                "the seed never killed a worker; the test checked nothing"
            )

    def test_worker_exception_type_survives_the_wire(self):
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            serial_fallback=False,
        )
        with ForkPoolExecutor(1, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            with pytest.raises(FileNotFoundError, match="typed"):
                ex.submit([ShardTask(key="x", fn=_raise_typed)])

    def test_straggler_twin_runs_on_the_fork_transport_too(self, metrics):
        # straggler_fraction is one ladder rung, not a socket-only one.
        policy = ExecPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            worker_timeout=5.0,
            straggler_fraction=0.02,
        )
        tasks = [
            ShardTask(key=f"t{i}", fn=_sleep_square, args=(i, delay))
            for i, delay in enumerate((0.0, 0.0, 0.0, 0.5))
        ]
        with ForkPoolExecutor(2, name="t", policy=policy, sleep=NO_SLEEP) as ex:
            assert ex.submit(tasks) == [0, 1, 4, 9]
            assert ex.last_submit_failures == 0
        samples = metrics.snapshot()["repro_exec_net_stragglers_total"]["samples"]
        assert [s["labels"]["backend"] for s in samples] == ["forkpool"]
        assert samples[0]["value"] >= 1
        # The losing copy's worker did not outlive the submit.
        assert multiprocessing.active_children() == []


class TestMetrics:
    def test_recovery_events_counted(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        old = set_registry(fresh)
        try:
            # A killed worker (unlike a raising task) also costs a restart.
            monkeypatch.setenv("REPRO_CHAOS", "kill")
            with ForkPoolExecutor(2, name="m", policy=FAST, sleep=NO_SLEEP) as ex:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ex.submit(
                        [
                            ShardTask(
                                key=f"t{i}",
                                fn=_square,
                                args=(i,),
                                fallback=lambda i=i: i * i,
                            )
                            for i in range(2)
                        ]
                    )
            snap = fresh.snapshot()
            for name in (
                "repro_exec_tasks_total",
                "repro_exec_task_retries_total",
                "repro_exec_worker_restarts_total",
                "repro_exec_fallbacks_total",
            ):
                samples = snap[name]["samples"]
                assert sum(s["value"] for s in samples) > 0, name
            text = fresh.render_prometheus()
            assert 'repro_exec_fallbacks_total{engine="m",backend="forkpool"}' in text
        finally:
            set_registry(old)

    def test_chaos_error_is_runtime_error(self):
        assert issubclass(ChaosInjectedError, RuntimeError)
