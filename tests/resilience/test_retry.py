"""Backoff schedule and circuit-breaker behaviour."""

import pytest

from repro.resilience.retry import CircuitBreaker, CircuitOpenError, RetryPolicy


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, backoff=2.0)
        assert [policy.delay(a) for a in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay=1.0, backoff=10.0, max_delay=3.0)
        assert policy.delay(4) == 3.0

    def test_delay_capped_past_float_range(self):
        # ``2.0 ** 1024`` leaves float range: the schedule must sit at its
        # cap there, not raise out of the ladder that asked for a delay.
        policy = RetryPolicy(max_attempts=5000)
        assert [policy.delay(k) for k in (1025, 1100, 5000, 10**6)] == [
            policy.max_delay
        ] * 4
        assert RetryPolicy(base_delay=0.0).delay(1100) == 0.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["base_delay", "max_delay", "backoff"])
    def test_rejects_non_finite_schedule(self, name, value):
        # A ``nan`` delay passes ``< 0`` and puts a failed task's next
        # attempt at ``nan``, which no clock ever reaches: the submit that
        # waits for it never ends.
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(**{name: value})


class TestCircuitBreaker:
    def _failing(self):
        raise RuntimeError("dependency down")

    def test_opens_after_threshold(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10, clock=lambda: clock[0])
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(self._failing)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5, clock=lambda: clock[0])
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        assert breaker.state == "open"
        clock[0] = 6.0
        assert breaker.state == "half-open"
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5, clock=lambda: clock[0])
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        clock[0] = 6.0
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        assert breaker.state == "open"

    def test_half_open_admits_exactly_one_probe(self):
        import threading

        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5, clock=lambda: clock[0])
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        clock[0] = 6.0
        assert breaker.state == "half-open"

        probe_running = threading.Event()
        release_probe = threading.Event()
        probe_result = {}

        def slow_ok():
            probe_running.set()
            release_probe.wait(timeout=10)
            return "ok"

        probe = threading.Thread(
            target=lambda: probe_result.setdefault("value", breaker.call(slow_ok))
        )
        probe.start()
        assert probe_running.wait(timeout=10)
        # While the probe is in flight every other caller fails fast
        # instead of also hitting the (possibly still broken) dependency.
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "burst")
        release_probe.set()
        probe.join(timeout=10)
        assert probe_result["value"] == "ok"
        assert breaker.state == "closed"
        breaker.call(lambda: "now admitted")

    def test_half_open_probe_slot_released_on_failure(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5, clock=lambda: clock[0])
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        clock[0] = 6.0
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)  # failed probe re-opens
        assert breaker.state == "open"
        clock[0] = 12.0
        assert breaker.state == "half-open"
        assert breaker.call(lambda: "ok") == "ok"  # next probe is admitted

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        breaker.call(lambda: "ok")
        with pytest.raises(RuntimeError):
            breaker.call(self._failing)
        assert breaker.state == "closed"


class TestCircuitBreakerThreadSafety:
    """The breaker is shared across server worker threads (PR 2)."""

    def test_concurrent_failures_never_lose_updates(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=10_000, reset_timeout=10)
        n_threads, per_thread = 8, 250

        def hammer():
            for _ in range(per_thread):
                breaker.record_failure()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.failures == n_threads * per_thread
        assert breaker.state == "closed"  # threshold not reached

    def test_concurrent_calls_eventually_open_and_fail_fast(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=1000)
        outcomes = []
        lock = threading.Lock()

        def caller():
            for _ in range(20):
                try:
                    breaker.call(self._raise)
                except CircuitOpenError:
                    with lock:
                        outcomes.append("open")
                except RuntimeError:
                    with lock:
                        outcomes.append("failed")

        threads = [threading.Thread(target=caller) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every call was answered one way or the other, and once open the
        # dependency stopped being hammered.
        assert len(outcomes) == 6 * 20
        assert breaker.state == "open"
        assert outcomes.count("open") > 0

    @staticmethod
    def _raise():
        raise RuntimeError("dependency down")

    def test_state_transitions_race_free_with_mixed_traffic(self):
        import threading

        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=5, clock=lambda: clock[0]
        )
        barrier = threading.Barrier(4)

        def mixed(succeed: bool):
            barrier.wait()
            for _ in range(100):
                try:
                    breaker.call((lambda: "ok") if succeed else self._raise)
                except (RuntimeError, CircuitOpenError):
                    pass

        threads = [
            threading.Thread(target=mixed, args=(i % 2 == 0,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # No invariant violations: state is one of the three legal values
        # and the failure counter is non-negative.
        assert breaker.state in {"closed", "open", "half-open"}
        assert breaker.failures >= 0
