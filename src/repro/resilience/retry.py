"""Exponential backoff schedule and a circuit breaker.

The fault-tolerance primitives the execution fabric and the serving layer
share: a :class:`RetryPolicy` (the backoff schedule the fabric's
supervision ladder follows) and a :class:`CircuitBreaker` that stops
hammering a dependency that keeps failing.  The breaker's clock is
injectable so tests exercise its timeouts without waiting.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["RetryPolicy", "CircuitBreaker", "CircuitOpenError"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule: delay = ``base_delay * backoff**(attempt - 1)``,
    capped at ``max_delay``, for at most ``max_attempts`` total calls."""

    max_attempts: int = 3
    base_delay: float = 0.1
    backoff: float = 2.0
    max_delay: float = 10.0

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        try:
            growth = self.backoff ** (attempt - 1)
        except OverflowError:
            # Past float range is past every finite cap.
            return self.max_delay if self.base_delay else 0.0
        return min(self.max_delay, self.base_delay * growth)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # ``nan < 0`` is false, so finiteness is its own check: a ``nan``
        # delay would keep a failed task out of every queue for ever.
        if not all(
            math.isfinite(v) for v in (self.base_delay, self.max_delay, self.backoff)
        ):
            raise ValueError("base_delay, max_delay and backoff must be finite")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")


class CircuitOpenError(RuntimeError):
    """The breaker is open: the protected dependency failed too recently."""


class CircuitBreaker:
    """Classic three-state circuit breaker.

    Closed: calls pass through, failures are counted.  After
    ``failure_threshold`` consecutive failures the breaker opens and calls
    fail fast with :class:`CircuitOpenError` until ``reset_timeout``
    seconds elapse, after which exactly one probe call is let through
    (half-open); its success closes the breaker, its failure re-opens it.
    Callers arriving while the probe is still in flight fail fast rather
    than joining it — a burst must not hammer a dependency that has not
    yet proven itself recovered.

    Thread-safe: the failure counter and open-timestamp transitions are
    guarded by a lock, so one breaker may front a dependency shared by many
    server worker threads.  The protected ``fn`` itself runs *outside* the
    lock (it may block arbitrarily long).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False  #: a half-open probe call is in flight

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    @property
    def failures(self) -> int:
        """Consecutive failures recorded since the last success."""
        with self._lock:
            return self._failures

    def call(self, fn: Callable, *args, **kwargs):
        """Invoke ``fn`` through the breaker."""
        with self._lock:
            state = self._state_locked()
            if state == "open":
                raise CircuitOpenError(
                    f"circuit open after {self._failures} consecutive failures"
                )
            if state == "half-open":
                if self._probing:
                    raise CircuitOpenError(
                        "circuit half-open; a probe call is already in flight"
                    )
                self._probing = True
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        except BaseException:
            # A thread-killing exception is no verdict on the dependency:
            # release the probe slot without moving the breaker.
            with self._lock:
                self._probing = False
            raise
        self.record_success()
        return result

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
