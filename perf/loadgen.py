"""Load generation against the scoring daemon: closed and open loops.

Closed loop: each client sends its next call only when the previous one
has answered — the shape of a flow script that waits for its reply — so a
slow server receives less load.  Open loop: calls are sent on a fixed
schedule whatever the server does; each is timed from the moment it was
*due*, which charges a stall to every call it delayed, and the
generator's own lateness is reported beside the latencies.

A call is a zero-argument callable returning the number of designs it
scored correctly; it raises :class:`CallFailed` otherwise.  The clock and
the sleep are injected so the accounting is testable without waiting.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field


class CallFailed(Exception):
    """One operation that must count as failed, with a one-word reason."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class LoadResult:
    """What one phase sent and what came back."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    designs_ok: int = 0
    started_at: float = 0.0
    window_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)  #: successful calls only
    ended_s: list[float] = field(default_factory=list)  #: clock value when each answered
    late_s: list[float] = field(default_factory=list)  #: open loop: start - due
    failures: dict[str, int] = field(default_factory=dict)  #: reason -> count

    def merge(self, other: "LoadResult") -> None:
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.designs_ok += other.designs_ok
        self.latencies_s += other.latencies_s
        self.ended_s += other.ended_s
        self.late_s += other.late_s
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count


def _attempt(call, result: LoadResult, started: float, clock) -> None:
    """Run one call and account for it exactly once."""
    result.sent += 1
    try:
        designs = call()
    except CallFailed as exc:
        result.failed += 1
        result.failures[exc.reason] = result.failures.get(exc.reason, 0) + 1
        return
    result.succeeded += 1
    result.designs_ok += designs
    ended = clock()
    result.latencies_s.append(ended - started)
    result.ended_s.append(ended)


def closed_loop_client(next_call, stop_at: float, clock=time.perf_counter) -> LoadResult:
    """One waiting client: call, wait for the answer, call again, until ``stop_at``.

    ``next_call()`` hands out the next call to make.  The last call may end
    after ``stop_at``; it still counts, and the caller divides by the time
    the phase really took.
    """
    result = LoadResult()
    while clock() < stop_at:
        _attempt(next_call(), result, clock(), clock)
    return result


def open_loop_sender(
    slots, next_call, clock=time.perf_counter, sleep=time.sleep
) -> LoadResult:
    """Send one call per due time in ``slots`` (absolute clock values).

    A sender that is still waiting for an earlier answer when a slot falls
    due starts that slot late; the lateness is recorded and the latency is
    still counted from the due time.
    """
    result = LoadResult()
    for due in slots:
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        result.late_s.append(max(0.0, clock() - due))
        _attempt(next_call(), result, due, clock)
    return result


def schedule(start: float, rate_per_s: float, duration_s: float) -> list[float]:
    """Due times of a fixed-rate schedule: ``rate * duration`` evenly spaced slots."""
    count = int(round(rate_per_s * duration_s))
    return [start + i / rate_per_s for i in range(count)]


def run_threads(workers) -> LoadResult:
    """Run each zero-argument worker in its own thread and merge what they return.

    The collector runs first, outside the timed phase; it stays enabled
    inside it.
    """
    gc.collect()
    results: list[LoadResult | BaseException] = [None] * len(workers)  # type: ignore[list-item]

    def runner(index: int) -> None:
        try:
            results[index] = workers[index]()
        except BaseException as exc:  # re-raised in the caller below
            results[index] = exc

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(len(workers))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = LoadResult()
    for item in results:
        if isinstance(item, BaseException):
            raise item
        merged.merge(item)
    merged.started_at = started
    merged.window_s = time.perf_counter() - started
    return merged
