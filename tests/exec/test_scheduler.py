"""The supervision ladder, tested where it lives: a fake clock, no I/O.

``TaskScheduler`` is driven directly — events in, actions out — first
with one hand-written case per rung (the ladder logic that used to be
checked through real fork pools and real sleeps), then with
hypothesis-generated interleavings of every event kind asserting the
reduction contract.
"""

from __future__ import annotations

import itertools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecPolicy, RemoteTaskError, TaskScheduler
from repro.resilience.errors import ResultIntegrityError
from repro.resilience.retry import RetryPolicy

SESSION = "s"


class Harness:
    """A driver without transports: performs actions into plain dicts."""

    def __init__(self, n_tasks=2, workers=("w0", "w1"), now=0.0, **policy):
        policy.setdefault("retry", RetryPolicy(max_attempts=2, base_delay=0.0))
        policy.setdefault("worker_timeout", 10.0)
        self.policy = ExecPolicy(**policy)
        self.now = now
        self.sched = TaskScheduler(
            [f"t{i}" for i in range(n_tasks)],
            self.policy,
            session=SESSION,
            attempt_ids=itertools.count(1),
            hb_timeout=4.0,
            grace=5.0,
        )
        #: attempt -> (index, worker) for every dispatch ever made
        self.sent: dict[int, tuple[int, str]] = {}
        self.killed: list[tuple[str, str]] = []
        self.rescue = None
        self.results = None
        #: (index, attempt) of every payload the scheduler chose to load
        self.decoded: list[tuple[int, int]] = []
        for worker in workers:
            self.sched.heartbeat(worker, now)

    def tick(self, dt=0.0, beat=True):
        self.now += dt
        if beat:
            for worker in list(self.sched.workers):
                self.sched.heartbeat(worker, self.now)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            actions = self.sched.tick(self.now)
        for action in actions:
            if action[0] == "dispatch":
                _, index, attempt, worker = action
                assert attempt not in self.sent, "attempt id reused"
                assert worker not in [w for w, _ in self.killed]
                self.sent[attempt] = (index, worker)
            elif action[0] == "kill":
                self.killed.append((action[1], action[2]))
            elif action[0] == "rescue":
                self.rescue = action[1:]
            else:
                self.results = action[1]
        return actions

    def running(self):
        """In-flight attempts as ``[(attempt, index, worker)]``."""
        return [(a, i, w) for a, (i, w, _) in sorted(self.sched.attempts.items())]

    def reply(self, attempt, *, session=SESSION, as_attempt=None, value=None,
              broken=False, worker=None, index=None):
        sent_index, sent_worker = self.sent[attempt]
        index = sent_index if index is None else index
        claimed = attempt if as_attempt is None else as_attempt

        def decode():
            self.decoded.append((index, claimed))
            if broken:
                raise ResultIntegrityError("CRC mismatch")
            return ("value", index) if value is None else value

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.sched.result(
                worker or sent_worker, session, index, claimed, decode
            )

    def fail(self, attempt, exc=None):
        index, worker = self.sent[attempt]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.sched.error(
                worker, SESSION, index, attempt, exc or RuntimeError("boom")
            )

    def lose(self, worker, reason="disconnect"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.sched.worker_lost(worker, reason)


# --------------------------------------------------------------------- #
# One case per rung
# --------------------------------------------------------------------- #
class TestLadderRungs:
    def test_results_reduce_in_task_order_whatever_the_arrival_order(self):
        h = Harness(n_tasks=3, workers=("w0", "w1", "w2"))
        h.tick()
        for attempt, _, _ in reversed(h.running()):
            h.reply(attempt)
        h.tick()
        assert h.results == [("value", 0), ("value", 1), ("value", 2)]
        assert h.rescue is None and h.sched.failed_attempts == 0

    def test_one_task_per_idle_worker_rest_stay_pending(self):
        h = Harness(n_tasks=5, workers=("w0", "w1"))
        h.tick()
        assert len(h.running()) == 2 and len(h.sched.pending) == 3
        h.reply(h.running()[0][0])
        h.tick()
        assert len(h.running()) == 2 and len(h.sched.pending) == 2

    def test_error_requeues_then_budget_spent_rescues(self):
        h = Harness(n_tasks=1, workers=("w0",))
        h.tick()
        h.fail(1)
        h.tick()
        assert h.running() == [(2, 0, "w0")] and h.results is None
        h.fail(2, exc := OSError("typed"))
        h.tick()
        rescued, failures, last_exc = h.rescue
        assert rescued == [0] and failures == 2 and last_exc is exc
        assert h.results == [None] and h.sched.failed_attempts == 2

    def test_backoff_keeps_a_failed_task_out_of_the_queue(self):
        h = Harness(
            n_tasks=1, workers=("w0",),
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, backoff=2.0),
        )
        h.tick()
        h.fail(1)
        h.tick(0.5)
        assert h.running() == []
        h.tick(0.6)  # 1.1 s after the first failure
        assert h.running() == [(2, 0, "w0")]
        h.fail(2)
        h.tick(1.5)  # second failure backs off 2 s
        assert h.running() == []
        h.tick(0.6)
        assert h.running() == [(3, 0, "w0")]

    def test_deadline_kills_the_worker_before_the_task_runs_again(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"), worker_timeout=1.0,
                    straggler_fraction=None)
        h.tick()
        actions = h.tick(1.5)
        assert [a[0] for a in actions] == ["kill", "dispatch"]
        assert actions[0][1:] == ("w0", "deadline")
        assert actions[1][3] == "w1"
        assert isinstance(h.sched.last_exc, TimeoutError)
        assert "w0" not in h.sched.workers

    def test_silent_heartbeat_kills_a_busy_worker_only(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"))
        h.tick()
        h.sched.heartbeat("w1", h.now + 5.0)
        actions = h.tick(5.0, beat=False)  # w0 silent beyond hb_timeout=4
        assert ("kill", "w0", "stale_heartbeat") in actions
        assert h.running() == [(2, 0, "w1")]

    def test_idle_worker_with_silent_heartbeat_is_skipped_not_killed(self):
        h = Harness(n_tasks=1, workers=("w0",))
        h.now = 10.0
        assert h.tick(beat=False) == []  # w0 last heard at 0
        h.sched.heartbeat("w0", 10.0)
        assert [a[0] for a in h.tick(beat=False)] == ["dispatch"]

    def test_straggler_twin_first_result_wins_and_loser_is_killed(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"), worker_timeout=10.0,
                    straggler_fraction=0.1)
        h.tick()
        h.tick(1.5)
        assert h.running() == [(1, 0, "w0"), (2, 0, "w1")]
        h.tick(1.5)
        assert len(h.running()) == 2, "one twin per task, not one per tick"
        h.reply(2)
        actions = h.tick()
        assert actions[0] == ("kill", "w0", "superseded")
        assert actions[-1] == ("done", [("value", 0)])
        assert h.sched.failed_attempts == 0
        h.reply(1, value="late")  # the loser's answer arrives anyway
        assert h.sched.results == [("value", 0)]

    def test_twins_spend_the_failure_budget_like_any_attempt(self):
        # Regression: hung workers replaced as fast as they are killed once
        # kept a task alive forever — each deadline kill left one copy in
        # flight, which earned a fresh twin on the replacement.
        h = Harness(n_tasks=1, workers=("w0", "w1"), worker_timeout=1.0,
                    straggler_fraction=0.5)
        for tick in range(40):
            h.sched.heartbeat(f"replacement{tick}", h.now)
            h.tick(0.3)
            if h.results is not None:
                break
        assert h.rescue is not None and h.rescue[0] == [0]
        assert h.sched.dispatched == 2 == h.sched.failures[0]

    def test_no_twin_without_budget_for_it(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"), worker_timeout=10.0,
                    straggler_fraction=0.1,
                    retry=RetryPolicy(max_attempts=1, base_delay=0.0))
        h.tick()
        h.tick(5.0)
        assert h.running() == [(1, 0, "w0")]

    def test_failed_twin_waits_for_the_surviving_copy(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"), worker_timeout=10.0,
                    straggler_fraction=0.1,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        h.tick()
        h.tick(1.5)
        h.fail(1)
        h.tick()
        assert h.rescue is None and h.running() == [(2, 0, "w1")]
        h.reply(2)
        h.tick()
        assert h.results == [("value", 0)]

    def test_quarantine_counts_worker_deaths_not_plain_errors(self):
        h = Harness(n_tasks=1, workers=("w0", "w1", "w2"), quarantine_after=2,
                    retry=RetryPolicy(max_attempts=5, base_delay=0.0))
        h.tick()
        h.fail(1)  # an error: a failure, not a death
        h.tick()
        h.lose(h.running()[0][2])
        h.tick()
        assert h.rescue is None
        h.lose(h.running()[0][2])
        h.tick()
        assert h.rescue[0] == [0] and h.sched.deaths == [2]
        assert h.sched.failures == [3]

    def test_corrupt_payload_is_a_failed_attempt(self):
        h = Harness(n_tasks=1, workers=("w0",))
        h.tick()
        h.reply(1, broken=True)
        assert not h.sched.done[0] and h.sched.failures == [1]
        assert isinstance(h.sched.last_exc, ResultIntegrityError)
        h.tick()
        h.reply(2)
        h.tick()
        assert h.results == [("value", 0)]

    def test_stale_generation_fails_the_real_attempt_now(self):
        h = Harness(n_tasks=1, workers=("w0", "w1"))
        h.tick()
        h.reply(1, as_attempt=0)
        assert h.decoded == [], "a stale payload is never even loaded"
        assert isinstance(h.sched.last_exc, RemoteTaskError)
        h.tick()
        assert h.running() == [(2, 0, "w0")]

    def test_wrong_session_and_unknown_worker_are_dropped(self):
        h = Harness(n_tasks=1, workers=("w0",))
        h.tick()
        h.reply(1, session="previous-engine")
        h.reply(1, worker="stranger")
        h.reply(1, index=7)
        assert h.decoded == [] and h.running() == [(1, 0, "w0")]
        assert h.sched.failed_attempts == 0

    def test_nobody_to_dispatch_to_rescues_after_the_grace_window(self):
        h = Harness(n_tasks=2, workers=())
        assert h.tick() == []
        assert h.tick(4.9) == []
        actions = h.tick(0.2)
        assert [a[0] for a in actions] == ["rescue", "done"]
        assert actions[0][1] == [0, 1]
        assert isinstance(actions[0][3], ConnectionError)

    def test_a_returning_worker_resets_the_grace_window(self):
        h = Harness(n_tasks=1, workers=())
        h.tick()
        h.tick(4.0)
        h.sched.heartbeat("late", h.now)
        assert [a[0] for a in h.tick()] == ["dispatch"]

    def test_lost_worker_never_comes_back_under_the_same_handle(self):
        h = Harness(n_tasks=1, workers=("w0",))
        h.tick()
        h.lose("w0")
        h.sched.heartbeat("w0", h.now)  # a sweep racing the loss
        assert h.tick() == [] and "w0" not in h.sched.workers

    def test_fallback_only_tasks_are_rescued_without_a_dispatch(self):
        h = Harness(n_tasks=0)
        sched = TaskScheduler(
            ["a", "b"], h.policy, session=SESSION,
            attempt_ids=itertools.count(1), hb_timeout=4.0, grace=5.0,
            runnable=[False, True],
        )
        sched.heartbeat("w0", 0.0)
        assert sched.tick(0.0) == [("dispatch", 1, 1, "w0")]
        sched.result("w0", SESSION, 1, 1, lambda: "b")
        assert sched.tick(0.0) == [
            ("rescue", [0], 0, None), ("done", [None, "b"]),
        ]

    def test_empty_submit_is_done_at_once(self):
        assert Harness(n_tasks=0).tick() == [("done", [])]


# --------------------------------------------------------------------- #
# Properties over generated interleavings
# --------------------------------------------------------------------- #
STEPS = st.lists(
    st.tuples(
        st.sampled_from([
            "tick", "tick", "result", "result", "error", "corrupt", "lost",
            "join", "duplicate", "stale", "wrong_session", "silence",
        ]),
        st.integers(0, 7),
        st.floats(0.0, 3.0),
    ),
    max_size=60,
)
POLICIES = st.builds(
    dict,
    retry=st.builds(
        RetryPolicy,
        max_attempts=st.integers(1, 3),
        base_delay=st.sampled_from([0.0, 0.5]),
    ),
    worker_timeout=st.sampled_from([None, 2.0]),
    quarantine_after=st.sampled_from([None, 1, 2]),
    straggler_fraction=st.sampled_from([None, 0.5]),
)


def _check_invariants(h: Harness):
    sched = h.sched
    busy = [worker for _, worker, _ in sched.attempts.values()]
    assert len(busy) == len(set(busy)), "a worker runs one attempt at a time"
    assert set(sched.running) == set(busy) <= set(sched.workers)
    for i, done in enumerate(sched.done):
        assert not (done and i in sched.rescued), "rescued and reduced"
        if done:
            assert sched.results[i] == ("value", i), "foreign value reduced"
        else:
            assert sched.results[i] is None
    # Only the attempt a live worker was running, under its own number,
    # is ever loaded — stale, duplicate and wrong-session payloads never.
    for index, claimed in h.decoded:
        assert h.sent[claimed][0] == index


@settings(max_examples=300, deadline=None)
@given(
    n_tasks=st.integers(1, 8),
    n_workers=st.integers(1, 4),
    policy=POLICIES,
    steps=STEPS,
    answering=st.booleans(),
)
def test_every_interleaving_reduces_each_task_exactly_once(
    n_tasks, n_workers, policy, steps, answering
):
    h = Harness(n_tasks, [f"w{i}" for i in range(n_workers)], **policy)
    answered: list[int] = []
    joined = itertools.count(n_workers)
    for kind, pick, dt in steps:
        running = h.running()
        chosen = running[pick % len(running)][0] if running else None
        if kind == "tick":
            h.tick(dt)
        elif kind == "silence":
            h.tick(dt, beat=False)
        elif kind == "join":
            h.sched.heartbeat(f"w{next(joined)}", h.now)
        elif kind == "lost" and h.sched.workers:
            workers = list(h.sched.workers)
            h.lose(workers[pick % len(workers)])
        elif kind == "duplicate" and answered:
            h.reply(answered[pick % len(answered)], value="replayed")
        elif chosen is None:
            continue
        elif kind == "result":
            h.reply(chosen)
            answered.append(chosen)
        elif kind == "error":
            h.fail(chosen)
            answered.append(chosen)
        elif kind == "corrupt":
            h.reply(chosen, broken=True)
            answered.append(chosen)
        elif kind == "stale":
            h.reply(chosen, as_attempt=chosen - 1, value="stale")
        elif kind == "wrong_session":
            h.reply(chosen, session="other", value="foreign")
        _check_invariants(h)
    # Drain until the submit is over: either healthy workers answer
    # everything, or nothing is ever answered again and every busy worker
    # is lost while replacements keep arriving (liveness: the budgets,
    # not the fleet's patience, end the submit).
    for step in range(10 * n_tasks + 10):
        if h.results is not None:
            break
        h.sched.heartbeat(f"drain{step}", h.now)
        h.tick(0.6)
        for attempt, _, worker in h.running():
            if answering:
                h.reply(attempt)
            else:
                h.lose(worker)
        _check_invariants(h)
    sched = h.sched
    assert h.results is not None, "the submit never finished"
    settled = [sched.done[i] or i in sched.rescued for i in range(n_tasks)]
    assert all(settled)
    assert (h.rescue[0] if h.rescue else []) == sorted(sched.rescued)
    # The reduction does not depend on the interleaving: a task is its own
    # value or left to its (bit-identical) fallback, nothing else.
    assert h.results == [
        None if i in sched.rescued else ("value", i) for i in range(n_tasks)
    ]
    # Dispatches are bounded by the policy: every dispatch, straggler
    # twins included, is paid for out of the task's failure budget.
    budget = h.policy.retry.max_attempts
    assert sched.dispatched <= n_tasks * budget
    assert max(sched.failures, default=0) <= budget
    # Late replies after the end change nothing.
    frozen = list(h.results)
    for attempt in list(h.sent):
        h.reply(attempt, value="too late")
    assert sched.results == frozen and not sched.attempts
    assert h.tick() == []


@settings(max_examples=100, deadline=None)
@given(order=st.permutations(range(6)), n_workers=st.integers(1, 4))
def test_reduction_is_independent_of_completion_order(order, n_workers):
    h = Harness(6, [f"w{i}" for i in range(n_workers)])
    finished: list[int] = []
    while True:
        h.tick(0.01)
        if h.results is not None:
            break
        running = {index: attempt for attempt, index, _ in h.running()}
        ready = [i for i in order if i in running]
        h.reply(running[ready[0]])
        finished.append(ready[0])
    assert h.results == [("value", i) for i in range(6)]
    assert sorted(finished) == list(range(6))
