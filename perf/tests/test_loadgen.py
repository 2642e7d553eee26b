import numpy as np
import pytest

from perf import checks, loadgen


class FakeClock:
    """A clock that only moves when someone sleeps or a call takes time."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_schedule_is_evenly_spaced():
    assert loadgen.schedule(10.0, 20.0, 0.25) == pytest.approx([10.0, 10.05, 10.1, 10.15, 10.2])


def test_open_loop_times_each_call_from_its_due_time():
    clock = FakeClock()
    service_times = iter([0.01, 0.30, 0.01, 0.01])  # the second call stalls

    def next_call():
        def call():
            clock.now += next(service_times)
            return 8

        return call

    slots = loadgen.schedule(clock.now + 0.05, 10.0, 0.4)  # due every 100 ms
    result = loadgen.open_loop_sender(slots, next_call, clock=clock, sleep=clock.sleep)
    assert (result.sent, result.succeeded, result.failed, result.designs_ok) == (4, 4, 0, 32)
    # Call 3 was due 100 ms after call 2 but could only start when the
    # stalled call 2 had answered, 200 ms late; its latency includes that wait.
    assert result.late_s == pytest.approx([0.0, 0.0, 0.2, 0.11])
    assert result.latencies_s == pytest.approx([0.01, 0.30, 0.21, 0.12])


def test_closed_loop_waits_for_each_answer():
    clock = FakeClock()

    def next_call():
        def call():
            clock.now += 0.4
            return 1

        return call

    result = loadgen.closed_loop_client(next_call, stop_at=clock.now + 1.0, clock=clock)
    assert result.sent == 3  # the third call starts at 0.8 s and ends after the deadline
    assert result.latencies_s == pytest.approx([0.4, 0.4, 0.4])


class FakeScore:
    def __init__(self, labels, degraded=False, num_nodes=None):
        self.labels = np.asarray(labels)
        self.degraded = degraded
        self.num_nodes = len(labels) if num_nodes is None else num_nodes
        self.design = "d"
        self.latency_ms = 1.0


class FakeClient:
    def __init__(self, answers):
        self.answers = iter(answers)

    def score(self, text, return_predictions=True):
        answer = next(self.answers)
        if isinstance(answer, Exception):
            raise answer
        return answer


def test_refused_degraded_and_wrong_answers_each_count_once():
    from repro.api import ServeClientError

    reference = np.array([0, 1, 0])
    client = FakeClient(
        [
            FakeScore([0, 1, 0]),
            ServeClientError("queue full", status=429, code="overloaded"),
            FakeScore([0, 1, 0], degraded=True),  # right labels, heuristic fallback
            FakeScore([1, 1, 0]),
            FakeScore([0, 1, 0], num_nodes=4),
            ServeClientError("deadline", status=504, code="deadline_exceeded"),
        ]
    )
    clock = FakeClock()
    result = loadgen.LoadResult()
    for _ in range(6):
        loadgen._attempt(checks.score_call(client, "text", reference), result, clock(), clock)
    assert (result.sent, result.succeeded, result.failed) == (6, 1, 5)
    assert result.failures == {
        "refused_429": 1, "degraded": 1, "wrong_labels": 1, "wrong_num_nodes": 1,
        "refused_504": 1,
    }
    assert len(result.latencies_s) == 1  # a failed call contributes no latency


def test_batch_call_fails_as_a_whole_when_one_member_is_wrong():
    class BatchClient:
        def score_many(self, texts, return_predictions=True):
            return [FakeScore([0, 1]), FakeScore([1, 1])]

    call = checks.batch_call(BatchClient(), ["a", "b"], [np.array([0, 1]), np.array([0, 1])])
    with pytest.raises(loadgen.CallFailed) as info:
        call()
    assert info.value.reason == "wrong_labels"
