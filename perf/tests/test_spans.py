import pytest

from perf.spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("flow.run", op=7):
        clock.now += 1.0  # the flow's own work
        for _ in range(2):
            with tracer.span("flow.predict"):
                clock.now += 0.5
                with tracer.span("flow.csr_rebuild"):
                    clock.now += 0.25
        clock.now += 2.0
    run, first, rebuild = tracer.spans[0], tracer.spans[1], tracer.spans[2]
    assert (run["parent"], first["parent"], rebuild["parent"]) == (None, run["id"], first["id"])
    assert {s["op"] for s in tracer.spans} == {7}  # children inherit the operation id
    own = tracer.self_times()
    assert own[run["id"]] == pytest.approx(4.5 - 2 * 0.75)
    assert own[first["id"]] == pytest.approx(0.5)
    assert own[rebuild["id"]] == pytest.approx(0.25)
    assert tracer.per_op("flow.predict", self_time=True) == {7: pytest.approx(1.0)}
    assert tracer.per_op("flow.csr_rebuild") == {7: pytest.approx(0.5)}
    assert tracer.per_op("flow.run", self_time=True) == {7: pytest.approx(3.0)}


def test_spans_are_written_once_at_the_end(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.span("circuit.parse", op=0):
        pass
    path = tmp_path / "out" / "trace.json"
    tracer.write(path)
    assert '"circuit.parse"' in path.read_text()
