import pytest

from perf.hostspeed import HostSpeed, Timing


def test_a_timing_is_divided_by_the_slowdown_around_it():
    assert Timing(wall_s=3.0, slowdown=1.5).normalised_s == pytest.approx(2.0)


def test_calls_are_matched_with_the_probes_taken_while_they_ran():
    host = HostSpeed()
    host.stamps = [10.0, 10.05, 10.1, 10.5, 10.55, 10.6, 12.0]
    host.slowdowns = [1.0, 1.0, 1.0, 2.0, 2.0, 9.0, 3.0]
    assert host.slowdown_between(9.95, 10.0) == 1.0
    # The median drops the one probe that was preempted.
    assert host.slowdown_between(10.5, 10.6) == 2.0
    # No probe near the call: the nearest one speaks for it.
    assert host.slowdown_between(11.2, 11.3) == 3.0
    assert host.slowdown_between(50.0, 51.0) == 3.0
    # A rate over a window is divided by the mean speed (1 / slowdown) in it.
    assert host.rate_factor(10.4, 10.56) == pytest.approx(0.5)


def test_timed_brackets_the_call_with_probes():
    host = HostSpeed()
    timing, result = host.timed(lambda: sum(range(1000)))
    assert result == sum(range(1000))
    assert timing.wall_s > 0 and timing.slowdown > 0
