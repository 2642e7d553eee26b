"""ScoringService: backpressure, deadlines, crash isolation, drain.

Determinism comes from gating the predictor on events rather than timing:
a ``BlockingManager`` parks worker threads until the test releases them.
"""

import threading
import time

import pytest

from repro.circuit import generate_design
from repro.core.graphdata import GraphData
from repro.serve import ModelManager, ServeConfig, ScoringService
from repro.serve.admission import ScoreRequest
from repro.serve.protocol import (
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)

GRAPH = GraphData.from_netlist(generate_design(60, seed=5))


def request(deadline_s: float = 5.0) -> ScoreRequest:
    return ScoreRequest(
        graph=GRAPH, design="d", deadline_s=deadline_s, return_predictions=False
    )


class BlockingManager(ModelManager):
    """Heuristic-backed manager whose predict() waits for an event."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()

    def predict(self, graph):
        self.started.set()
        assert self.release.wait(timeout=10.0), "test forgot to release"
        return super().predict(graph)


class ExplodingManager(ModelManager):
    """Raises a thread-killing BaseException on the first N calls."""

    def __init__(self, kills: int):
        super().__init__()
        self.kills = kills
        self.lock = threading.Lock()

    def predict(self, graph):
        with self.lock:
            if self.kills > 0:
                self.kills -= 1
                raise SystemExit("worker thread killed")
        return super().predict(graph)


def make_service(manager=None, **overrides) -> ScoringService:
    defaults = dict(workers=1, queue_capacity=1, retry_after_s=2)
    defaults.update(overrides)
    return ScoringService(manager or ModelManager(), ServeConfig(**defaults))


class TestHappyPath:
    def test_score_returns_labels(self):
        service = make_service()
        try:
            labels, info = service.score(request())
            assert len(labels) == GRAPH.num_nodes
            assert info["predictor_level"] == "heuristic"
            assert service.snapshot()["completed"] == 1
        finally:
            service.stop()


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        manager = BlockingManager()
        service = make_service(manager)
        try:
            first = service.submit(request())
            assert manager.started.wait(timeout=5.0)  # worker busy
            second = service.submit(request())  # fills the capacity-1 queue
            with pytest.raises(OverloadedError) as info:
                service.submit(request())
            assert info.value.retry_after_s == 2
            assert service.snapshot()["rejected_overload"] == 1
            # No accepted request was dropped: both complete once released.
            manager.release.set()
            assert first.wait(5.0) and second.wait(5.0)
            assert first.state == "done" and second.state == "done"
        finally:
            manager.release.set()
            service.stop()

    def test_accepted_never_dropped_under_burst(self):
        service = make_service(workers=2, queue_capacity=4)
        jobs, rejected = [], 0
        try:
            for _ in range(50):
                try:
                    jobs.append(service.submit(request()))
                except OverloadedError:
                    rejected += 1
            for job in jobs:
                assert job.wait(10.0), "accepted job never answered"
                assert job.state == "done"
        finally:
            service.stop()
        stats = service.snapshot()
        assert stats["accepted"] == len(jobs)
        assert stats["completed"] == len(jobs)
        assert stats["rejected_overload"] == rejected


class TestDeadlines:
    def test_queued_work_expires_with_504(self):
        manager = BlockingManager()
        service = make_service(manager)
        try:
            service.submit(request())  # occupies the worker
            assert manager.started.wait(timeout=5.0)
            with pytest.raises(DeadlineExceededError):
                service.score(request(deadline_s=0.05))
            assert service.snapshot()["expired"] >= 1
        finally:
            manager.release.set()
            service.stop()

    def test_expired_job_skipped_by_worker(self):
        manager = BlockingManager()
        service = make_service(manager)
        try:
            blocker = service.submit(request())
            assert manager.started.wait(timeout=5.0)
            doomed = service.submit(request(deadline_s=0.01))
            time.sleep(0.05)  # let the deadline lapse while queued
            manager.release.set()
            assert blocker.wait(5.0)
            deadline = time.monotonic() + 5.0
            while doomed.state == "pending" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert doomed.state == "cancelled"
        finally:
            manager.release.set()
            service.stop()


class TestCrashIsolation:
    def test_thread_killing_job_is_failed_and_worker_respawned(self, monkeypatch):
        # The worker dies of its SystemExit: catch that death here, where it
        # is provoked, instead of leaving it to surface under a later test.
        deaths = []
        monkeypatch.setattr(threading, "excepthook", deaths.append)
        service = make_service(ExplodingManager(kills=1))
        (doomed,) = service._workers
        try:
            job = service.submit(request())
            assert job.wait(5.0)
            assert job.state == "failed"
            assert isinstance(job.error, SystemExit)
            # The dying worker spawned its replacement, so the next request
            # completes normally without waiting on ensure_workers().
            labels, _ = service.score(request())
            assert len(labels) == GRAPH.num_nodes
            assert service.snapshot()["worker_restarts"] >= 1
            doomed.join(timeout=5.0)
            assert not doomed.is_alive()
        finally:
            service.stop()
        (death,) = deaths
        assert death.thread is doomed
        assert death.exc_type is SystemExit and death.exc_value is job.error


class TestDrain:
    def test_drain_finishes_accepted_work_then_rejects(self):
        manager = BlockingManager()
        service = make_service(manager, queue_capacity=4)
        jobs = [service.submit(request()) for _ in range(3)]
        assert manager.started.wait(timeout=5.0)
        drained = {}
        t = threading.Thread(
            target=lambda: drained.setdefault("ok", service.drain(timeout=10.0))
        )
        t.start()
        with pytest.raises(DrainingError):
            service.submit(request())
        manager.release.set()
        t.join(timeout=10.0)
        assert drained["ok"] is True
        for job in jobs:
            assert job.state == "done"

    def test_drain_times_out_with_stuck_worker(self):
        manager = BlockingManager()
        service = make_service(manager)
        service.submit(request())
        assert manager.started.wait(timeout=5.0)
        assert service.drain(timeout=0.1) is False
        manager.release.set()
        service.stop()


class TestStatsRegistry:
    def test_stats_dict_view_matches_legacy_keys(self):
        service = make_service()
        try:
            service.score(request())
            stats = service.stats
            assert stats["accepted"] == 1
            assert stats["completed"] == 1
            assert set(stats) == {
                "accepted",
                "completed",
                "failed",
                "degraded",
                "rejected_overload",
                "rejected_admission",
                "rejected_draining",
                "expired",
                "worker_restarts",
            }
        finally:
            service.stop()

    def test_counters_land_in_the_service_registry(self):
        service = make_service()
        try:
            service.score(request())
            text = service.registry.render_prometheus()
            assert 'repro_serve_requests_total{event="accepted"} 1' in text
            assert 'repro_serve_requests_total{event="completed"} 1' in text
            assert "repro_serve_workers_alive 1" in text
        finally:
            service.stop()

    def test_services_do_not_share_registries(self):
        a, b = make_service(), make_service()
        try:
            a.score(request())
            assert a.stats["accepted"] == 1
            assert b.stats["accepted"] == 0
        finally:
            a.stop()
            b.stop()


class TestSnapshotConsistency:
    def test_snapshot_is_internally_consistent_under_load(self):
        """Satellite fix: depths and counters are read under one lock.

        While submitters hammer the service, no snapshot may show more
        settled work than was accepted, and the depth fields must stay in
        range; after the load stops and the queue drains, the identity
        ``accepted == completed + failed`` holds exactly (the generous
        deadline rules out expiry).

        ``in_flight`` counts netlists, not batches: a worker holding a
        coalesced batch reports every member, so the bound is
        ``workers * batch_max_requests``.
        """
        service = make_service(workers=2, queue_capacity=32)
        in_flight_cap = 2 * service.config.batch_max_requests
        stop = threading.Event()
        errors = []

        def submitter():
            while not stop.is_set():
                try:
                    service.score(request(deadline_s=30.0))
                except (OverloadedError, DrainingError) as exc:
                    if isinstance(exc, DrainingError):
                        errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 1.0
            snapshots = 0
            while time.monotonic() < deadline:
                snap = service.snapshot()
                settled = snap["completed"] + snap["failed"] + snap["expired"]
                assert settled <= snap["accepted"], snap
                assert 0 <= snap["queue_depth"] <= 32, snap
                assert 0 <= snap["in_flight"] <= in_flight_cap, snap
                snapshots += 1
            assert snapshots > 10
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
        assert not errors
        assert service.drain(timeout=30.0)
        snap = service.snapshot()
        assert snap["accepted"] == snap["completed"] + snap["failed"], snap
        assert snap["expired"] == 0
        assert snap["queue_depth"] == 0
        assert snap["in_flight"] == 0

    def test_queue_depth_counts_accepted_not_yet_running(self):
        manager = BlockingManager()
        service = make_service(manager, workers=1, queue_capacity=4)
        try:
            service.submit(request())  # claimed by the worker
            assert manager.started.wait(timeout=5.0)
            service.submit(request())  # parked in the queue
            snap = service.snapshot()
            assert snap["accepted"] == 2
            assert snap["in_flight"] == 1
            assert snap["queue_depth"] == 1
            manager.release.set()
        finally:
            manager.release.set()
            service.stop()
