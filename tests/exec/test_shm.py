"""Shared-memory lifecycle guarantees: roundtrips, orphan sweep, no leaks."""

from __future__ import annotations

import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from repro.atpg import FaultSimulator, full_fault_list
from repro.atpg.ppsfp import PpsfpConfig
from repro.circuit import generate_design
from repro.exec import (
    SharedSegment,
    attached_ndarray,
    leaked_segment_names,
    owned_ndarray,
    sweep_orphans,
)
from repro.exec.shm import WeightStore, attach_manifest, live_segment_names
from repro.resilience.retry import RetryPolicy


def _our_leaks(before: set[str]) -> list[str]:
    """Fabric segments in /dev/shm that appeared since ``before``."""
    return sorted(set(leaked_segment_names()) - before)


class TestRoundtrip:
    def test_owned_attached_bit_identical(self):
        rng = np.random.default_rng(0)
        source = rng.standard_normal((64, 8))
        before = set(leaked_segment_names())
        with owned_ndarray(source) as segment:
            with attached_ndarray(
                segment.name, source.shape, source.dtype
            ) as view:
                np.testing.assert_array_equal(view, source)
        assert _our_leaks(before) == []

    def test_owner_writes_visible_to_attacher(self):
        source = np.zeros(16, dtype=np.uint64)
        with owned_ndarray(source) as segment:
            segment.array[:] = np.arange(16, dtype=np.uint64)
            with attached_ndarray(segment.name, (16,), np.uint64) as view:
                np.testing.assert_array_equal(
                    view, np.arange(16, dtype=np.uint64)
                )

    def test_zero_size_array_supported(self):
        source = np.empty((0, 4))
        with owned_ndarray(source) as segment:
            with attached_ndarray(segment.name, (0, 4), source.dtype) as view:
                assert view.shape == (0, 4)


class TestLifecycle:
    def test_close_unlink_idempotent(self):
        segment = SharedSegment.from_array(np.ones(4))
        assert segment.name in live_segment_names()
        segment.close_unlink()
        segment.close_unlink()
        assert segment.name not in live_segment_names()
        assert segment.name not in leaked_segment_names()

    def test_context_exit_unlinks_on_error(self):
        before = set(leaked_segment_names())
        with pytest.raises(RuntimeError, match="boom"):
            with owned_ndarray(np.ones(4)):
                raise RuntimeError("boom")
        assert _our_leaks(before) == []

    def test_registry_tracks_ownership(self):
        a = SharedSegment.from_array(np.ones(2))
        b = SharedSegment.from_array(np.ones(2))
        try:
            assert {a.name, b.name} <= set(live_segment_names())
        finally:
            a.close_unlink()
            b.close_unlink()
        assert not {a.name, b.name} & set(live_segment_names())


class TestOrphanSweep:
    def test_dead_owner_segment_reclaimed(self, tmp_path):
        # A child creates a fabric segment, detaches it from its resource
        # tracker (as a kill -9 of the whole group would), and exits
        # without unlinking: the canonical /dev/shm leak.
        script = textwrap.dedent(
            """
            import os, sys
            import numpy as np
            from multiprocessing import resource_tracker
            from repro.exec.shm import SharedSegment
            seg = SharedSegment.from_array(np.ones(8))
            try:
                resource_tracker.unregister(seg._shm._name, "shared_memory")
            except Exception:
                pass
            sys.stdout.write(seg.name)
            sys.stdout.flush()
            os._exit(0)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        name = proc.stdout.strip()
        assert name.startswith("repro-exec-")
        assert name in leaked_segment_names(), "leak fixture did not leak"
        removed = sweep_orphans()
        assert name in removed
        assert name not in leaked_segment_names()

    def test_live_owner_segment_untouched(self):
        segment = SharedSegment.from_array(np.ones(8))
        try:
            assert segment.name not in sweep_orphans()
            assert segment.name in leaked_segment_names()
        finally:
            segment.close_unlink()


class TestWeightStore:
    """The serving layer's shared-memory home for hot model weights."""

    def _arrays(self, seed: int = 0) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "encoder.0": rng.standard_normal((6, 4)),
            "fc.0": rng.standard_normal((4, 2)),
        }

    def test_publish_returns_bit_identical_shared_views(self):
        source = self._arrays()
        with WeightStore(label="t") as store:
            views = store.publish(source, scalars={"w_pr": 0.5})
            assert set(views) == set(source)
            for key, view in views.items():
                np.testing.assert_array_equal(view, source[key])
            # views alias the store's segments, not the caller's arrays
            for key in views:
                assert views[key] is not source[key]
                np.testing.assert_array_equal(
                    store.arrays()[key], source[key]
                )

    def test_generation_increments_per_publish(self):
        with WeightStore(label="t") as store:
            assert store.generation == 0
            store.publish(self._arrays(1))
            assert store.generation == 1
            store.publish(self._arrays(2))
            assert store.generation == 2

    def test_republish_unlinks_previous_generation(self):
        before = set(leaked_segment_names())
        with WeightStore(label="t") as store:
            store.publish(self._arrays(1))
            first_gen = {
                spec["segment"]
                for spec in store.manifest()["arrays"].values()
            }
            store.publish(self._arrays(2))
            live = set(live_segment_names())
            assert not first_gen & live  # old generation gone
        assert _our_leaks(before) == []  # close() unlinked the rest

    def test_manifest_describes_current_generation(self):
        with WeightStore(label="serve-model") as store:
            store.publish(self._arrays(), scalars={"w_pr": 0.25, "w_su": 2.0})
            manifest = store.manifest()
            assert manifest["label"] == "serve-model"
            assert manifest["generation"] == 1
            assert manifest["scalars"] == {"w_pr": 0.25, "w_su": 2.0}
            for key, spec in manifest["arrays"].items():
                assert spec["shape"] == list(store.arrays()[key].shape)
                assert spec["dtype"] == store.arrays()[key].dtype.name
            # plain JSON-able data: another process can be handed this
            import json

            json.dumps(manifest)

    def test_attach_manifest_roundtrip(self):
        """A crash-replaced worker attaches to the same physical pages
        instead of re-loading the checkpoint."""
        source = self._arrays(5)
        with WeightStore(label="t") as store:
            store.publish(source)
            with attach_manifest(store.manifest()) as attached:
                assert set(attached) == set(source)
                for key, view in attached.items():
                    np.testing.assert_array_equal(view, source[key])
                # owner-side mutation is visible through the attachment
                store.arrays()["fc.0"][0, 0] = 123.0
                assert attached["fc.0"][0, 0] == 123.0

    def test_close_idempotent_and_empties_store(self):
        store = WeightStore(label="t")
        store.publish(self._arrays())
        store.close()
        store.close()
        assert store.arrays() == {}
        assert store.manifest()["arrays"] == {}


class TestEngineKillRegression:
    def test_killed_worker_leaves_no_segments(self, monkeypatch):
        """Satellite regression: chaos-kill a fault-sim worker mid-task and
        assert /dev/shm holds no fabric segments afterwards (and that the
        recovered result is still bit-identical to the serial oracle)."""
        before = set(leaked_segment_names())
        nl = generate_design(n_gates=80, seed=31)
        fsim = FaultSimulator(
            nl,
            config=PpsfpConfig(
                workers=2,
                shards=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            ),
        )
        rng = np.random.default_rng(2)
        values = fsim.good_values(fsim.simulator.random_source_words(1, rng))
        faults = full_fault_list(nl)
        try:
            serial = fsim.detection_masks(faults, values, backend="batched")
            monkeypatch.setenv("REPRO_CHAOS", "kill")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parallel = fsim.detection_masks(
                    faults, values, backend="parallel"
                )
        finally:
            monkeypatch.delenv("REPRO_CHAOS", raising=False)
            fsim.close()
        np.testing.assert_array_equal(serial, parallel)
        assert _our_leaks(before) == []
