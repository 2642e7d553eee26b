"""OPI flow resilience: checkpoint/resume, stall watchdog, degraded predictor."""

import numpy as np
import pytest

from repro.circuit import generate_design
from repro.core import GCN, GCNConfig, MultiStageConfig, MultiStageGCN, TrainConfig
from repro.core.graphdata import GraphData
from repro.core.serialize import save_cascade
from repro.flow.insertion import OpiConfig, run_gcn_opi
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.degrade import load_predictor
from repro.resilience.errors import CheckpointCorruptError, ConvergenceError

from tests.circuit.reference_frontend import structure_digest
from tests.flow.test_impact import co_threshold_predictor


@pytest.fixture
def netlist():
    return generate_design(200, seed=47)


class TestOpiCheckpointResume:
    def test_interrupted_flow_resumes_to_same_result(self, netlist, tmp_path):
        predictor = co_threshold_predictor(threshold=6.0)
        config = OpiConfig(max_iterations=30)
        reference = run_gcn_opi(netlist, predictor, config)

        # "Interrupt" after two iterations, then resume from the snapshot.
        ckpt = Checkpointer(tmp_path / "opi")
        run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=2), checkpoint=ckpt)
        assert ckpt.latest() is not None
        resumed = run_gcn_opi(netlist, predictor, config, checkpoint=ckpt)

        assert resumed.inserted == reference.inserted
        assert resumed.positives_history == reference.positives_history
        assert resumed.n_ops == reference.n_ops
        assert structure_digest(resumed.netlist) == structure_digest(reference.netlist)

    def test_completed_flow_not_rerun(self, netlist, tmp_path):
        predictor = co_threshold_predictor(threshold=6.0)
        config = OpiConfig(max_iterations=30)
        ckpt = Checkpointer(tmp_path / "opi")
        first = run_gcn_opi(netlist, predictor, config, checkpoint=ckpt)
        again = run_gcn_opi(netlist, predictor, config, checkpoint=ckpt)
        assert again.inserted == first.inserted

    def test_checkpoint_from_other_design_rejected(self, netlist, tmp_path):
        predictor = co_threshold_predictor(threshold=6.0)
        ckpt = Checkpointer(tmp_path / "opi")
        run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=2), checkpoint=ckpt)
        other = generate_design(150, seed=3)
        with pytest.raises(CheckpointCorruptError, match="nodes"):
            run_gcn_opi(other, predictor, OpiConfig(max_iterations=2), checkpoint=ckpt)


    @pytest.mark.parametrize(
        "inserted, problem",
        [
            # An OBS cell's id: the flow only ever targets original cells.
            (lambda n, free: [free[0], n], "not an unobserved cell"),
            # A primary output is observed already: never a candidate.
            (lambda n, free: [free[0], n - 1], "not an unobserved cell"),
            (lambda n, free: [free[0], free[1], free[0]], "twice"),
        ],
    )
    def test_checkpoint_the_flow_cannot_write_is_rejected(
        self, netlist, tmp_path, inserted, problem
    ):
        n = netlist.num_nodes
        outputs = set(netlist.observation_sites)
        assert n - 1 in outputs
        free = [v for v in range(n) if v not in outputs]
        ckpt = Checkpointer(tmp_path / "opi")
        ckpt.save(
            1,
            {
                "inserted": np.asarray(inserted(n, free), dtype=np.int64),
                "positives_history": np.asarray([5], dtype=np.int64),
            },
            meta={"iteration": 1, "netlist": netlist.name, "n_nodes": n},
        )
        predictor = co_threshold_predictor(threshold=6.0)
        with pytest.raises(CheckpointCorruptError, match=problem):
            run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=2), checkpoint=ckpt)


class TestStallWatchdog:
    def test_stalled_flow_raises_convergence_error(self, netlist):
        # With selection disabled nothing is ever inserted, so the positive
        # count never drops and the watchdog must fire.
        predictor = co_threshold_predictor(threshold=6.0)
        config = OpiConfig(
            max_iterations=30,
            select_fraction=0.0,
            min_per_iteration=0,
            stall_patience=3,
        )
        with pytest.raises(ConvergenceError) as excinfo:
            run_gcn_opi(netlist, predictor, config)
        diag = excinfo.value.diagnostics
        assert diag["metric"] == "positive predictions"
        assert diag["stalled_iterations"] >= 3

    def test_healthy_flow_unaffected_by_watchdog(self, netlist):
        predictor = co_threshold_predictor(threshold=6.0)
        with_dog = run_gcn_opi(
            netlist, predictor, OpiConfig(max_iterations=30, stall_patience=5)
        )
        without = run_gcn_opi(netlist, predictor, OpiConfig(max_iterations=30))
        assert with_dog.inserted == without.inserted

    def test_watchdog_state_survives_resume(self, netlist, tmp_path):
        predictor = co_threshold_predictor(threshold=6.0)
        stalled = dict(select_fraction=0.0, min_per_iteration=0)
        ckpt = Checkpointer(tmp_path / "opi")
        # Interrupt inside the stall window, resume: the primed history
        # still counts toward the patience budget, so the watchdog fires
        # within (patience - already stalled) further iterations.
        run_gcn_opi(
            netlist, predictor, OpiConfig(max_iterations=3, **stalled), checkpoint=ckpt
        )
        with pytest.raises(ConvergenceError) as excinfo:
            run_gcn_opi(
                netlist,
                predictor,
                OpiConfig(max_iterations=30, stall_patience=4, **stalled),
                checkpoint=ckpt,
            )
        assert excinfo.value.diagnostics["iteration"] <= 6


class TestDegradedPredictorRunsOpi:
    def test_corrupt_cascade_degrades_and_flow_completes(self, netlist, tmp_path):
        """ISSUE acceptance: a corrupt cascade stage degrades to the SCOAP
        heuristic with a ResourceWarning instead of crashing the flow."""
        graph = GraphData.from_netlist(netlist)
        labels = (graph.attributes[:, 3] > np.median(graph.attributes[:, 3]))
        train_graph = GraphData(
            pred=graph.pred,
            succ=graph.succ,
            attributes=graph.attributes,
            labels=labels.astype(np.int64),
        )
        cascade = MultiStageGCN(
            MultiStageConfig(
                n_stages=2,
                gcn=GCNConfig(hidden_dims=(8,), fc_dims=(8,)),
                train=TrainConfig(epochs=5, eval_every=5),
            )
        )
        cascade.fit([train_graph])
        path = save_cascade(cascade, tmp_path / "cascade.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])

        with pytest.warns(ResourceWarning, match="SCOAP heuristic"):
            loaded = load_predictor(path)
        assert loaded.level == "heuristic"
        result = run_gcn_opi(netlist, loaded.predict, OpiConfig(max_iterations=10))
        assert result.netlist.num_nodes >= netlist.num_nodes
