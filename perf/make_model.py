"""Train the benchmark's fixed classifier asset, ``perf/assets/gcn_w15.npz``.

The workloads score with a committed model so that trainer changes cannot
shift them.  The positive class is weighted 15x: an unweighted model
predicts zero positives on generated designs and the OPI loop would exit
at once.  Re-run only to replace the asset on purpose, then update
``perf/assets/gcn_w15.sha256`` with the printed digest (about 25 s).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR.parent / "src"))

ASSET = PERF_DIR / "assets" / "gcn_w15.npz"
DESIGN_GATES = 3000
DESIGN_SEEDS = (0, 1)
EPOCHS = 120
CLASS_WEIGHTS = (1.0, 15.0)


def main() -> int:
    from repro import api

    graphs = []
    for seed in DESIGN_SEEDS:
        netlist = api.generate_design(DESIGN_GATES, seed=seed)
        labels = api.label_nodes(netlist).labels
        graphs.append(api.build_graph(netlist, labels=labels))
        print(f"design seed={seed}: {netlist.num_nodes} nodes, {int(labels.sum())} positive")
    trained = api.train(
        graphs,
        config=api.TrainConfig(epochs=EPOCHS, class_weights=CLASS_WEIGHTS),
        gcn=api.default_gcn_config(seed=0),
    )
    print(f"train accuracy {trained.history.final_train_accuracy():.4f}")
    trained.save(ASSET)
    print(f"{hashlib.sha256(ASSET.read_bytes()).hexdigest()}  {ASSET.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
