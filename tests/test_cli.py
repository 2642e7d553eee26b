"""CLI entry points."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestCommands:
    def test_generate_then_analyze_then_atpg(self, tmp_path, capsys):
        path = tmp_path / "tiny.bench"
        assert main(["generate", str(path), "--gates", "150", "--seed", "2"]) == 0
        assert path.exists()
        assert (
            main(["analyze", str(path), "--patterns", "64", "--threshold", "0.02"])
            == 0
        )
        out = capsys.readouterr().out
        assert "difficult-to-observe" in out
        assert main(["atpg", str(path), "--max-random", "256"]) == 0
        out = capsys.readouterr().out
        assert "coverage=" in out

    def test_generate_writes_parseable_bench(self, tmp_path):
        from repro.circuit import load_bench

        path = tmp_path / "x.bench"
        main(["generate", str(path), "--gates", "120"])
        netlist = load_bench(path)
        assert netlist.num_nodes > 120

    def test_experiment_table1_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCALE", "0.06")
        checkout = Path("results")
        before = sorted(checkout.iterdir()) if checkout.exists() else None
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "B4" in out
        # The run's manifest went where conftest pointed REPRO_RESULTS,
        # not into the checkout the suite runs from.
        assert list((tmp_path / "results").glob("experiment-table1-*"))
        after = sorted(checkout.iterdir()) if checkout.exists() else None
        assert after == before


class TestErrorHandling:
    """Bad inputs exit with code 3 and one line on stderr — no traceback."""

    def test_missing_bench_file(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "ghost.bench")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_bench_file(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(G1)\nG2 = FROB(G1)\n")
        code = main(["atpg", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: BenchParseError:")
        assert len(err.strip().splitlines()) == 1

    def test_directory_instead_of_file(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_checkpoint_dir_flag_parsed(self, tmp_path):
        args = build_parser().parse_args(
            ["experiment", "table1", "--checkpoint-dir", str(tmp_path)]
        )
        assert args.checkpoint_dir == str(tmp_path)

    def test_checkpoint_dir_exported_to_experiments(
        self, tmp_path, capsys, monkeypatch
    ):
        # table1 trains nothing, so it exercises the flag's export without
        # the cost of a model fit; the env var is what experiments consume.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCALE", "0.06")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        ckpt_dir = tmp_path / "ckpts"
        assert (
            main(["experiment", "table1", "--checkpoint-dir", str(ckpt_dir)]) == 0
        )
        import os

        assert os.environ["REPRO_CHECKPOINT_DIR"] == str(ckpt_dir)

    def test_checkpoint_env_var_reaches_training(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.core import GCNConfig, GraphData, TrainConfig
        from repro.circuit import generate_design
        from repro.experiments.common import fit_gcn_cached

        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpts"))
        netlist = generate_design(100, seed=8)
        graph = GraphData.from_netlist(
            netlist, labels=np.zeros(netlist.num_nodes, dtype=np.int64)
        )
        graph.labels[::4] = 1
        fit_gcn_cached(
            [graph],
            GCNConfig(hidden_dims=(8,), fc_dims=(8,)),
            TrainConfig(epochs=30, eval_every=30),
            scale=1.0,
            cache=False,
        )
        assert list((tmp_path / "ckpts").rglob("ckpt_*.npz"))


class TestExitCodeMapping:
    """Distinct exit statuses per error class: config=2, input=3, runtime=4."""

    def test_mapping_by_error_class(self):
        from repro.circuit.bench import BenchParseError
        from repro.circuit.validate import NetlistValidationError
        from repro.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_RUNTIME, exit_code_for
        from repro.resilience.errors import (
            CheckpointCorruptError,
            ConfigError,
            ConvergenceError,
            NumericalError,
            WorkerFailedError,
        )

        assert exit_code_for(ConfigError("bad limits")) == EXIT_CONFIG
        for exc in (
            BenchParseError("line 1: nope"),
            NetlistValidationError("no observation sites"),
            CheckpointCorruptError("truncated"),
            FileNotFoundError("ghost.bench"),
            IsADirectoryError("a dir"),
            PermissionError("locked"),
        ):
            assert exit_code_for(exc) == EXIT_INPUT, exc
        for exc in (
            WorkerFailedError("worker died"),
            ConvergenceError("stalled"),
            NumericalError("NaN loss"),
        ):
            assert exit_code_for(exc) == EXIT_RUNTIME, exc

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        # argparse re-wraps the epilog, so compare whitespace-normalised.
        out = " ".join(capsys.readouterr().out.split())
        assert "exit status" in out
        assert "2 for configuration" in out
        assert "3 for bad inputs" in out
        assert "4 for runtime" in out

    def test_serve_bad_config_exits_2(self, capsys):
        code = main(["serve", "--workers", "0", "--port", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ConfigError:")


class TestServeParser:
    def test_serve_flags_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--port", "0", "--workers", "3"]
        )
        assert args.model == "m.npz"
        assert args.port == 0
        assert args.workers == 3
        assert args.queue_capacity == 16
        assert args.debug is False
