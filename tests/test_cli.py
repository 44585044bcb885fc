"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import json
import os
import re
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

_SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.command == "evaluate"
        assert args.dataset == "nell"
        assert args.design == "twcs"
        assert args.moe == 0.05
        assert args.second_stage_size == 5

    def test_global_options_accepted_after_subcommand(self):
        args = build_parser().parse_args(["evaluate", "--seed", "9", "--movie-scale", "0.02"])
        assert args.seed == 9
        assert args.movie_scale == 0.02

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nonsense"])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--design", "magic"])

    def test_evaluate_rpc_hardening_flags(self):
        args = build_parser().parse_args(
            [
                "evaluate",
                "--transport",
                "rpc",
                "--nodes",
                "h1:1,h2:2",
                "--secret-file",
                "cluster.secret",
                "--rpc-window",
                "8",
                "--accept-joins",
                "127.0.0.1:0",
            ]
        )
        assert args.secret_file == "cluster.secret"
        assert args.rpc_window == 8
        assert args.accept_joins == "127.0.0.1:0"

    def test_monitor_shares_the_rpc_hardening_flags(self):
        args = build_parser().parse_args(["monitor", "--transport", "rpc", "--nodes", "h:1"])
        assert args.secret_file is None
        assert args.rpc_window == 4
        assert args.accept_joins is None

    def test_worker_join_mode_flags(self):
        args = build_parser().parse_args(
            [
                "worker",
                "--join",
                "master:7000",
                "--base-dir",
                "/tmp/cache",
                "--secret-file",
                "s",
                "--task-delay",
                "0.25",
            ]
        )
        assert args.join == "master:7000"
        assert args.listen is None
        assert args.secret_file == "s"
        assert args.task_delay == 0.25

    def test_worker_requires_exactly_one_of_listen_and_join(self):
        with pytest.raises(SystemExit):
            main(["worker", "--base-dir", "/tmp/cache"])
        with pytest.raises(SystemExit):
            main(["worker", "--listen", "a:1", "--join", "b:2", "--base-dir", "/tmp/cache"])


class TestCommands:
    def test_datasets_command(self, capsys):
        exit_code = main(["datasets", "--movie-scale", "0.004"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "NELL-like" in out
        assert "gold_accuracy" in out

    def test_evaluate_command_nell_twcs(self, capsys):
        exit_code = main(
            ["evaluate", "--dataset", "nell", "--design", "twcs", "--moe", "0.05", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "estimated accuracy" in out
        assert "annotation cost" in out

    def test_default_evaluate_exports_its_round_and_unit_counters(self, capsys, tmp_path):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset()
        target = tmp_path / "metrics.json"
        assert main(["evaluate", "--metrics-out", str(target)]) == 0
        units = int(re.search(r"sample units\s+: (\d+)", capsys.readouterr().out).group(1))
        snapshot = json.loads(target.read_text())
        series = {entry["name"]: entry["value"] for entry in snapshot["series"]}
        assert series["sampling_units_total"] == units
        assert series["sampling_rounds_total"] * 10 == units

    def test_evaluate_command_srs_on_yago(self, capsys):
        exit_code = main(["evaluate", "--dataset", "yago", "--design", "srs", "--seed", "2"])
        assert exit_code == 0
        assert "margin of error" in capsys.readouterr().out

    def test_evaluate_exit_code_reflects_unmet_target(self, capsys):
        # A 0.1% MoE on NELL with a WCS design cannot be met cheaply; cap the
        # evaluation through the tiny dataset itself: use rcs which exhausts
        # clusters and still fails the target.
        exit_code = main(
            ["evaluate", "--dataset", "nell", "--design", "rcs", "--moe", "0.011", "--seed", "0"]
        )
        assert exit_code in (0, 1)  # depends on whether the census satisfies the MoE

    def test_experiment_table4(self, capsys):
        exit_code = main(
            ["experiment", "table4", "--trials", "1", "--movie-scale", "0.004", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 4" in out
        assert "SRS" in out and "TWCS" in out

    def test_experiment_unknown_name_via_main(self, capsys):
        # Bypass argparse choices to exercise the guard inside _cmd_experiment.
        from repro import cli

        class FakeArgs:
            name = "does-not-exist"
            trials = 1
            seed = 0
            movie_scale = 0.004

        assert cli._cmd_experiment(FakeArgs()) == 2


class TestMonitorCommand:
    def test_monitor_columnar_runs_and_prints_trajectory(self, capsys):
        exit_code = main(
            [
                "monitor",
                "--dataset",
                "nell",
                "--backend",
                "columnar",
                "--batches",
                "2",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "position surface" in out
        assert "total-cost(h)" in out
        # One record line per state: base + 2 batches.
        assert len([line for line in out.splitlines() if line.startswith("    ")]) == 3

    def test_monitor_snapshot_save_then_resume(self, capsys, tmp_path):
        target = str(tmp_path / "base-snap")
        args = [
            "monitor",
            "--dataset",
            "nell",
            "--backend",
            "columnar",
            "--batches",
            "1",
            "--seed",
            "2",
            "--snapshot",
            target,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "snapshot saved" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "reopened from" in second
        # Identical trajectory on resume: same seed, same persisted labels.
        def trajectory(text: str) -> str:
            return text[text.index("batch  estimate") :]

        assert trajectory(first) == trajectory(second)


class TestSnapshotEvaluateRoundTrip:
    def test_evaluate_from_labelled_snapshot(self, capsys, tmp_path):
        target = str(tmp_path / "nell.npz")
        assert main(["snapshot", "--dataset", "nell", "--out", target, "--with-labels"]) == 0
        capsys.readouterr()
        exit_code = main(["evaluate", "--from-snapshot", target, "--seed", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "estimated accuracy" in out

    def test_classic_loop_from_snapshot_matches_the_built_dataset(self, capsys, tmp_path):
        # NELL plans one shard, so this runs the classic single-stream loop,
        # which labels positions straight from the stored array.
        target = str(tmp_path / "nell.npz")
        assert main(["snapshot", "--dataset", "nell", "--out", target, "--with-labels"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--dataset", "nell", "--seed", "0"]) == 0
        expected = capsys.readouterr().out
        assert main(["evaluate", "--from-snapshot", target, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "shards=" not in out
        assert out == expected

    def test_evaluate_from_snapshot_without_labels_fails(self, capsys, tmp_path):
        target = str(tmp_path / "bare.npz")
        assert main(["snapshot", "--dataset", "nell", "--out", target]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["evaluate", "--from-snapshot", target])

    @pytest.mark.parametrize(
        "kind", ["missing", "empty", "text", "foreign-archive", "bare-directory", "not-a-database"]
    )
    def test_evaluate_from_unreadable_snapshot_fails_cleanly(self, tmp_path, kind):
        # Anything that is not a snapshot exits with one typed message, not a
        # FileNotFoundError / numpy "pickled data" / sqlite traceback.
        names = {"bare-directory": "bad", "not-a-database": "bad.sqlite"}
        target = tmp_path / names.get(kind, "bad.npz")
        if kind == "empty":
            target.write_bytes(b"")
        elif kind == "text":
            target.write_text("subject\tpredicate\tobject\n")
        elif kind == "foreign-archive":
            np.savez(target, weights=np.arange(3))
        elif kind == "bare-directory":
            target.mkdir()
        elif kind == "not-a-database":
            target.write_bytes(b"SQLite format 3\x00" + b"\xff" * 4096)
        with pytest.raises(SystemExit, match=f"^cannot open snapshot {re.escape(str(target))}: "):
            main(["evaluate", "--from-snapshot", str(target)])

    @pytest.mark.parametrize("layout", ["npz", "sqlite"])
    def test_evaluate_from_snapshot_with_misaligned_labels_fails(self, capsys, tmp_path, layout):
        # One label short: pairing labels with triples must refuse, not
        # silently drop the last triple's label.
        target = tmp_path / f"nell.{layout}"
        backend = ["--backend", "sqlite"] if layout == "sqlite" else []
        args = ["snapshot", "--dataset", "nell", "--out", str(target), "--with-labels"]
        assert main(args + backend) == 0
        capsys.readouterr()
        if layout == "npz":
            with np.load(target) as archive:
                arrays = {name: archive[name] for name in archive.files}
            arrays["labels"] = arrays["labels"][:-1]
            np.savez(target, **arrays)
        else:
            with closing(sqlite3.connect(target)) as conn:
                conn.execute("UPDATE meta SET value = value - 1 WHERE key = 'labels_len'")
                conn.commit()
        message = f"^cannot open snapshot {re.escape(str(target))}: label array"
        with pytest.raises(SystemExit, match=message):
            main(["evaluate", "--from-snapshot", str(target)])


class TestLabelArrayThroughConversions:
    """A dataset's label array carries over to every backend it is converted to.

    With every triple scan of the columnar and SQLite stores refused, the
    commands must still print what they printed when they materialised each
    triple to rebuild the labels.
    """

    EVALUATE_MOVIE = (
        "dataset            : MOVIE-like\n"
        "design             : twcs (m=5, shards=8, transport=auto:serial)\n"
        "true accuracy      : 90.0% (hidden from the estimator)\n"
        "estimated accuracy : 89.8%\n"
        "95% interval     : [88.8%, 90.8%]\n"
        "margin of error    : 0.010 (target 0.01)\n"
        "sample units       : 950 (95 rounds)\n"
        "triples annotated  : 4114\n"
        "entities identified: 688\n"
        "annotation cost    : 37.17 hours\n"
    )
    SNAPSHOT_LAYOUTS = {
        "columnar": ("kg.npz", "stored (format v2)", "npz archive"),
        "sqlite": ("kg.sqlite", "stored (meta table)", "sqlite database (WAL)"),
    }

    @pytest.fixture()
    def no_triple_scans(self, monkeypatch):
        from repro.storage.columnar import ColumnarStore
        from repro.storage.sqlite import SqliteStore

        def refuse(store):
            raise AssertionError(f"{type(store).__name__} materialised every triple")

        monkeypatch.setattr(ColumnarStore, "iter_triples", refuse)
        monkeypatch.setattr(SqliteStore, "iter_triples", refuse)

    @pytest.mark.parametrize("backend", ["memory", "columnar", "sqlite"])
    def test_evaluate(self, capsys, no_triple_scans, backend):
        args = ["evaluate", "--dataset", "movie", "--moe", "0.01", "--backend", backend]
        assert main(args) == 0
        assert capsys.readouterr().out == self.EVALUATE_MOVIE

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_snapshot_with_labels(self, capsys, tmp_path, no_triple_scans, backend):
        name, label_note, layout = self.SNAPSHOT_LAYOUTS[backend]
        target = tmp_path / name
        args = ["snapshot", "--dataset", "movie", "--with-labels", "--backend", backend]
        assert main([*args, "--out", str(target)]) == 0
        assert capsys.readouterr().out == (
            "dataset  : MOVIE-like\n"
            "entities : 2888\n"
            "triples  : 25388\n"
            f"labels   : {label_note}\n"
            f"snapshot : {target} ({layout})\n"
        )


class TestAllocationFlag:
    def test_serial_twcs_strat_honours_allocation(self):
        """--allocation must reach the in-process StratifiedTWCSDesign too."""
        from repro.cli import _build_design, _load_dataset

        data = _load_dataset("nell", 0, 0.01)
        design = _build_design("twcs-strat", data, 5, 0, allocation="neyman")
        assert design.allocation == "neyman"
        assert _build_design("twcs-strat", data, 5, 0).allocation == "proportional"

    def test_serial_twcs_strat_neyman_runs(self, capsys):
        code = main(
            [
                "evaluate",
                "--dataset",
                "nell",
                "--design",
                "twcs-strat",
                "--allocation",
                "neyman",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "estimated accuracy" in out


class TestRpcOnlyFlags:
    @pytest.mark.parametrize("command", ["evaluate", "monitor"])
    @pytest.mark.parametrize(
        "flag", [["--nodes", "127.0.0.1:1"], ["--accept-joins", "127.0.0.1:0"]]
    )
    @pytest.mark.parametrize("transport", [[], ["--transport", "pool"]])
    def test_node_flags_require_the_rpc_transport(self, command, flag, transport):
        # Without --transport rpc nothing would dial the nodes or open the
        # join listener, so the flags must fail loudly, not be ignored.
        with pytest.raises(SystemExit, match="--transport rpc"):
            main([command, "--dataset", "nell", *transport, *flag])


class TestHermeticity:
    def test_commands_write_nothing_under_home_or_cache(self, capsys, tmp_path, monkeypatch):
        home, cache = tmp_path / "home", tmp_path / "cache"
        home.mkdir()
        cache.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        assert main(["evaluate", "--dataset", "nell", "--shards", "2", "--seed", "7"]) == 0
        main(
            [
                "monitor",
                "--dataset",
                "nell",
                "--backend",
                "columnar",
                "--evaluator",
                "ss",
                "--shards",
                "2",
                "--batches",
                "1",
                "--seed",
                "7",
            ]
        )
        assert "shards=2" in capsys.readouterr().out
        assert list(home.iterdir()) == []
        assert list(cache.iterdir()) == []


def test_importing_the_cli_loads_neither_networkx_nor_scipy():
    # networkx serves only the KGEval baseline and scipy only the cost-model
    # fit; the CLI and the library import must pay for neither.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, repro, repro.cli; "
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
