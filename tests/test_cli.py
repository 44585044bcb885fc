"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import json
import os
import re
import sqlite3
import subprocess
import sys
from contextlib import closing
from functools import partial
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--workers", "2"],
            ["evaluate", "--shards", "2"],
            ["evaluate", "--transport", "serial"],
            ["evaluate", "--nodes", "127.0.0.1:1"],
            ["evaluate", "--secret-file", "cluster.secret"],
            ["evaluate", "--rpc-window", "8"],
            ["evaluate", "--accept-joins", "127.0.0.1:0"],
            ["monitor", "--workers", "2"],
            ["monitor", "--shards", "2"],
            ["monitor", "--transport", "serial"],
            ["monitor", "--nodes", "127.0.0.1:1"],
            ["monitor", "--secret-file", "cluster.secret"],
            ["monitor", "--rpc-window", "8"],
            ["monitor", "--accept-joins", "127.0.0.1:0"],
            ["worker", "--listen", "127.0.0.1:0", "--base-dir", "/tmp/cache"],
            ["serve", "--fleet-secret-file", "fleet.secret"],
            ["client", "run", "--connect", "127.0.0.1:1", "--transport", "serial"],
            ["client", "run", "--connect", "127.0.0.1:1", "--workers", "2"],
            ["client", "run", "--connect", "127.0.0.1:1", "--shards", "2"],
            ["client", "run", "--connect", "127.0.0.1:1", "--nodes", "127.0.0.1:1"],
            ["client", "run", "--connect", "127.0.0.1:1", "--rpc-window", "8"],
            ["snapshot", "--out", "kg.snap", "--compress"],
            ["monitor", "--backend", "sqlite"],
        ],
        ids=" ".join,
    )
    def test_removed_engine_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--backend", "memory"],
            ["scenario", "run", "--backend", "memory"],
            ["evaluate", "--from-snapshot", "kg.sqlite", "--backend", "sqlite"],
        ],
        ids=" ".join,
    )
    def test_backend_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "argument --backend" in capsys.readouterr().err

    def test_backend_flags_default_to_columnar(self):
        parser = build_parser()
        assert parser.parse_args(["evaluate"]).backend == "columnar"
        assert parser.parse_args(["scenario", "run"]).backend == "columnar"


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

    def test_evaluate_exit_code_reflects_unmet_target(self, capsys, monkeypatch):
        # No CLI flag caps the sample, so cap it in the config: 30 units
        # cannot reach a 1% MoE on NELL, and the run must say so by exit 1.
        from repro import cli
        from repro.core.config import EvaluationConfig

        monkeypatch.setattr(cli, "EvaluationConfig", partial(EvaluationConfig, max_units=30))
        args = ["evaluate", "--dataset", "nell", "--design", "twcs", "--moe", "0.01"]
        exit_code = main([*args, "--seed", "0"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "sample units       : 30 " in out
        margin = re.search(r"margin of error    : (\d\.\d+) \(target 0\.01\)", out)
        assert margin is not None and float(margin.group(1)) > 0.01

    def test_evaluate_census_reports_zero_margin(self, capsys):
        # rcs at seed 3 draws all 817 NELL clusters: the estimate is the true
        # accuracy, so its interval is a point and the 5% target is met.
        exit_code = main(["evaluate", "--dataset", "nell", "--design", "rcs", "--seed", "3"])
        out = capsys.readouterr().out
        assert "sample units       : 817 " in out
        assert "[90.1%, 90.1%]" in out
        assert "margin of error    : 0.000 (target 0.05)" in out
        assert exit_code == 0

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


def _monitor_trajectory(text: str) -> str:
    """The trajectory table of a ``monitor`` run (everything after the base KG line)."""
    return text[text.index("batch  estimate") :]


class TestMonitorCommand:
    def test_monitor_columnar_runs_and_prints_trajectory(self, capsys):
        exit_code = main(
            [
                "monitor",
                "--dataset",
                "nell",
                "--batches",
                "2",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "evaluator: ss (columnar backend)" in out.splitlines()
        assert "total-cost(h)" in out
        # One record line per state: base + 2 batches.
        assert len([line for line in out.splitlines() if line.startswith("    ")]) == 3

    def test_monitor_snapshot_save_then_resume(self, capsys, tmp_path):
        target = str(tmp_path / "base-snap")
        args = [
            "monitor",
            "--dataset",
            "nell",
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
        assert _monitor_trajectory(first) == _monitor_trajectory(second)

    def test_monitor_reopens_a_sqlite_snapshot(self, capsys, tmp_path):
        target = str(tmp_path / "nell.sqlite")
        snapshot = ["snapshot", "--dataset", "nell", "--backend", "sqlite", "--with-labels"]
        assert main(snapshot + ["--seed", "2", "--out", target]) == 0
        capsys.readouterr()
        monitor = ["monitor", "--dataset", "nell", "--batches", "2", "--seed", "2"]
        assert main(monitor) == 0
        built = capsys.readouterr().out
        assert main(monitor + ["--snapshot", target]) == 0
        reopened = capsys.readouterr().out
        assert f"(reopened from {target})" in reopened
        assert _monitor_trajectory(reopened) == _monitor_trajectory(built)

    def test_monitor_on_a_corrupt_snapshot_fails_cleanly(self, capsys, tmp_path):
        target = tmp_path / "nell-snap"
        assert main(["snapshot", "--dataset", "nell", "--out", str(target), "--with-labels"]) == 0
        capsys.readouterr()
        (target / "labels.npy").write_bytes(b"not an array")
        monitor = ["monitor", "--batches", "1", "--snapshot", str(target)]
        message = f"^cannot open snapshot {re.escape(str(target))}: "
        with pytest.raises(SystemExit, match=message) as raised:
            main(monitor)
        # A string exit code: the interpreter prints it as one line, exit status 1.
        assert isinstance(raised.value.code, str)
        assert "\n" not in raised.value.code


class TestSnapshotEvaluateRoundTrip:
    def test_evaluate_from_labelled_snapshot(self, capsys, tmp_path):
        target = str(tmp_path / "nell.snap")
        assert main(["snapshot", "--dataset", "nell", "--out", target, "--with-labels"]) == 0
        capsys.readouterr()
        exit_code = main(["evaluate", "--from-snapshot", target, "--seed", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "estimated accuracy" in out

    def test_classic_loop_from_snapshot_matches_the_built_dataset(self, capsys, tmp_path):
        # The loop labels positions straight from the stored array.
        target = str(tmp_path / "nell.snap")
        assert main(["snapshot", "--dataset", "nell", "--out", target, "--with-labels"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--dataset", "nell", "--seed", "0"]) == 0
        expected = capsys.readouterr().out
        assert main(["evaluate", "--from-snapshot", target, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "shards=1)" in out
        assert out == expected

    def test_evaluate_from_snapshot_without_labels_fails(self, capsys, tmp_path):
        target = str(tmp_path / "bare.snap")
        assert main(["snapshot", "--dataset", "nell", "--out", target]) == 0
        capsys.readouterr()
        message = f"^cannot open snapshot {re.escape(target)}: it carries no label array"
        with pytest.raises(SystemExit, match=message):
            main(["evaluate", "--from-snapshot", target])

    @pytest.mark.parametrize(
        "kind",
        [
            "missing",
            "empty",
            "text",
            "foreign-archive",
            "bare-directory",
            "not-a-database",
            "short-column",
            "zip-column",
        ],
    )
    def test_evaluate_from_unreadable_snapshot_fails_cleanly(self, tmp_path, kind):
        # Anything that is not a snapshot exits with one typed message, not a
        # FileNotFoundError / numpy "pickled data" / sqlite traceback, and a
        # damaged column is refused on open, not when the graph is read.
        names = {"foreign-archive": "bad.npz", "not-a-database": "bad.sqlite"}
        target = tmp_path / names.get(kind, "bad.snap")
        if kind in ("short-column", "zip-column"):
            snapshot = ["snapshot", "--dataset", "nell", "--with-labels"]
            assert main(snapshot + ["--out", str(target)]) == 0
        if kind == "short-column":
            np.save(target / "predicates.npy", np.load(target / "predicates.npy")[:-5])
        elif kind == "zip-column":
            subjects = np.load(target / "subjects.npy")
            with open(target / "subjects.npy", "wb") as handle:
                np.savez(handle, subjects=subjects)
        elif kind == "empty":
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

    @pytest.mark.parametrize("layout", ["snap", "sqlite"])
    def test_evaluate_from_snapshot_with_misaligned_labels_fails(self, capsys, tmp_path, layout):
        # One label short: pairing labels with triples must refuse, not
        # silently drop the last triple's label.
        target = tmp_path / f"nell.{layout}"
        backend = ["--backend", "sqlite"] if layout == "sqlite" else []
        args = ["snapshot", "--dataset", "nell", "--out", str(target), "--with-labels"]
        assert main(args + backend) == 0
        capsys.readouterr()
        if layout == "snap":
            np.save(target / "labels.npy", np.load(target / "labels.npy")[:-1])
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
        "design             : twcs (m=5, shards=1)\n"
        "true accuracy      : 90.0% (hidden from the estimator)\n"
        "estimated accuracy : 89.8%\n"
        "95% interval     : [88.8%, 90.8%]\n"
        "margin of error    : 0.010 (target 0.01)\n"
        "sample units       : 990 (99 rounds)\n"
        "triples annotated  : 4205\n"
        "entities identified: 705\n"
        "annotation cost    : 38.01 hours\n"
    )
    SNAPSHOT_LAYOUTS = {
        "columnar": ("kg.snap", "stored (format v2)", "mmap-able directory"),
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

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
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
        from repro.generators import make_dataset
        from repro.sampling import make_design

        graph = make_dataset("nell", 0, 0.01).graph
        design = make_design("twcs-strat", graph, 5, 0, allocation="neyman")
        assert design.allocation == "neyman"
        assert make_design("twcs-strat", graph, 5, 0).allocation == "proportional"

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


class TestHermeticity:
    def test_commands_write_nothing_under_home_or_cache(self, capsys, tmp_path, monkeypatch):
        home, cache = tmp_path / "home", tmp_path / "cache"
        home.mkdir()
        cache.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        assert main(["evaluate", "--dataset", "nell", "--seed", "7"]) == 0
        main(
            [
                "monitor",
                "--dataset",
                "nell",
                "--evaluator",
                "ss",
                "--batches",
                "1",
                "--seed",
                "7",
            ]
        )
        assert "shards=1" in capsys.readouterr().out
        assert list(home.iterdir()) == []
        assert list(cache.iterdir()) == []


#: What a cold ``evaluate --from-snapshot`` of a SQLite file must not import:
#: the subsystems of the other commands, the modules that build datasets or
#: read snapshot directories, the --log-json sinks, and the heavy libraries.
_NOT_IN_A_COLD_AUDIT = (
    "repro.evolving",
    "repro.experiments",
    "repro.baselines",
    "repro.serve",
    "repro.scenarios",
    "repro.sampling.pilot",
    "repro.cost.pool",
    "repro.generators.synthetic_kg",
    "repro.kg.statistics",
    "repro.storage.snapshot",
    "repro.obs.logging",
    "repro.obs.trace",
    "numpy.ma",
    "scipy",
    "networkx",
)

#: Case -> (script run in a fresh interpreter, modules it must not load).
#: ``{kg}`` is a labelled NELL SQLite snapshot.
_FRESH_PROCESS_CASES = {
    # networkx serves only the KGEval baseline and scipy only the cost-model
    # fit; the CLI and the library import must pay for neither.
    "import": ("import repro, repro.cli", ("networkx", "scipy")),
    "cold-audit": (
        "from repro.cli import main; main(['evaluate', '--from-snapshot', {kg!r}])",
        _NOT_IN_A_COLD_AUDIT,
    ),
    # np.unique's hashing path imports numpy.ma (~10 ms and 1.6 MB cold).
    "numpy-ma": (
        "from repro.cli import main\n"
        "from repro.evolving.state import capture_evaluator_state\n"
        "from repro.evolving.stratified_eval import StratifiedIncrementalEvaluator\n"
        "from repro.generators import UpdateWorkloadGenerator, make_nell_like\n"
        "base = make_nell_like(seed=0)\n"
        "evaluator = StratifiedIncrementalEvaluator(base, seed=1)\n"
        "evaluator.evaluate_base()\n"
        "workload = UpdateWorkloadGenerator(base, seed=2)\n"
        "for batch in workload.generate_sequence(1, 50, 0.8):\n"
        "    evaluator.apply_update(batch)\n"
        "capture_evaluator_state(evaluator)\n"
        "main(['evaluate', '--design', 'twcs-strat'])",
        ("numpy.ma",),
    ),
}


@pytest.fixture(scope="module")
def labelled_sqlite(tmp_path_factory) -> str:
    from repro.generators.datasets import make_nell_like

    path = tmp_path_factory.mktemp("cold") / "kg.sqlite"
    make_nell_like(seed=0).save(path, backend="sqlite")
    return str(path)


@pytest.mark.parametrize("case", sorted(_FRESH_PROCESS_CASES))
def test_a_fresh_process_loads_only_what_it_runs(case, labelled_sqlite):
    # In-process tests run after others have loaded every module, so only a
    # fresh interpreter shows what a command imports.
    script, unwanted = _FRESH_PROCESS_CASES[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        f"{script.format(kg=labelled_sqlite)}\n"
        f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
