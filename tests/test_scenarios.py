"""Tests for the declarative scenario registry (spec, runner, report, CLI).

Statistical behaviour (does coverage actually land inside the Wilson band at
scale) lives in ``test_scenario_coverage.py``; this file covers the machinery:
strict pack parsing, all four scenario kinds executing end-to-end, bit-identical
trajectory digests across storage backends, deterministic result files and the
``repro scenario`` commands.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    BUILTIN_PACKS,
    builtin_pack,
    compare_documents,
    format_results_table,
    load_pack,
    load_pack_file,
    load_results,
    pack_from_dict,
    results_to_document,
    run_pack,
    run_scenario,
    scenario_from_dict,
    write_results,
)

# A deliberately tiny static scenario: fast enough to replicate across both
# backends inside the default test leg.
TINY_STATIC = {
    "name": "tiny-static",
    "kind": "static",
    "replications": 3,
    "graph": {"num_entities": 60, "mean_cluster_size": 2.0, "max_cluster_size": 20},
    "labels": {"model": "random_error", "params": {"accuracy": 0.9}},
    "design": "srs",
    "moe_target": 0.15,
    "gates": {"coverage_slack": 0.5},
}

TINY_EVOLVING = {
    "name": "tiny-evolving",
    "kind": "evolving",
    "replications": 2,
    "graph": {"num_entities": 60, "mean_cluster_size": 2.0, "max_cluster_size": 20},
    "labels": {"model": "calibrated", "params": {"accuracy": 0.85}},
    "evaluator": "ss",
    "moe_target": 0.15,
    "workload": {"total_updates": 40, "num_batches": 2, "schedule": "bursty"},
    "gates": {"coverage_slack": 0.5},
}

TINY_DELETION = {
    "name": "tiny-deletion",
    "kind": "deletion",
    "replications": 2,
    "graph": {"num_entities": 60, "mean_cluster_size": 2.0, "max_cluster_size": 20},
    "labels": {"model": "calibrated", "params": {"accuracy": 0.9}},
    "design": "twcs",
    "moe_target": 0.15,
    "workload": {"total_updates": 40, "num_batches": 2, "deletion_fraction": 0.5},
    "gates": {"coverage_slack": 0.5},
}

TINY_FLEET = {
    "name": "tiny-fleet",
    "kind": "fleet",
    "replications": 1,
    "moe_target": 0.1,
    "fleet": [{"dataset": "nell", "evaluator": "ss"}],
    "workload": {"total_updates": 60, "num_batches": 2},
    "gates": {"coverage_slack": 0.5},
}


# --------------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------------- #
class TestSpecParsing:
    def test_minimal_scenario_gets_defaults(self):
        spec = scenario_from_dict({"name": "s"})
        assert spec.kind == "static"
        assert spec.design == "twcs"
        assert spec.nominal_coverage == spec.confidence == 0.95
        assert spec.max_moe == pytest.approx(1.5 * spec.moe_target)

    def test_gate_overrides_take_precedence(self):
        spec = scenario_from_dict(
            {"name": "s", "gates": {"nominal_coverage": 0.9, "max_moe": 0.2}}
        )
        assert spec.nominal_coverage == 0.9
        assert spec.max_moe == 0.2

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"name": "s", "typo_key": 1}, "unknown keys"),
            ({"name": "s", "graph": {"entities": 5}}, "unknown keys"),
            ({"name": "s", "gates": {"slack": 0.1}}, "unknown keys"),
            ({"name": "s", "kind": "nope"}, "kind must be"),
            ({"name": "s", "design": "nope"}, "design must be"),
            ({"name": "s", "labels": {"model": "nope"}}, "label model"),
            ({"name": "s", "moe_target": 0.0}, "moe_target"),
            ({"name": "s", "gates": {"cost_tolerance": 0.5}}, "cost_tolerance"),
            ({"name": "s", "kind": "fleet"}, "at least one session"),
            ({"name": "s", "kind": "deletion"}, "deletion_fraction"),
            ({"name": "s", "labels": {"model": "dataset"}}, "dataset-sourced graph"),
            ({"name": "s", "kind": "evolving", "cost": {"drift": 0.5}}, "drift"),
            (
                {
                    "name": "s",
                    "kind": "fleet",
                    "fleet": [{"dataset": "nell", "evaluator": "ss"}],
                    "cost": {"identification_cost": 1.0},
                },
                "paper-default cost model",
            ),
        ],
    )
    def test_invalid_scenarios_fail_loudly(self, raw, fragment):
        with pytest.raises(ValueError, match=fragment):
            scenario_from_dict(raw)

    def test_pack_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            pack_from_dict({"name": "p", "scenarios": [{"name": "a"}, {"name": "a"}]})

    def test_pack_lookup(self):
        pack = pack_from_dict({"name": "p", "scenarios": [TINY_STATIC]})
        assert pack.scenario("tiny-static").name == "tiny-static"
        with pytest.raises(KeyError):
            pack.scenario("missing")

    def test_pack_file_roundtrip_json_and_toml(self, tmp_path):
        document = {"name": "file-pack", "description": "d", "scenarios": [TINY_STATIC]}
        json_path = tmp_path / "pack.json"
        json_path.write_text(json.dumps(document))
        toml_path = tmp_path / "pack.toml"
        toml_path.write_text(
            "\n".join(
                [
                    'name = "file-pack"',
                    'description = "d"',
                    "[[scenarios]]",
                    'name = "tiny-static"',
                    'kind = "static"',
                    "replications = 3",
                    'design = "srs"',
                    "moe_target = 0.15",
                    "[scenarios.graph]",
                    "num_entities = 60",
                    "mean_cluster_size = 2.0",
                    "max_cluster_size = 20",
                    "[scenarios.labels]",
                    'model = "random_error"',
                    "[scenarios.labels.params]",
                    "accuracy = 0.9",
                    "[scenarios.gates]",
                    "coverage_slack = 0.5",
                ]
            )
        )
        from_json = load_pack_file(json_path)
        from_toml = load_pack_file(toml_path)
        assert from_json.scenario("tiny-static") == from_toml.scenario("tiny-static")

    def test_load_pack_resolves_builtins_and_rejects_junk(self):
        for name in BUILTIN_PACKS:
            assert len(load_pack(name)) >= 8
        with pytest.raises(ValueError, match="unknown pack"):
            load_pack("no-such-pack")
        with pytest.raises(FileNotFoundError):
            load_pack("missing.json")

    def test_builtin_smoke_mirrors_full(self):
        full = builtin_pack(smoke=False)
        smoke = builtin_pack(smoke=True)
        assert [s.name for s in full] == [s.name for s in smoke]
        assert all(
            smoke.scenario(s.name).replications <= s.replications for s in full
        )


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
class TestRunner:
    @pytest.mark.parametrize(
        "raw", [TINY_STATIC, TINY_EVOLVING, TINY_DELETION, TINY_FLEET]
    )
    def test_each_kind_runs_end_to_end(self, raw):
        spec = scenario_from_dict(raw)
        result = run_scenario(spec, backend="columnar", root_seed=0)
        assert result.name == spec.name
        assert result.coverage_trials >= spec.replications
        assert 0.0 <= result.empirical_coverage <= 1.0
        assert result.wilson_lower <= result.empirical_coverage <= result.wilson_upper
        assert len(result.digest) == 64
        assert result.mean_moe > 0.0

    @pytest.mark.parametrize("raw", [TINY_STATIC, TINY_EVOLVING, TINY_DELETION])
    def test_digests_identical_across_backends(self, raw):
        spec = scenario_from_dict(raw)
        digests = {
            backend: run_scenario(spec, backend=backend, root_seed=0).digest
            for backend in ("columnar", "sqlite")
        }
        assert len(set(digests.values())) == 1, digests

    def test_unknown_backend_is_refused(self):
        spec = scenario_from_dict(TINY_STATIC)
        with pytest.raises(ValueError, match=r"backend must be one of \('columnar', 'sqlite'\)"):
            run_scenario(spec, backend="memory", root_seed=0)

    def test_digest_changes_with_root_seed(self):
        spec = scenario_from_dict(TINY_STATIC)
        first = run_scenario(spec, backend="columnar", root_seed=0)
        second = run_scenario(spec, backend="columnar", root_seed=1)
        assert first.digest != second.digest

    def test_rerun_is_bit_identical(self):
        spec = scenario_from_dict(TINY_STATIC)
        first = run_scenario(spec, backend="columnar", root_seed=3)
        second = run_scenario(spec, backend="columnar", root_seed=3)
        assert first == second

    def test_replication_override(self):
        spec = scenario_from_dict(TINY_STATIC)
        result = run_scenario(spec, backend="columnar", replications=5, root_seed=0)
        assert result.replications == 5

    def test_run_pack_only_filters(self):
        pack = pack_from_dict(
            {"name": "p", "scenarios": [TINY_STATIC, TINY_EVOLVING]}
        )
        results = run_pack(pack, backend="columnar", only="tiny-static")
        assert [r.name for r in results] == ["tiny-static"]
        results = run_pack(pack, backend="columnar", only=("tiny-evolving", "tiny-static"))
        assert [r.name for r in results] == ["tiny-evolving", "tiny-static"]

    def test_failed_gate_reports_failure(self):
        # An impossible MoE ceiling forces the moe gate to fail.
        raw = dict(TINY_STATIC, name="doomed", gates={"max_moe": 1e-6})
        result = run_scenario(scenario_from_dict(raw), backend="columnar", root_seed=0)
        assert not result.moe_passed
        assert not result.passed
        assert any("moe" in failure.lower() for failure in result.failures())

    @pytest.mark.parametrize(
        "mean_cluster_size, model, params, bad_parameter",
        [
            ("nan", "binomial_mixture", "{ c = nan }", "mean_cluster_size"),
            ("2.0", "binomial_mixture", "{ c = nan }", "c"),
            ("2.0", "calibrated", "{ size_correlation = nan }", "size_correlation"),
        ],
    )
    def test_non_finite_pack_parameters_fail_typed(
        self, tmp_path, mean_cluster_size, model, params, bad_parameter
    ):
        # TOML spells NaN `nan`; a NaN passes every `x < bound` check, so
        # without a finiteness check this pack ran on a degenerate graph.
        path = tmp_path / "nan.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "nan-pack"',
                    "[[scenarios]]",
                    'name = "nan-static"',
                    'kind = "static"',
                    "replications = 2",
                    'design = "srs"',
                    "moe_target = 0.15",
                    "[scenarios.graph]",
                    "num_entities = 200",
                    f"mean_cluster_size = {mean_cluster_size}",
                    "[scenarios.labels]",
                    f'model = "{model}"',
                    f"params = {params}",
                ]
            )
        )
        with pytest.raises(ValueError, match=f"^{bad_parameter} must be finite"):
            run_pack(load_pack_file(path), backend="columnar", root_seed=0)


# --------------------------------------------------------------------------- #
# Report files
# --------------------------------------------------------------------------- #
class TestReport:
    def _document(self):
        pack = pack_from_dict({"name": "p", "scenarios": [TINY_STATIC]})
        results = run_pack(pack, backend="columnar", root_seed=0)
        return results_to_document("p", "columnar", 0, results), results

    def test_write_load_roundtrip(self, tmp_path):
        document, results = self._document()
        path = write_results(tmp_path / "SCENARIOS_test.json", document)
        loaded = load_results(path)
        assert loaded == json.loads(json.dumps(document))  # JSON-stable
        assert loaded["passed"] is all(r.passed for r in results)

    def test_document_is_deterministic(self, tmp_path):
        first, _ = self._document()
        second, _ = self._document()
        assert first == second

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="unsupported results format"):
            load_results(path)

    def test_compare_identical_documents_is_clean(self):
        document, _ = self._document()
        assert compare_documents(document, document) == []

    def test_compare_flags_drift_and_missing_scenarios(self):
        document, _ = self._document()
        drifted = json.loads(json.dumps(document))
        drifted["results"][0]["digest"] = "0" * 64
        drifted["results"][0]["mean_moe"] += 0.5
        differences = compare_documents(document, drifted)
        assert any("digest" in line for line in differences)
        assert any("mean_moe" in line for line in differences)
        emptied = json.loads(json.dumps(document))
        emptied["results"] = []
        assert any("missing" in line for line in compare_documents(document, emptied))

    def test_compare_float_tolerance(self):
        document, _ = self._document()
        nudged = json.loads(json.dumps(document))
        nudged["results"][0]["mean_moe"] += 1e-12
        assert compare_documents(document, nudged) == []
        assert compare_documents(document, nudged, float_tolerance=1e-15) != []

    def test_format_results_table_mentions_every_scenario(self):
        _, results = self._document()
        table = format_results_table(results)
        assert "tiny-static" in table
        assert "PASS" in table or "FAIL" in table


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestScenarioCli:
    def _pack_file(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text(
            json.dumps({"name": "cli-pack", "scenarios": [TINY_STATIC]})
        )
        return path

    def test_list_builtins(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "builtin-full" in out and "builtin-smoke" in out

    def test_list_pack_contents(self, capsys):
        assert main(["scenario", "list", "--pack", "builtin-smoke"]) == 0
        out = capsys.readouterr().out
        assert "srs-bernoulli-exact" in out
        assert "fleet-concurrent" in out

    def test_run_writes_results_and_compare_round_trips(self, tmp_path, capsys):
        pack = self._pack_file(tmp_path)
        out_path = tmp_path / "SCENARIOS_cli.json"
        assert (
            main(["scenario", "run", "--pack", str(pack), "--out", str(out_path)]) == 0
        )
        assert "tiny-static" in capsys.readouterr().out
        assert out_path.is_file()
        assert (
            main(["scenario", "compare", str(out_path), str(out_path)]) == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_drift(self, tmp_path, capsys):
        pack = self._pack_file(tmp_path)
        out_path = tmp_path / "current.json"
        main(["scenario", "run", "--pack", str(pack), "--out", str(out_path)])
        capsys.readouterr()
        drifted = json.loads(out_path.read_text())
        drifted["results"][0]["digest"] = "f" * 64
        drifted_path = tmp_path / "baseline.json"
        drifted_path.write_text(json.dumps(drifted))
        assert (
            main(["scenario", "compare", str(drifted_path), str(out_path)]) == 1
        )
        assert "digest" in capsys.readouterr().out

    def test_run_exits_nonzero_on_gate_failure(self, tmp_path, capsys):
        doomed = dict(TINY_STATIC, name="doomed", gates={"max_moe": 1e-6})
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps({"name": "p", "scenarios": [doomed]}))
        assert main(["scenario", "run", "--pack", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_only_and_replications_flags(self, tmp_path, capsys):
        path = tmp_path / "pack.json"
        path.write_text(
            json.dumps({"name": "p", "scenarios": [TINY_STATIC, TINY_EVOLVING]})
        )
        code = main(
            [
                "scenario",
                "run",
                "--pack",
                str(path),
                "--only",
                "tiny-static",
                "--replications",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny-static" in out
        assert "tiny-evolving" not in out
