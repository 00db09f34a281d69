"""Command line behavior: verdicts, exit codes, tolerance, and output."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aggkit
from aggkit import cli


def report_of(run_cli, *args, **kw):
    code, out = run_cli(*args, **kw)
    return code, json.loads(out)


class TestVerdictsAndExitCodes:
    def test_check_positive(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "check", str(fixtures_dir / "triangle_two_tier.json"))
        assert code == 0
        assert rep["verdict"] == "satisfied"
        assert rep["exit_code"] == 0

    def test_check_negative(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "check", str(fixtures_dir / "broken_average.json"))
        assert code == 1
        assert rep["verdict"] == "violated"
        assert rep["result"]["violations"] == 1

    def test_recover_collinear_contradiction(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "recover", str(fixtures_dir / "line_three_points.json"))
        assert code == 1
        assert rep["verdict"] == "non-representable"
        assert rep["result"]["witness"]["pair"] == ["x", "z"]

    def test_recover_missing_data(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "recover", str(fixtures_dir / "missing_pairs.json"))
        assert code == 3
        assert rep["verdict"] == "missing-data"
        assert rep["result"]["required"]

    def test_eval_reports_value(self, run_cli, fixtures_dir):
        code, rep = report_of(
            run_cli,
            "eval",
            "--members",
            "a,b",
            str(fixtures_dir / "triangle_two_tier.json"),
        )
        assert code == 0
        assert rep["result"]["value"] == pytest.approx([2.0 / 3.0, 0.0])

    def test_bayes_consistent(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "bayes", str(fixtures_dir / "coin_beliefs.json"))
        assert code == 0
        table = rep["result"]["joint"]["table"]
        expected = [[0.2, 0.15], [0.05, 0.6]]
        for row, want in zip(table, expected):
            assert row == pytest.approx(want)

    def test_discount_recovers_half(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "discount", str(fixtures_dir / "timed_pair.json"))
        assert code == 0
        assert rep["result"]["q"] == pytest.approx(0.5, rel=1e-9)

    def test_sdeu_probabilities(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "sdeu", str(fixtures_dir / "states_quarter.json"))
        assert code == 0
        probs = rep["result"]["probabilities"]
        assert probs["s1"] == pytest.approx(0.25, rel=1e-9)
        assert probs["s2"] == pytest.approx(0.75, rel=1e-9)

    def test_pareto_weights(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "pareto", str(fixtures_dir / "profile_pair.json"))
        assert code == 0
        w = rep["result"]["weights"]
        assert w["q"] / w["p"] == pytest.approx(3.0, rel=1e-9)

    def test_gswf_verify(self, run_cli, fixtures_dir):
        code, rep = report_of(
            run_cli, "gswf-verify", str(fixtures_dir / "profile_committee.json")
        )
        assert code == 0
        assert rep["verdict"] == "consistent"

    def test_gswf_verify_names_individual_without_weight(
        self, run_cli, fixtures_dir, tmp_path
    ):
        doc = json.loads((fixtures_dir / "profile_committee.json").read_text())
        del doc["weights"]["i3"]
        path = tmp_path / "committee.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "gswf-verify", str(path))
        assert code == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"
        assert "i3" in rep["result"]["message"]

    def test_luce_and_pathindep(self, run_cli, fixtures_dir):
        menu = str(fixtures_dir / "menu_luce.json")
        code, rep = report_of(run_cli, "luce", menu)
        assert code == 0
        code, rep = report_of(run_cli, "pathindep", menu, "--oracle", "dictatorial")
        assert code == 0
        code, rep = report_of(run_cli, "pathindep", menu, "--oracle", "luce")
        assert code == 1
        assert rep["verdict"] == "violated"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_pathindep_refuses_a_cap_below_one(self, run_cli, fixtures_dir, value):
        menu = str(fixtures_dir / "menu_luce.json")
        code, rep = report_of(run_cli, "pathindep", menu, "--max-pairs", value)
        assert code == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"
        assert "--max-pairs" in rep["result"]["message"]

    def test_pathindep_stops_at_the_cap(self, run_cli, fixtures_dir):
        menu = str(fixtures_dir / "menu_luce.json")
        code, rep = report_of(run_cli, "pathindep", menu)
        everything = rep["result"]["pairs_checked"]
        assert everything >= 3
        for cap in (1, everything - 1, everything, everything + 1):
            code, capped = report_of(run_cli, "pathindep", menu, "--max-pairs", str(cap))
            assert code == 0
            assert capped["result"]["pairs_checked"] == min(cap, everything)
            assert capped["result"]["rows"] == rep["result"]["rows"][: min(cap, everything)]

    def test_gen_round_trips_through_recover(self, run_cli, tmp_path):
        code, out = run_cli("gen", "--seed", "21", "--features", "5", "--dimension", "3")
        assert code == 0
        rep = json.loads(out)
        dataset = rep["result"]["dataset"]
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(dataset))
        code, rec = report_of(run_cli, "recover", str(path))
        assert code == 0
        assert rec["result"]["ranks"] == rep["result"]["true_ranks"]


class TestInputHandling:
    def test_stdin_dash(self, run_cli, fixtures_dir):
        payload = (fixtures_dir / "coin_beliefs.json").read_text()
        code, rep = report_of(run_cli, "bayes", "-", stdin=payload)
        assert code == 0

    def test_missing_file_is_usage_error(self, run_cli):
        code, rep = report_of(run_cli, "check", "/nonexistent/path.json")
        assert code == 2
        assert rep["verdict"] == "error"

    def test_malformed_json_is_usage_error(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, rep = report_of(run_cli, "check", str(bad))
        assert code == 2

    def test_missing_required_key_is_usage_error(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": "1", "dimension": 2}))
        code, rep = report_of(run_cli, "check", str(bad))
        assert code == 2

    def test_kind_gate(self, run_cli, fixtures_dir):
        code, rep = report_of(run_cli, "bayes", str(fixtures_dir / "triangle_two_tier.json"))
        assert code == 2
        assert "kind" in rep["result"]["message"]

    def test_out_flag_writes_file(self, run_cli, fixtures_dir, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            "check", str(fixtures_dir / "triangle_two_tier.json"), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "satisfied"


class TestToleranceResolution:
    def test_flag_beats_environment(self, run_cli, fixtures_dir, monkeypatch):
        monkeypatch.setenv("AGGKIT_TOL", "0.5")
        code, rep = report_of(
            run_cli,
            "check",
            str(fixtures_dir / "broken_average.json"),
            "--tol",
            "1e-9",
        )
        assert rep["tolerance"]["abs"] == 1e-9
        assert code == 1

    def test_environment_variable_used(self, run_cli, fixtures_dir, monkeypatch):
        monkeypatch.setenv("AGGKIT_TOL", "0.5")
        # With a huge tolerance the broken pair passes the check.
        code, rep = report_of(run_cli, "check", str(fixtures_dir / "broken_average.json"))
        assert rep["tolerance"]["abs"] == 0.5
        assert code == 0

    def test_bad_tolerance_rejected(self, run_cli, fixtures_dir):
        code, rep = report_of(
            run_cli, "check", str(fixtures_dir / "broken_average.json"), "--tol", "-1"
        )
        assert code == 2

    def test_bad_environment_value_rejected(self, run_cli, fixtures_dir, monkeypatch):
        monkeypatch.setenv("AGGKIT_TOL", "banana")
        code, rep = report_of(run_cli, "check", str(fixtures_dir / "broken_average.json"))
        assert code == 2


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, run_cli, fixtures_dir):
        args = ("recover", str(fixtures_dir / "triangle_two_tier.json"))
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_gen_is_seed_deterministic(self, run_cli):
        _, first = run_cli("gen", "--seed", "33")
        _, second = run_cli("gen", "--seed", "33")
        assert first == second

    def test_recover_is_byte_identical_across_hash_seeds(self, run_cli, tmp_path):
        # Six features in one rank class: evaluate sums up to six weights
        # and outcomes, in an order that must not follow frozenset hashing.
        outputs = reports_across_hash_seeds(
            run_cli,
            tmp_path,
            "recover",
            ("--seed", "5", "--features", "6", "--classes", "1"),
            ("1", "2", "3"),
        )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cps_is_byte_identical_across_hash_seeds(self, run_cli, tmp_path):
        # Each conditional divides by the total weight of its top members;
        # that total must be added up in one order whatever the hashing.
        outputs = reports_across_hash_seeds(
            run_cli,
            tmp_path,
            "cps",
            ("--seed", "9", "--features", "7", "--dimension", "3", "--classes", "1",
             "--policy", "simplex-beliefs"),
            ("0", "1", "2"),
        )
        assert outputs[0] == outputs[1] == outputs[2]


def reports_across_hash_seeds(run_cli, tmp_path, command, gen_args, hash_seeds):
    """Stdout of ``command`` on an ``aggkit gen`` dataset, one process per hash seed."""
    _, gen = report_of(run_cli, "gen", *gen_args)
    dataset = tmp_path / "generated.json"
    dataset.write_text(json.dumps(gen["result"]["dataset"]), encoding="utf-8")
    src_dir = str(Path(aggkit.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "aggkit", command, str(dataset)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


class TestParserAndConfig:
    def test_parser_is_built_once(self, run_cli, fixtures_dir, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        dataset = str(fixtures_dir / "triangle_two_tier.json")
        first = run_cli("recover", dataset)
        second = run_cli("recover", dataset)
        assert built.count("aggkit") == 1
        assert first == second

    @pytest.mark.parametrize("weight_range", [5, "ab"], ids=["number", "string"])
    def test_gen_rejects_a_malformed_weight_range(self, run_cli, tmp_path, weight_range):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "weight_range": weight_range}), encoding="utf-8")
        code, rep = report_of(run_cli, "gen", "--config", str(config))
        assert code == 2
        assert rep["exit_code"] == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"
