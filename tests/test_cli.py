"""Command line behavior: verdicts, exit codes, tolerance, and output."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aggkit
from aggkit import AxiomMode, check_axiom, cli, load_dataset


def report_of(run_cli, *args, **kw):
    code, out = run_cli(*args, **kw)
    return code, json.loads(out)


class TestReportTablesStayColumnar:
    @pytest.mark.parametrize("command, table", [("check", "checks"), ("recover", "verification")])
    def test_no_axiom_check_row_is_built(self, run_cli, fixtures_dir, monkeypatch, command, table):
        # check and recover write their tables straight from the kernels'
        # columns; an AxiomCheck row exists only when a caller asks for one.
        def refuse(*args, **kwargs):
            raise AssertionError("an AxiomCheck row was built")

        monkeypatch.setattr(aggkit.model, "AxiomCheck", refuse)
        code, rep = report_of(run_cli, command, str(fixtures_dir / "triangle_two_tier.json"))
        assert code == 0
        assert rep["result"][table]

    def test_check_formats_each_member_list_once(self, run_cli, tmp_path, monkeypatch):
        # 726 splits, three blocks of the checks table: the a, b and union
        # columns index the stored sets' member lists, each formatted once.
        _, gen = report_of(run_cli, "gen", "--seed", "7", "--features", "12", "--subsets", "pairs-triples")
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(gen["result"]["dataset"]))
        formatted = []
        lists = aggkit.fileio._lists

        def counting(values, level):
            formatted.extend(v for v in values if type(v) is tuple)
            return lists(values, level)

        monkeypatch.setattr(aggkit.fileio, "_lists", counting)
        code, rep = report_of(run_cli, "check", str(path))
        checks = rep["result"]["checks"]
        assert code == 0 and len(checks) == 726
        referenced = {tuple(row[k]) for row in checks for k in ("a", "b", "union")}
        assert sorted(formatted) == sorted(referenced)

    @pytest.mark.parametrize("profile", ["profile_committee", "profile_pair", "tilted_pair"])
    def test_pareto_builds_no_axiom_check_row(self, run_cli, fixtures_dir, tmp_path, monkeypatch, profile):
        # pareto reads its failed splits from the axiom report's columns.
        def refuse(*args, **kwargs):
            raise AssertionError("an AxiomCheck row was built")

        if profile == "tilted_pair":
            doc = json.loads((fixtures_dir / "profile_pair.json").read_text())
            doc["sets"][0]["outcome"] = [0.9, -0.2]  # off the segment of its parts
            path = tmp_path / "tilted_pair.json"
            path.write_text(json.dumps(doc))
        else:
            path = fixtures_dir / f"{profile}.json"
        monkeypatch.setattr(aggkit.model, "AxiomCheck", refuse)
        code, rep = report_of(run_cli, "pareto", str(path))
        violated = profile == "tilted_pair"
        assert code == (1 if violated else 0)
        assert bool(rep["result"]["violations"]) == violated
        if violated:
            assert rep["result"]["violations"][0]["union"] == ["p", "q"]

    @pytest.mark.parametrize("axiom", ["weighted", "strict", "extreme"])
    def test_check_rows_are_the_axiom_checks(self, run_cli, tmp_path, axiom):
        # Coincident, interior, endpoint and off-line splits: every column
        # of the table reads as the AxiomCheck rows say.
        doc = {
            "format_version": "1",
            "dimension": 2,
            "features": {f: {"outcome": p} for f, p in
                         {"a": [0, 0], "b": [0, 0], "c": [1, 0], "d": [0, 1]}.items()},
            "sets": [
                {"members": ["a", "b"], "outcome": [0, 0]},
                {"members": ["a", "c"], "outcome": [0.5, 0]},
                {"members": ["a", "d"], "outcome": [0.5, 0.5]},
                {"members": ["b", "c"], "outcome": [1, 0]},
                {"members": ["a", "b", "c"], "outcome": [0.25, 0]},
            ],
        }
        path = tmp_path / "splits.json"
        path.write_text(json.dumps(doc))
        with path.open() as fh:
            report = check_axiom(load_dataset(fh).source, AxiomMode(axiom))
        code, rep = report_of(run_cli, "check", "--axiom", axiom, str(path))
        assert code == (0 if report.satisfied else 1)
        assert rep["result"]["checks"] == [
            {"a": list(c.set_a), "b": list(c.set_b), "union": list(c.union), "lambda": c.lam,
             "residual": c.residual, "degenerate": c.degenerate, "passed": c.passed,
             "reason": c.reason}
            for c in report.checks
        ]
        assert rep["result"]["violations"] == len(report.violations) > 0


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

    def test_eval_refuses_duplicate_members(self, run_cli, fixtures_dir):
        # {a} is not the set "a,a" names; refused like the loader refuses it.
        code, rep = report_of(
            run_cli, "eval", "--members", "a,a", str(fixtures_dir / "triangle_two_tier.json")
        )
        assert code == 2
        assert rep["result"]["error"] == "DatasetFormatError"
        assert rep["result"]["message"] == "--members: duplicate members"

    @pytest.mark.parametrize("members", ["a,,b", "a,", ",a", ""])
    def test_eval_refuses_an_empty_item(self, run_cli, fixtures_dir, members):
        code, rep = report_of(
            run_cli, "eval", "--members", members, str(fixtures_dir / "triangle_two_tier.json")
        )
        assert code == 2
        assert rep["result"]["error"] == "DatasetFormatError"
        assert rep["result"]["message"] == "--members: expected a comma-separated list of features"

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

    def test_sdeu_witness_names_its_separation(self, run_cli, tmp_path):
        # Both pairs with s1 land on f(s1): s1 ranks above s2 and s3, and the
        # note writes the pair's separation as the pareto report names it.
        doc = {
            "format_version": "1",
            "kind": "sdeu",
            "dimension": 3,
            "direction": [1.0, 1.0, 1.0],
            "features": {
                "s1": {"outcome": [1.0, 0.0, 0.0]},
                "s2": {"outcome": [0.0, 1.0, 0.0]},
                "s3": {"outcome": [0.0, 0.0, 1.0]},
            },
            "sets": [
                {"members": ["s1", "s2"], "outcome": [1.0, 0.0, 0.0]},
                {"members": ["s1", "s3"], "outcome": [1.0, 0.0, 0.0]},
                {"members": ["s2", "s3"], "outcome": [0.0, 0.5, 0.5]},
            ],
        }
        path = tmp_path / "states_tiered.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "sdeu", str(path))
        assert (code, rep["verdict"]) == (1, "non-representable")
        assert rep["result"]["witness"]["first"]["note"] == (
            "conditional on the pair ignores one state entirely; "
            "separation: certificate (z=[0.0, 1.0, 0.0], dot_a=0.0, dot_b=1.0, dot_ab=0.0)"
        )

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

    @pytest.mark.parametrize("command", ["pareto", "gswf-verify"])
    def test_overflowing_normalised_outcome_names_its_set(self, run_cli, fixtures_dir, tmp_path, command):
        # <u, v> = 1e-8 for every set passes the gate (|v| underflows to 0),
        # and {i2,i3}'s second coordinate over it overflows.
        doc = json.loads((fixtures_dir / "profile_committee.json").read_text())
        doc["direction"] = [1e-200, 0.0, 0.0]
        for record in [*doc["features"].values(), *doc["sets"]]:
            record["outcome"][0] = 1e192
            if record.get("members") == ["i2", "i3"]:
                record["outcome"][1] = 1e301
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, command, str(path))
        assert (code, rep["result"]["error"]) == (2, "ValueError")
        message = rep["result"]["message"]
        assert message.startswith("i2,i3: normalised outcome has non-finite coordinates: array([")
        assert " inf, " in message

    @pytest.mark.parametrize("command", ["pareto", "gswf-verify"])
    def test_minimal_agreement_names_the_gate_it_missed(self, run_cli, fixtures_dir, tmp_path, command):
        # Scaled by 1e-12, every <u, v> is positive but below the 1e-9 gate.
        doc = json.loads((fixtures_dir / "profile_committee.json").read_text())
        for record in [*doc["features"].values(), *doc["sets"]]:
            record["outcome"] = [x * 1e-12 for x in record["outcome"]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, command, str(path))
        assert (code, rep["result"]["error"]) == (2, "MinimalAgreementViolated")
        assert rep["result"]["message"] == (
            "i1: inner product with the agreement direction is 1e-12, not above the gate 1e-09"
        )

    def test_overflowing_verification_is_not_recovered(self, run_cli, tmp_path):
        # The triple's outcome has a norm beyond the float range, so its gate
        # is infinite: the triple fails verification rather than passing
        # under an infinite gate.
        m = 1.2e308
        doc = {
            "format_version": "1",
            "dimension": 3,
            "features": {f: {"outcome": p} for f, p in
                         {"a": [m, 0, 0], "b": [0, m, 0], "c": [0, 0, m]}.items()},
            "sets": [
                {"members": ["a", "b"], "outcome": [m / 2, m / 2, 0]},
                {"members": ["a", "c"], "outcome": [m / 2, 0, m / 2]},
                {"members": ["b", "c"], "outcome": [0, m / 2, m / 2]},
                {"members": ["a", "b", "c"], "outcome": [m, m, m]},
            ],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "recover", str(path))
        assert (code, rep["verdict"]) == (1, "non-representable")
        assert rep["result"]["failing_sets"] == [["a", "b", "c"]]

    def test_singleton_beyond_the_float_range_is_not_recovered(self, run_cli, tmp_path):
        # Only the singleton a fails verification, under an infinite gate: a
        # negative verdict naming a, not a usage error.
        doc = {
            "format_version": "1",
            "dimension": 2,
            "features": {"a": {"outcome": [1.7e308, 1.7e308]}, "b": {"outcome": [0, 0]}},
            "sets": [{"members": ["a", "b"], "outcome": [0.85e308, 0.85e308]}],
        }
        path = tmp_path / "huge-singleton.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "recover", str(path))
        assert (code, rep["verdict"]) == (1, "non-representable")
        assert rep["result"]["failing_sets"] == [["a"]]
        assert rep["result"]["witness"]["pair"] == ["a", "a"]

    @staticmethod
    def _scaled(fixtures_dir, tmp_path, name, factor):
        doc = json.loads((fixtures_dir / f"{name}.json").read_text())
        for record in [*doc["features"].values(), *doc["sets"]]:
            record["outcome"] = [x * factor for x in record["outcome"]]
        path = tmp_path / f"{name}-scaled.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "name, command",
        [("broken_average", "recover"), ("broken_average", "check"), ("triangle_two_tier", "recover"),
         ("profile_committee", "pareto"), ("timed_pair", "discount")],
    )
    def test_huge_outcomes_read_as_the_unscaled_ones(self, run_cli, fixtures_dir, tmp_path, name, command):
        # Scaled by 1e300 the squares of the coordinates overflow, but every
        # norm stays finite: the verdict is the unscaled one, and on
        # broken_average no singleton fails verification with residual 0.
        path = self._scaled(fixtures_dir, tmp_path, name, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = report_of(run_cli, command, str(path))
        base_code, base = report_of(run_cli, command, str(fixtures_dir / f"{name}.json"))
        assert (code, rep["verdict"]) == (base_code, base["verdict"])
        if command == "recover":
            assert rep["result"]["status"] == base["result"]["status"]
            assert rep["result"].get("failing_sets") == base["result"].get("failing_sets")
        if name == "broken_average" and command == "recover":
            assert rep["result"] == base["result"]

    def test_huge_outcomes_warn_about_nothing(self, fixtures_dir, tmp_path):
        path = self._scaled(fixtures_dir, tmp_path, "broken_average", 1e300)
        src_dir = str(Path(aggkit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "aggkit", "recover", str(path)],
            env=dict(os.environ, PYTHONPATH=src_dir),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["result"]["failing_sets"] == []

    @pytest.mark.parametrize("factor", [1e-12, 1e-300])
    def test_discount_names_an_unidentified_factor(self, run_cli, fixtures_dir, tmp_path, factor):
        # Every singleton within the 1e-9 gate of every other: no pair fixes q.
        path = self._scaled(fixtures_dir, tmp_path, "timed_pair", factor)
        code, rep = report_of(run_cli, "discount", str(path))
        assert (code, rep["verdict"], rep["result"]["error"]) == (2, "error", "DiscountUnidentified")
        assert rep["result"]["message"] == "all singleton outcomes coincide; the factor is unidentified"

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


def _cyclic_doc(kind):
    """Pair winners a > b > c > a: each pair stores one endpoint."""
    points = {"a": [0.1, 0.9], "b": [0.2, 0.8], "c": [0.3, 0.7]}
    doc = {
        "format_version": "1",
        "kind": kind,
        "dimension": 2,
        "features": {f: {"outcome": p} for f, p in points.items()},
        "sets": [
            {"members": ["a", "b"], "outcome": points["a"]},
            {"members": ["b", "c"], "outcome": points["b"]},
            {"members": ["a", "c"], "outcome": points["c"]},
        ],
    }
    if kind in ("sdeu", "profile"):
        doc["direction"] = [1.0, 1.0]
    if kind == "timed":  # the shifted records the stationarity spot check asks for
        doc["sets"] += [
            {"members": ["a", "b"], "outcome": points["a"], "timing": {"a": s, "b": t}}
            for s, t in ((1, 2), (2, 3), (2, 2))
        ] + [{"members": ["a"], "outcome": points["a"], "timing": {"a": 2}}]
    return doc


class TestIntransitivePairs:
    @pytest.mark.parametrize(
        "command, kind, verdict",
        [
            ("recover", "generic", "non-representable"),
            ("eval", "generic", "non-representable"),
            ("bayes", "belief", "inconsistent"),
            ("cps", "belief", "non-representable"),
            ("luce", "menu", "not-rationalizable"),
            ("sdeu", "sdeu", "non-representable"),
            ("discount", "timed", "not-stationary"),
        ],
    )
    def test_each_command_gives_its_negative_verdict(self, run_cli, tmp_path, command, kind, verdict):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(_cyclic_doc(kind)))
        args = [command, str(path)] + (["--members", "a,b"] if command == "eval" else [])
        code, rep = report_of(run_cli, *args)
        assert (code, rep["verdict"]) == (1, verdict)

    def test_discount_names_the_status_and_the_witness_pair(self, run_cli, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(_cyclic_doc("timed")))
        code, rep = report_of(run_cli, "discount", str(path))
        message = rep["result"]["message"]
        assert (code, rep["verdict"]) == (1, "not-stationary")
        assert message == (
            "equal-time restriction is not strictly rationalizable: "
            "non-representable, witness pair {a,c}"
        )
        assert "NonRepresentable(" not in message

    def test_discount_names_the_required_sets(self, run_cli, tmp_path):
        doc = _cyclic_doc("timed")
        doc["sets"] = [s for s in doc["sets"] if s["members"] != ["a", "c"]]
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "discount", str(path))
        assert (code, rep["verdict"]) == (1, "not-stationary")
        assert rep["result"]["message"] == (
            "equal-time restriction is not strictly rationalizable: "
            "missing-data, required sets {a@1,c@1}"
        )

    def test_discount_names_every_required_set(self, run_cli, tmp_path):
        # Recovery runs on the whole equal-time table, so both absent pairs are named.
        doc = _cyclic_doc("timed")
        doc["sets"] = [s for s in doc["sets"] if s["members"] not in (["a", "c"], ["b", "c"])]
        path = tmp_path / "gaps.json"
        path.write_text(json.dumps(doc))
        code, rep = report_of(run_cli, "discount", str(path))
        assert (code, rep["verdict"]) == (1, "not-stationary")
        assert rep["result"]["message"] == (
            "equal-time restriction is not strictly rationalizable: "
            "missing-data, required sets {a@1,c@1}, {b@1,c@1}"
        )

    def test_recover_reports_the_triple_as_a_witness(self, run_cli, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(_cyclic_doc("generic")))
        code, rep = report_of(run_cli, "recover", str(path))
        witness = rep["result"]["witness"]
        assert witness["pair"] == ["a", "c"]
        assert witness["first"]["via"] == [["a", "b"], ["b", "c"]]
        assert witness["second"]["via"] == [["a", "c"]]
        assert witness["first"]["ratio"] is None and witness["second"]["ratio"] is None
        assert rep["result"]["failing_sets"] == []


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

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"[" * 100_000, id="deep-nesting"),
            pytest.param(
                b'{"format_version": "1", "dimension": 1, "features": {"a": {"outcome": ['
                + b"9" * 5000
                + b"]}}}",
                id="5000-digit-integer",
            ),
            pytest.param(b'{"format_version": "\xff\xfe"}', id="not-utf-8"),
        ],
    )
    def test_unparsable_bytes_are_usage_errors(self, run_cli, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        code, rep = report_of(run_cli, "check", str(bad))
        assert code == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"

    def test_directory_is_usage_error(self, run_cli, tmp_path):
        code, rep = report_of(run_cli, "check", str(tmp_path))
        assert code == 2
        assert rep["result"]["error"] == "DatasetFormatError"
        assert rep["result"]["message"].startswith(f"{tmp_path}: ")

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

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, run_cli, fixtures_dir, tmp_path, where):
        # The verdict cannot be written where asked, so the error report
        # goes to stdout, naming --out, with the usage exit code.
        target = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
        code, rep = report_of(
            run_cli, "check", str(fixtures_dir / "triangle_two_tier.json"), "--out", str(target)
        )
        assert code == rep["exit_code"] == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"
        assert rep["result"]["message"].startswith("--out: cannot write: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("flag, env, location", [
        ("-1", None, "--tol"), ("inf", None, "--tol"), ("-1", "0.5", "--tol"),
        (None, "-1", "AGGKIT_TOL"), (None, "inf", "AGGKIT_TOL"),
    ])
    def test_error_names_where_the_value_came_from(self, run_cli, fixtures_dir, monkeypatch, flag, env, location):
        if env is not None:
            monkeypatch.setenv("AGGKIT_TOL", env)
        args = ["check", str(fixtures_dir / "triangle_two_tier.json")]
        if flag is not None:
            args += ["--tol", flag]
        code, rep = report_of(run_cli, *args)
        assert code == 2
        assert rep["result"]["message"].startswith(f"{location}: must be ")


    @pytest.mark.parametrize(
        "flag, env",
        [("nan", None), ("inf", None), ("1e400", None), (None, "inf")],
        ids=["tol-nan", "tol-inf", "tol-overflow", "env-inf"],
    )
    def test_non_finite_tolerance_rejected(self, run_cli, fixtures_dir, tmp_path, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("AGGKIT_TOL", env)
        args = ["check", str(fixtures_dir / "triangle_two_tier.json")]
        if flag is not None:
            args += ["--tol", flag]
        code, rep = report_of(run_cli, *args)
        assert code == 2
        assert rep["verdict"] == "error"
        assert rep["result"]["error"] == "DatasetFormatError"
        assert rep["arguments"].get("tol") is None
        target = tmp_path / "report.json"
        assert run_cli(*args, "--out", str(target)) == (2, "")
        assert json.loads(target.read_text(encoding="utf-8")) == rep


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

    def test_check_is_byte_identical_across_hash_seeds(self, run_cli, tmp_path):
        # Every split of every stored union, in one order, with its
        # coefficient and residual bits, whatever the set hashing.
        outputs = reports_across_hash_seeds(
            run_cli,
            tmp_path,
            "check",
            ("--seed", "7", "--features", "6", "--classes", "2"),
            ("0", "1", "2"),
        )
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["result"]["checks"]

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


    @pytest.mark.parametrize(
        "config, flags, location, message",
        [
            ({"seed": 1.5}, [], "config", "seed must be an integer of at least 0, got 1.5"),
            ({"seed": True}, [], "config", "seed must be an integer of at least 0, got True"),
            ({"seed": "1"}, [], "config", "seed must be an integer of at least 0, got '1'"),
            ({"seed": 1, "feature_count": 3.5}, [], "config",
             "feature_count must be an integer of at least 1, got 3.5"),
            ({"seed": 1, "dimension": 2.5}, [], "config", "dimension must be an integer of at least 1, got 2.5"),
            ({"seed": 1, "rank_classes": False}, [], "config",
             "rank_classes must be an integer of at least 1, got False"),
            ({"seed": 1, "weight_range": [0.5, 10**400]}, [], "config",
             "weight_range must be positive, finite and ordered"),
            ({"seed": 1, "outcome_policy": 5}, [], "config", "unknown policy 5"),
            ({}, ["--seed", "-1"], "--seed", "seed must be an integer of at least 0, got -1"),
            ({"seed": 1}, ["--features", "0"], "--features", "feature_count must be an integer of at least 1, got 0"),
        ],
        ids=["fraction seed", "bool seed", "string seed", "fraction features", "fraction dimension",
             "bool classes", "infinite weight", "config policy", "negative seed flag", "zero features flag"],
    )
    def test_gen_refuses_a_field_that_is_not_a_count(self, run_cli, config, flags, location, message):
        code, rep = report_of(run_cli, "gen", "--config", "-", *flags, stdin=json.dumps(config))
        assert (code, rep["exit_code"], rep["verdict"]) == (2, 2, "error")
        assert rep["result"] == {"error": "DatasetFormatError", "message": f"{location}: {message}"}

    def test_gen_reads_a_whole_float_as_an_integer(self, run_cli):
        config = {"seed": 2.0, "feature_count": 4.0, "dimension": 2.0, "rank_classes": 1.0}
        code, rep = report_of(run_cli, "gen", "--config", "-", stdin=json.dumps(config))
        assert code == 0
        assert rep["result"]["seed"] == 2 and type(rep["result"]["seed"]) is int
        assert rep["result"] == report_of(run_cli, "gen", "--seed", "2", "--features", "4")[1]["result"]


def corpus_invocations():
    """Every shipped fixture under each command that takes its kind, each
    fixture under the strict and extreme axioms, and a few ``gen`` runs."""
    out = []
    for path in sorted(Path(__file__).resolve().parent.parent.joinpath("fixtures").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        kind = doc.get("kind", "generic")
        for name, cmd in cli.COMMANDS.items():
            if not cmd.reads_dataset or (cmd.kinds and kind not in cmd.kinds):
                continue
            args = [name, str(path)]
            if name == "eval":
                args += ["--members", ",".join(sorted(doc["features"])[:2])]
            out.append(args)
        out += [["check", str(path), "--axiom", mode] for mode in ("strict", "extreme")]
    out += [
        ["gen", "--seed", "3"],
        ["gen", "--seed", "4", "--features", "5", "--classes", "2", "--subsets", "pairs-triples"],
        ["gen", "--seed", "5", "--policy", "simplex-beliefs", "--dimension", "3"],
    ]
    return out


class TestReportBytes:
    @pytest.mark.parametrize(
        "args", corpus_invocations(), ids=lambda a: " ".join([a[0], Path(a[1]).stem, *a[2:]])
    )
    def test_report_is_the_canonical_form_of_itself(self, run_cli, args):
        # Floats print as their shortest round-trip repr, so parsing a report
        # and writing it again with the standard library's indent=2 encoder
        # must give the very same bytes.
        code, out = run_cli(*args)
        reparsed = json.loads(out)
        assert reparsed["exit_code"] == code
        assert json.dumps(reparsed, indent=2, sort_keys=True) + "\n" == out
