"""Command line front end.

Every subcommand reads one dataset file (``-`` for stdin), prints one
JSON report (or writes it with ``--out``), and exits 0 on a positive
verdict, 1 on a negative one, 2 on input or usage errors, and 3 when
required data is missing.  Reports are byte-identical across runs on
identical inputs.  The tolerance comes from ``--tol``, falling back to
the ``AGGKIT_TOL`` environment variable, then to 1e-9.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Any, Mapping, Sequence

import numpy as np

from .belief import (
    TimedQuery,
    build_cps,
    check_bayesian,
    recover_discounted,
    verify_cps,
)
from .choice import (
    Menu,
    boundary_diagnostic,
    check_path_independence,
    make_dictatorial_oracle,
    make_luce_oracle,
    recover_luce,
    recover_two_stage,
)
from .errors import (
    AggkitError,
    DatasetFormatError,
    IntransitivityDetected,
    MissingDataError,
    MultipleRankClasses,
    NotStationary,
)
from .fileio import (
    DatasetDocument,
    FORMAT_VERSION,
    dataset_to_json,
    dump_json,
    jnum,
    jvec,
    load_dataset,
)
from .geometry import Tolerance
from .model import (
    AxiomMode,
    check_axiom,
    check_richness,
    check_strong_richness,
    evaluate,
)
from .recovery import (
    ContradictionWitness,
    MissingData,
    NonRepresentable,
    Recovered,
    RecoveryOutcome,
    recover,
)
from .social import (
    Certificate,
    Collinear,
    InCone,
    FarkasOutcome,
    check_extended_pareto,
    recover_state_dependent,
    verify_weight_table,
)
from .testkit import (
    GeneratorConfig,
    OutcomePolicy,
    SubsetPolicy,
    gen_dataset,
    gen_representation,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_MISSING = 3

ENV_TOL = "AGGKIT_TOL"


def _tolerance(args: argparse.Namespace) -> Tolerance:
    value = args.tol
    if value is None:
        raw = os.environ.get(ENV_TOL)
        if raw is not None:
            try:
                value = float(raw)
            except ValueError:
                raise DatasetFormatError(ENV_TOL, f"not a number: {raw!r}") from None
    if value is None:
        return Tolerance()
    if not value > 0:
        raise DatasetFormatError("--tol", f"must be positive, got {value!r}")
    return Tolerance(abs_tol=value, rel_tol=value)


def _load(args: argparse.Namespace, tol: Tolerance) -> DatasetDocument:
    if args.input == "-":
        return load_dataset(sys.stdin, tol, name="<stdin>")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return load_dataset(fh, tol, name=args.input)
    except FileNotFoundError:
        raise DatasetFormatError(args.input, "no such file") from None


def _require_kind(doc: DatasetDocument, command: str, kinds: tuple[str, ...]) -> None:
    if doc.kind not in kinds:
        raise DatasetFormatError(
            "kind",
            f"the {command} command needs a dataset of kind "
            f"{' or '.join(repr(k) for k in kinds)}, got {doc.kind!r}",
        )


# --------------------------------------------------------------------------
# report shaping


def _witness_json(w: ContradictionWitness) -> dict[str, Any]:
    def deriv(d) -> dict[str, Any]:
        return {
            "pair": list(d.pair),
            "ratio": jnum(d.ratio),
            "via": [list(s) for s in d.via],
            "note": d.note,
        }

    return {"pair": list(w.pair), "first": deriv(w.first), "second": deriv(w.second)}


def _recovery_json(outcome: RecoveryOutcome, with_rows: bool = True) -> dict[str, Any]:
    if isinstance(outcome, Recovered):
        rep = outcome.representation
        out: dict[str, Any] = {
            "status": "recovered",
            "weights": {f: jnum(rep.weights[f]) for f in rep.features()},
            "ranks": {f: rep.ranks[f] for f in rep.features()},
            "max_residual": jnum(outcome.max_residual),
            "indeterminate_classes": [list(c) for c in outcome.indeterminate_classes],
        }
        if with_rows:
            out["verification"] = [
                {
                    "members": list(r.members),
                    "observed": jvec(r.observed),
                    "predicted": jvec(r.predicted),
                    "residual": jnum(r.residual),
                    "passed": r.passed,
                }
                for r in outcome.verification
            ]
        return out
    if isinstance(outcome, NonRepresentable):
        return {
            "status": "non-representable",
            "witness": _witness_json(outcome.witness),
            "failing_sets": [list(s) for s in outcome.failing_sets],
            "max_residual": jnum(outcome.max_residual),
        }
    assert isinstance(outcome, MissingData)
    return {
        "status": "missing-data",
        "required": [list(s) for s in outcome.required],
    }


def _farkas_json(out: FarkasOutcome) -> dict[str, Any]:
    if isinstance(out, InCone):
        return {
            "type": "in-cone",
            "alpha": jnum(out.alpha),
            "beta": jnum(out.beta),
            "residual": jnum(out.residual),
        }
    if isinstance(out, Certificate):
        return {
            "type": "certificate",
            "z": jvec(out.z),
            "dot_a": jnum(out.dot_a),
            "dot_b": jnum(out.dot_b),
            "dot_ab": jnum(out.dot_ab),
        }
    assert isinstance(out, Collinear)
    return {"type": "collinear", "ratio": jnum(out.ratio)}


# --------------------------------------------------------------------------
# subcommands; each returns (verdict, result, exit_code)

Result = tuple[str, dict[str, Any], int]


def cmd_check(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    mode = AxiomMode.from_name(args.axiom)
    report = check_axiom(doc.source, mode, tol)
    rich = check_richness(doc.source, tol)
    try:
        strong = check_strong_richness(doc.source, tol)
        strong_json: dict[str, Any] = {
            "status": "checked",
            "satisfied": strong.satisfied,
            "witnesses": {
                e.feature: (list(e.witness) if e.witness else None)
                for e in strong.entries
            },
        }
    except MissingDataError as err:
        strong_json = {
            "status": "undecidable",
            "required": [list(s) for s in err.required],
        }
    result = {
        "axiom": mode.value,
        "satisfied": report.satisfied,
        "checks": [
            {
                "a": list(c.set_a),
                "b": list(c.set_b),
                "union": list(c.union),
                "lambda": jnum(c.lam) if c.lam is not None else None,
                "residual": jnum(c.residual),
                "degenerate": c.degenerate,
                "passed": c.passed,
                "reason": c.reason,
            }
            for c in report.checks
        ],
        "violations": sum(1 for c in report.checks if not c.passed),
        "rich": rich,
        "strong_richness": strong_json,
    }
    verdict = "satisfied" if report.satisfied else "violated"
    return verdict, result, EXIT_OK if report.satisfied else EXIT_NEGATIVE


def _recovery_verdict(outcome: RecoveryOutcome) -> tuple[str, int]:
    if isinstance(outcome, Recovered):
        return "recovered", EXIT_OK
    if isinstance(outcome, NonRepresentable):
        return "non-representable", EXIT_NEGATIVE
    return "missing-data", EXIT_MISSING


def cmd_recover(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    outcome = recover(doc.source, tol)
    verdict, code = _recovery_verdict(outcome)
    return verdict, _recovery_json(outcome), code


def cmd_eval(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    members = [m for m in args.members.split(",") if m]
    if not members:
        raise DatasetFormatError("--members", "expected a comma-separated list of features")
    outcome = recover(doc.source, tol)
    if not isinstance(outcome, Recovered):
        verdict, code = _recovery_verdict(outcome)
        return verdict, _recovery_json(outcome), code
    value = evaluate(outcome.representation, members)
    result = {
        "members": sorted(members),
        "value": jvec(value),
        "recovery": _recovery_json(outcome, with_rows=False),
    }
    return "evaluated", result, EXIT_OK


def cmd_bayes(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "bayes", ("belief",))
    check = check_bayesian(doc.source, tol)
    result: dict[str, Any] = {
        "consistent": check.consistent,
        "detail": check.detail,
        "max_residual": jnum(check.max_residual),
        "recovery": _recovery_json(check.recovery, with_rows=False),
    }
    if check.joint is not None:
        result["joint"] = {
            "features": list(check.joint.features),
            "table": [jvec(row) for row in check.joint.table],
        }
    verdict = "consistent" if check.consistent else "inconsistent"
    return verdict, result, EXIT_OK if check.consistent else EXIT_NEGATIVE


def cmd_cps(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "cps", ("belief",))
    outcome = recover(doc.source, tol)
    if not isinstance(outcome, Recovered):
        verdict, code = _recovery_verdict(outcome)
        return verdict, _recovery_json(outcome), code
    cps = build_cps(outcome.representation, tol)
    report = verify_cps(cps, tol)
    result = {
        "conditioning_sets": len(cps.conditionals),
        "checked_pairs": report.checked_pairs,
        "max_residual": jnum(report.max_residual),
        "violations": [
            {
                "a": list(v.part_a),
                "b": list(v.part_b),
                "state": v.state,
                "feature": v.feature,
                "lhs": jnum(v.lhs),
                "rhs": jnum(v.rhs),
            }
            for v in report.violations
        ],
        "recovery": _recovery_json(outcome, with_rows=False),
    }
    verdict = "satisfied" if report.satisfied else "violated"
    return verdict, result, EXIT_OK if report.satisfied else EXIT_NEGATIVE


def _timed_oracle(doc: DatasetDocument):
    table: dict[tuple[tuple[str, int], ...], np.ndarray] = {}
    for query, outcome in doc.timed:
        table[query.key()] = outcome
    for f in doc.source.features():
        table.setdefault(((f, 1),), np.asarray(doc.source.outcome([f])))

    def oracle(query: TimedQuery) -> np.ndarray:
        key = query.key()
        if key not in table:
            label = tuple(f"{f}@{t}" for f, t in key)
            raise MissingDataError([label], f"no timed record for {label}")
        return table[key]

    return oracle


def cmd_discount(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "discount", ("timed",))
    oracle = _timed_oracle(doc)
    validation = [q for q, _ in doc.timed]
    try:
        rec = recover_discounted(
            oracle,
            doc.source.features(),
            doc.dimension,
            tol,
            validation=validation,
        )
    except (NotStationary, MultipleRankClasses) as err:
        return (
            "not-stationary",
            {"status": "not-stationary", "message": str(err)},
            EXIT_NEGATIVE,
        )
    result = {
        "q": jnum(rec.q),
        "weights": {f: jnum(w) for f, w in sorted(rec.weights.items())},
        "identification_pair": list(rec.identification_pair),
        "max_residual": jnum(rec.max_residual),
        "validation": [
            {
                "query": [f"{f}@{t}" for f, t in key],
                "residual": jnum(r),
            }
            for key, r in rec.validation_residuals
        ],
    }
    return "recovered", result, EXIT_OK


def cmd_luce(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "luce", ("menu",))
    outcome = recover_two_stage(doc.source, tol) if args.two_stage else recover_luce(doc.source, tol)
    boundary = boundary_diagnostic(doc.source, outcome.recovery, tol)
    result: dict[str, Any] = {
        "rationalizable": outcome.rationalizable,
        "two_stage": bool(args.two_stage),
        "rich": outcome.rich,
        "reason": outcome.reason,
        "boundary_menus": [list(m) for m in boundary.boundary_menus],
        "boundary_contradictions": [list(m) for m in boundary.contradictions],
    }
    if outcome.weights is not None:
        result["weights"] = {f: jnum(w) for f, w in sorted(outcome.weights.items())}
    if outcome.ranks is not None and args.two_stage:
        result["ranks"] = {f: r for f, r in sorted(outcome.ranks.items())}
    result["recovery"] = _recovery_json(outcome.recovery, with_rows=False)
    verdict = "rationalizable" if outcome.rationalizable else "not-rationalizable"
    return verdict, result, EXIT_OK if outcome.rationalizable else EXIT_NEGATIVE


def cmd_pathindep(args: argparse.Namespace, tol: Tolerance) -> Result:
    if args.max_pairs < 1:
        raise DatasetFormatError(
            "--max-pairs", f"must be at least 1, got {args.max_pairs!r}"
        )
    doc = _load(args, tol)
    _require_kind(doc, "pathindep", ("menu",))
    src = doc.source
    coords = {f: src.outcome([f]) for f in src.features()}
    if args.oracle == "dictatorial":
        oracle = make_dictatorial_oracle()
    else:
        oracle = make_luce_oracle(coords, doc.feature_weights, default_weight=1.0, tol=tol)

    stored = src.sets()
    disjoint = (
        (a, b) for i, a in enumerate(stored) for b in stored[i + 1 :] if not a & b
    )
    pairs = itertools.islice(disjoint, args.max_pairs)
    menus = [
        (
            Menu({f: coords[f] for f in a}),
            Menu({f: coords[f] for f in b}),
        )
        for a, b in pairs
    ]
    report = check_path_independence(oracle, menus, tol)
    result = {
        "oracle": args.oracle,
        "pairs_checked": len(report.rows),
        "max_residual": jnum(report.max_residual),
        "rows": [
            {
                "a": list(r.part_a),
                "b": list(r.part_b),
                "residual": jnum(r.residual),
                "passed": r.passed,
            }
            for r in report.rows
        ],
    }
    verdict = "satisfied" if report.satisfied else "violated"
    return verdict, result, EXIT_OK if report.satisfied else EXIT_NEGATIVE


def cmd_pareto(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "pareto", ("profile",))
    assert doc.direction is not None
    report = check_extended_pareto(doc.source, doc.direction, tol)
    result: dict[str, Any] = {
        "satisfied": report.satisfied,
        "splits_checked": len(report.axiom.checks),
        "violations": [
            {
                "a": list(v.part_a),
                "b": list(v.part_b),
                "union": list(v.union),
                "separation": _farkas_json(v.farkas),
            }
            for v in report.violations
        ],
    }
    if report.weights is not None:
        result["weights"] = {f: jnum(w) for f, w in sorted(report.weights.items())}
    if report.recovery is not None:
        result["recovery"] = _recovery_json(report.recovery, with_rows=False)
    verdict = "satisfied" if report.satisfied else "violated"
    return verdict, result, EXIT_OK if report.satisfied else EXIT_NEGATIVE


def cmd_gswf_verify(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "gswf-verify", ("profile",))
    assert doc.direction is not None
    if not doc.weight_table:
        raise DatasetFormatError("weights", "gswf-verify needs a weights table")
    try:
        table = verify_weight_table(doc.source, doc.weight_table, doc.direction, tol)
    except MissingDataError as err:
        raise DatasetFormatError("weights", str(err)) from None
    consistent = all(passed for _, _, passed in table)
    result = {
        "rows": [
            {"members": list(members), "residual": jnum(residual), "passed": passed}
            for members, residual, passed in table
        ],
        "max_residual": jnum(max((residual for _, residual, _ in table), default=0.0)),
        "consistent": consistent,
    }
    verdict = "consistent" if consistent else "inconsistent"
    return verdict, result, EXIT_OK if consistent else EXIT_NEGATIVE


def cmd_sdeu(args: argparse.Namespace, tol: Tolerance) -> Result:
    doc = _load(args, tol)
    _require_kind(doc, "sdeu", ("sdeu",))
    assert doc.direction is not None
    outcome = recover_state_dependent(doc.source, doc.direction, tol)
    if isinstance(outcome, NonRepresentable):
        return "non-representable", _recovery_json(outcome), EXIT_NEGATIVE
    if isinstance(outcome, MissingData):
        return "missing-data", _recovery_json(outcome), EXIT_MISSING
    result = {
        "probabilities": {s: jnum(p) for s, p in sorted(outcome.probabilities.items())},
        "indeterminate": outcome.indeterminate,
        "max_residual": jnum(outcome.max_residual),
        "verification": [
            {"members": list(m), "residual": jnum(r)} for m, r in outcome.verification
        ],
    }
    return "recovered", result, EXIT_OK


def cmd_gen(args: argparse.Namespace, tol: Tolerance) -> Result:
    config_fields: dict[str, Any] = {}
    if args.config:
        path = args.config
        try:
            if path == "-":
                config_fields = json.load(sys.stdin)
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    config_fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetFormatError(str(path), f"cannot read config: {exc}") from None
        if not isinstance(config_fields, dict):
            raise DatasetFormatError(str(path), "config must be an object")
    if args.seed is not None:
        config_fields["seed"] = args.seed
    if args.features is not None:
        config_fields["feature_count"] = args.features
    if args.dimension is not None:
        config_fields["dimension"] = args.dimension
    if args.classes is not None:
        config_fields["rank_classes"] = args.classes
    if args.policy is not None:
        config_fields["outcome_policy"] = args.policy
    if "seed" not in config_fields:
        raise DatasetFormatError("--seed", "gen needs a seed (flag or config)")
    policy_raw = config_fields.pop("outcome_policy", "random-rich")
    try:
        policy = OutcomePolicy(policy_raw)
    except ValueError:
        raise DatasetFormatError(
            "--policy", f"unknown policy {policy_raw!r}"
        ) from None
    if "weight_range" in config_fields:
        config_fields["weight_range"] = tuple(config_fields["weight_range"])
    try:
        cfg = GeneratorConfig(outcome_policy=policy, **config_fields)
    except TypeError as exc:
        raise DatasetFormatError("config", str(exc)) from None

    rep = gen_representation(cfg)
    subset_policy = (
        SubsetPolicy.PAIRS_AND_TRIPLES
        if args.subsets == "pairs-triples"
        else SubsetPolicy.ALL_SUBSETS
    )
    src = gen_dataset(rep, subset_policy)
    kind = args.kind
    if kind == "auto":
        kind = "belief" if policy is OutcomePolicy.SIMPLEX_BELIEFS else "generic"
    doc = dataset_to_json(src, kind=kind)
    result = {
        "dataset": doc,
        "seed": cfg.seed,
        "policy": policy.value,
        "true_ranks": {f: rep.ranks[f] for f in rep.features()},
        "true_weights": {f: jnum(rep.weights[f]) for f in rep.features()},
    }
    return "generated", result, EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "recover": cmd_recover,
    "eval": cmd_eval,
    "bayes": cmd_bayes,
    "cps": cmd_cps,
    "discount": cmd_discount,
    "luce": cmd_luce,
    "pathindep": cmd_pathindep,
    "pareto": cmd_pareto,
    "gswf-verify": cmd_gswf_verify,
    "sdeu": cmd_sdeu,
    "gen": cmd_gen,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggkit",
        description="Rationalizability checks and representation recovery "
        "for set-to-outcome aggregation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
        if needs_input:
            p.add_argument("input", help="dataset file, or - for stdin")
        p.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance (default 1e-9, or AGGKIT_TOL)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("check", help="test the averaging axiom on a dataset")
    p.add_argument("--axiom", choices=["weighted", "strict", "extreme"], default="weighted")
    common(p)

    p = sub.add_parser("recover", help="recover weights and ranks from a dataset")
    common(p)

    p = sub.add_parser("eval", help="recover, then evaluate one feature set")
    p.add_argument("--members", required=True, help="comma-separated feature ids")
    common(p)

    p = sub.add_parser("bayes", help="test a belief dataset for a single joint distribution")
    common(p)

    p = sub.add_parser("cps", help="build and verify the conditional probability system")
    common(p)

    p = sub.add_parser("discount", help="recover a stationary discount factor from timed data")
    common(p)

    p = sub.add_parser("luce", help="test a menu dataset for Luce rationalizability")
    p.add_argument("--two-stage", action="store_true", help="allow a first-stage rank filter")
    common(p)

    p = sub.add_parser("pathindep", help="check path independence of a reference oracle")
    p.add_argument("--oracle", choices=["dictatorial", "luce"], default="dictatorial")
    p.add_argument("--max-pairs", type=int, default=50, help="check at most this many disjoint pairs (at least 1)")
    common(p)

    p = sub.add_parser("pareto", help="test coalition utilities for extended Pareto")
    common(p)

    p = sub.add_parser("gswf-verify", help="verify a welfare weight table against coalition data")
    common(p)

    p = sub.add_parser("sdeu", help="recover state probabilities from conditional utilities")
    common(p)

    p = sub.add_parser("gen", help="generate a dataset from a seed")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file of generator fields")
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--policy", choices=[pol.value for pol in OutcomePolicy], default=None)
    p.add_argument("--subsets", choices=["all", "pairs-triples"], default="all")
    p.add_argument("--kind", choices=["auto", "generic", "belief", "menu"], default="auto")
    common(p, needs_input=False)

    return parser


def _emit(report: Mapping[str, Any], args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dump_json(report, fh)
    else:
        dump_json(report, sys.stdout)


def _argument_echo(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "out", "func"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        echo[key.replace("_", "-")] = value
    return echo


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tool": "aggkit",
        "command": args.command,
        "arguments": _argument_echo(args),
    }
    try:
        tol = _tolerance(args)
        report["tolerance"] = {"abs": tol.abs_tol, "rel": tol.rel_tol}
        verdict, result, code = COMMANDS[args.command](args, tol)
    except IntransitivityDetected as err:
        verdict = "intransitive"
        result = {"triple": list(err.triple), "message": str(err)}
        code = EXIT_NEGATIVE
    except MissingDataError as err:
        verdict = "missing-data"
        result = {
            "required": [list(s) for s in err.required],
            "message": str(err),
        }
        code = EXIT_MISSING
    except (AggkitError, ValueError) as err:
        verdict = "error"
        result = {"message": str(err), "error": type(err).__name__}
        code = EXIT_USAGE
    report["verdict"] = verdict
    report["result"] = result
    report["exit_code"] = code
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
