"""Command line front end.

Every subcommand reads one dataset file (``-`` for stdin), prints one
JSON report (or writes it with ``--out``), and exits 0 on a positive
verdict, 1 on a negative one, 2 on input or usage errors, and 3 when
required data is missing.  Reports are byte-identical across runs on
identical inputs.  The tolerance comes from ``--tol``, falling back to
the ``AGGKIT_TOL`` environment variable, then to 1e-9.

Importing this module loads only what parsing, loading and the report
writer need: ``errors``, ``geometry``, ``model`` and ``fileio``.  Each
handler imports its reading in its own body, so a command loads
``recovery``, ``belief``, ``choice``, ``social`` or ``testkit`` when it
is dispatched.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import (
    AggkitError,
    DatasetFormatError,
    MissingDataError,
    MultipleRankClasses,
    NotStationary,
)
from .fileio import (
    DatasetDocument,
    FORMAT_VERSION,
    Indexed,
    Records,
    dataset_to_json,
    dump_json,
    load_dataset,
)
from .geometry import Tolerance
from .model import (
    _REASONS,
    AxiomMode,
    check_axiom,
    check_richness,
    check_strong_richness,
    evaluate,
)

if TYPE_CHECKING:
    from .belief import TimedQuery
    from .recovery import RecoveryOutcome

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_MISSING = 3

ENV_TOL = "AGGKIT_TOL"

# The values of ``testkit.OutcomePolicy``, for the choices of ``gen
# --policy``: parsing never loads the generators.  A test holds them equal.
_POLICIES = ("random-rich", "collinear", "simplex-beliefs")

__all__ = ["main"]


def _tolerance(args: argparse.Namespace) -> Tolerance:
    """``--tol``, else ``AGGKIT_TOL``, else 1e-9; an error names its source."""
    value, origin = args.tol, "--tol"
    if value is None:
        raw = os.environ.get(ENV_TOL)
        if raw is None:
            return Tolerance()
        origin = ENV_TOL
        try:
            value = float(raw)
        except ValueError:
            raise DatasetFormatError(ENV_TOL, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(origin, f"must be finite, got {value!r}")
    if not value > 0:
        raise DatasetFormatError(origin, f"must be positive, got {value!r}")
    return Tolerance(abs_tol=value, rel_tol=value)


def _load(args: argparse.Namespace, tol: Tolerance) -> DatasetDocument:
    if args.input == "-":
        return load_dataset(sys.stdin, tol, name="<stdin>")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return load_dataset(fh, tol, name=args.input)
    except FileNotFoundError:
        raise DatasetFormatError(args.input, "no such file") from None
    except OSError as exc:
        raise DatasetFormatError(args.input, f"cannot read: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# report shaping


def _recovery_json(outcome: RecoveryOutcome, with_rows: bool = True) -> dict[str, Any]:
    from .recovery import MissingData, NonRepresentable, Recovered
    if isinstance(outcome, Recovered):
        rep = outcome.representation
        out: dict[str, Any] = {
            "status": "recovered",
            "weights": dict(rep.weights),
            "ranks": dict(rep.ranks),
            "max_residual": outcome.max_residual,
            "indeterminate_classes": outcome.indeterminate_classes,
        }
        if with_rows:
            checked = outcome.verification
            out["verification"] = Records(
                ("members", "observed", "predicted", "residual", "passed"),
                (
                    checked.members,
                    checked.observed,
                    checked.predicted,
                    checked.residual,
                    checked.passed.tolist(),
                ),
            )
        return out
    if isinstance(outcome, NonRepresentable):
        return {
            "status": "non-representable",
            "witness": asdict(outcome.witness),
            "failing_sets": outcome.failing_sets,
            "max_residual": outcome.max_residual,
        }
    assert isinstance(outcome, MissingData)
    return {"status": "missing-data", "required": outcome.required}


# --------------------------------------------------------------------------
# subcommands, and the table that names them

Result = tuple[str, dict[str, Any], int]  # (verdict, result, exit code)
Handler = Callable[[argparse.Namespace, Tolerance, DatasetDocument | None], Result]
Flag = tuple[tuple[str, ...], dict[str, Any]]


@dataclass(frozen=True)
class Command:
    """One row of COMMANDS: handler, help line, own flags and input.

    ``main`` reads the dataset when ``reads_dataset`` is set, refuses a
    kind outside ``kinds`` (empty accepts every kind) and then calls
    ``handler(args, tol, doc)``, which only computes and shapes.
    """

    handler: Handler
    help: str
    flags: tuple[Flag, ...] = ()
    kinds: tuple[str, ...] = ()
    reads_dataset: bool = True


def _flag(*names: str, **options: Any) -> Flag:
    """The arguments of one ``add_argument`` call."""
    return names, options


def _boolean(ok: bool, positive: str, negative: str, result: dict[str, Any]) -> Result:
    """A yes/no verdict: exit 0 with ``positive``, or 1 with ``negative``."""
    return (positive, result, EXIT_OK) if ok else (negative, result, EXIT_NEGATIVE)


_RECOVERY_EXIT = {"recovered": EXIT_OK, "non-representable": EXIT_NEGATIVE, "missing-data": EXIT_MISSING}


def _recovery_result(outcome: RecoveryOutcome) -> Result:
    """A recovery outcome as the whole report; its status is the verdict."""
    result = _recovery_json(outcome)
    return result["status"], result, _RECOVERY_EXIT[result["status"]]


def cmd_check(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
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
        strong_json = {"status": "undecidable", "required": err.required}
    result = {
        "axiom": mode.value,
        "satisfied": report.satisfied,
        "checks": Records(
            ("a", "b", "union", "lambda", "residual", "degenerate", "passed", "reason"),
            (
                Indexed(report.part_a.tolist(), report.members),
                Indexed(report.part_b.tolist(), report.members),
                Indexed(report.union.tolist(), report.members),
                report.lam,
                report.residual,
                Indexed(report.degenerate.tolist(), (False, True)),
                Indexed((report.reason == 0).tolist(), (False, True)),
                Indexed(report.reason.tolist(), _REASONS),
            ),
        ),
        "violations": int(np.count_nonzero(report.reason)),
        "rich": rich,
        "strong_richness": strong_json,
    }
    return _boolean(report.satisfied, "satisfied", "violated", result)


def cmd_recover(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .recovery import recover
    return _recovery_result(recover(doc.source, tol))


def cmd_eval(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    members = args.members.split(",")
    if not all(members):
        raise DatasetFormatError("--members", "expected a comma-separated list of features")
    if len(set(members)) != len(members):
        raise DatasetFormatError("--members", "duplicate members")
    from .recovery import Recovered, recover
    outcome = recover(doc.source, tol)
    if not isinstance(outcome, Recovered):
        return _recovery_result(outcome)
    value = evaluate(outcome.representation, members)
    result = {
        "members": sorted(members),
        "value": value.tolist(),
        "recovery": _recovery_json(outcome, with_rows=False),
    }
    return "evaluated", result, EXIT_OK


def cmd_bayes(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .belief import check_bayesian
    check = check_bayesian(doc.source, tol)
    result: dict[str, Any] = {
        "consistent": check.consistent,
        "detail": check.detail,
        "max_residual": check.max_residual,
        "recovery": _recovery_json(check.recovery, with_rows=False),
    }
    if check.joint is not None:
        result["joint"] = {"features": check.joint.features, "table": check.joint.table.tolist()}
    return _boolean(check.consistent, "consistent", "inconsistent", result)


def cmd_cps(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .belief import build_cps, verify_cps
    from .recovery import Recovered, recover
    outcome = recover(doc.source, tol)
    if not isinstance(outcome, Recovered):
        return _recovery_result(outcome)
    cps = build_cps(outcome.representation, tol)
    report = verify_cps(cps, tol)
    result = {
        "conditioning_sets": len(cps.source),
        "checked_pairs": report.checked_pairs,
        "max_residual": report.max_residual,
        "violations": [
            {"a": v.part_a, "b": v.part_b, "state": v.state, "feature": v.feature, "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
        "recovery": _recovery_json(outcome, with_rows=False),
    }
    return _boolean(report.satisfied, "satisfied", "violated", result)


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


def cmd_discount(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .belief import recover_discounted
    validation = [q for q, _ in doc.timed]
    try:
        rec = recover_discounted(
            _timed_oracle(doc), doc.source.features(), doc.dimension, tol, validation=validation
        )
    except (NotStationary, MultipleRankClasses) as err:
        result = {"status": "not-stationary", "message": str(err)}
        return "not-stationary", result, EXIT_NEGATIVE
    result = {
        "q": rec.q,
        "weights": dict(rec.weights),
        "identification_pair": rec.identification_pair,
        "max_residual": rec.max_residual,
        "validation": [
            {"query": [f"{f}@{t}" for f, t in key], "residual": r}
            for key, r in rec.validation_residuals
        ],
    }
    return "recovered", result, EXIT_OK


def cmd_luce(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .choice import boundary_diagnostic, recover_luce, recover_two_stage
    outcome = recover_two_stage(doc.source, tol) if args.two_stage else recover_luce(doc.source, tol)
    boundary = boundary_diagnostic(doc.source, outcome.recovery, tol)
    result: dict[str, Any] = {
        "rationalizable": outcome.rationalizable,
        "two_stage": bool(args.two_stage),
        "rich": outcome.rich,
        "reason": outcome.reason,
        "boundary_menus": boundary.boundary_menus,
        "boundary_contradictions": boundary.contradictions,
    }
    if outcome.weights is not None:
        result["weights"] = dict(outcome.weights)
    if outcome.ranks is not None and args.two_stage:
        result["ranks"] = dict(outcome.ranks)
    result["recovery"] = _recovery_json(outcome.recovery, with_rows=False)
    return _boolean(outcome.rationalizable, "rationalizable", "not-rationalizable", result)


def cmd_pathindep(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    if args.max_pairs < 1:
        raise DatasetFormatError(
            "--max-pairs", f"must be at least 1, got {args.max_pairs!r}"
        )
    from .choice import Menu, check_path_independence, make_dictatorial_oracle, make_luce_oracle
    src = doc.source
    coords = {f: src.outcome([f]) for f in src.features()}
    if args.oracle == "dictatorial":
        oracle = make_dictatorial_oracle()
    else:
        oracle = make_luce_oracle(coords, doc.feature_weights, tol=tol)

    stored = src.sets()
    disjoint = (
        (a, b) for i, a in enumerate(stored) for b in stored[i + 1 :] if not a & b
    )
    pairs = itertools.islice(disjoint, args.max_pairs)
    menus = [
        (Menu({f: coords[f] for f in a}), Menu({f: coords[f] for f in b})) for a, b in pairs
    ]
    report = check_path_independence(oracle, menus, tol)
    result = {
        "oracle": args.oracle,
        "pairs_checked": len(report.rows),
        "max_residual": report.max_residual,
        "rows": [
            {"a": r.part_a, "b": r.part_b, "residual": r.residual, "passed": r.passed}
            for r in report.rows
        ],
    }
    return _boolean(report.satisfied, "satisfied", "violated", result)


def cmd_pareto(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .social import _FARKAS_TYPES, check_extended_pareto
    assert doc.direction is not None
    report = check_extended_pareto(doc.source, doc.direction, tol)
    result: dict[str, Any] = {
        "satisfied": report.satisfied,
        "splits_checked": report.axiom.check_count,
        "violations": [
            {
                "a": v.part_a,
                "b": v.part_b,
                "union": v.union,
                "separation": {"type": _FARKAS_TYPES[type(v.farkas)], **asdict(v.farkas)},
            }
            for v in report.violations
        ],
    }
    if report.weights is not None:
        result["weights"] = dict(report.weights)
    if report.recovery is not None:
        result["recovery"] = _recovery_json(report.recovery, with_rows=False)
    return _boolean(report.satisfied, "satisfied", "violated", result)


def cmd_gswf_verify(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .social import verify_weight_table
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
            {"members": members, "residual": residual, "passed": passed}
            for members, residual, passed in table
        ],
        "max_residual": max((residual for _, residual, _ in table), default=0.0),
        "consistent": consistent,
    }
    return _boolean(consistent, "consistent", "inconsistent", result)


def cmd_sdeu(args: argparse.Namespace, tol: Tolerance, doc: DatasetDocument) -> Result:
    from .social import StateDependentRepresentation, recover_state_dependent
    assert doc.direction is not None
    outcome = recover_state_dependent(doc.source, doc.direction, tol)
    if not isinstance(outcome, StateDependentRepresentation):
        return _recovery_result(outcome)
    result = {
        "probabilities": dict(outcome.probabilities),
        "indeterminate": outcome.indeterminate,
        "max_residual": outcome.max_residual,
        "verification": [{"members": m, "residual": r} for m, r in outcome.verification],
    }
    return "recovered", result, EXIT_OK


def cmd_gen(args: argparse.Namespace, tol: Tolerance, doc: None) -> Result:
    from .testkit import GeneratorConfig, OutcomePolicy, SubsetPolicy, gen_dataset, gen_representation
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
    flags = {"seed": "seed", "features": "feature_count", "dimension": "dimension",
             "classes": "rank_classes", "policy": "outcome_policy"}
    origin = {field: f"--{flag}" for flag, field in flags.items() if getattr(args, flag) is not None}
    for flag, field in flags.items():
        if getattr(args, flag) is not None:
            config_fields[field] = getattr(args, flag)
    if "seed" not in config_fields:
        raise DatasetFormatError("--seed", "gen needs a seed (flag or config)")
    policy_raw = config_fields.pop("outcome_policy", "random-rich")
    try:
        policy = OutcomePolicy(policy_raw)
    except ValueError:
        raise DatasetFormatError(origin.get("outcome_policy", "config"), f"unknown policy {policy_raw!r}") from None
    try:
        if "weight_range" in config_fields:
            config_fields["weight_range"] = tuple(config_fields["weight_range"])
        cfg = GeneratorConfig(outcome_policy=policy, **config_fields)
    except (TypeError, ValueError) as exc:  # a field's own fault opens with its name: point at its flag
        raise DatasetFormatError(origin.get(str(exc).split(" ", 1)[0], "config"), str(exc)) from None

    rep = gen_representation(cfg)
    subsets = SubsetPolicy.PAIRS_AND_TRIPLES if args.subsets == "pairs-triples" else SubsetPolicy.ALL_SUBSETS
    src = gen_dataset(rep, subsets)
    kind = args.kind
    if kind == "auto":
        kind = "belief" if policy is OutcomePolicy.SIMPLEX_BELIEFS else "generic"
    result = {
        "dataset": dataset_to_json(src, kind=kind),
        "seed": cfg.seed,
        "policy": policy.value,
        "true_ranks": dict(rep.ranks),
        "true_weights": dict(rep.weights),
    }
    return "generated", result, EXIT_OK


COMMANDS: dict[str, Command] = {
    "check": Command(
        cmd_check,
        "test the averaging axiom on a dataset",
        (_flag("--axiom", choices=[m.value for m in AxiomMode], default="weighted"),),
    ),
    "recover": Command(cmd_recover, "recover weights and ranks from a dataset"),
    "eval": Command(
        cmd_eval,
        "recover, then evaluate one feature set",
        (_flag("--members", required=True, help="comma-separated feature ids"),),
    ),
    "bayes": Command(cmd_bayes, "test a belief dataset for a single joint distribution", kinds=("belief",)),
    "cps": Command(cmd_cps, "build and verify the conditional probability system", kinds=("belief",)),
    "discount": Command(cmd_discount, "recover a stationary discount factor from timed data", kinds=("timed",)),
    "luce": Command(
        cmd_luce,
        "test a menu dataset for Luce rationalizability",
        (_flag("--two-stage", action="store_true", help="allow a first-stage rank filter"),),
        kinds=("menu",),
    ),
    "pathindep": Command(
        cmd_pathindep,
        "check path independence of a reference oracle",
        (
            _flag("--oracle", choices=["dictatorial", "luce"], default="dictatorial"),
            _flag("--max-pairs", type=int, default=50, help="check at most this many disjoint pairs (at least 1)"),
        ),
        kinds=("menu",),
    ),
    "pareto": Command(cmd_pareto, "test coalition utilities for extended Pareto", kinds=("profile",)),
    "gswf-verify": Command(cmd_gswf_verify, "verify a welfare weight table against coalition data", kinds=("profile",)),
    "sdeu": Command(cmd_sdeu, "recover state probabilities from conditional utilities", kinds=("sdeu",)),
    "gen": Command(
        cmd_gen,
        "generate a dataset from a seed",
        (
            _flag("--seed", type=int, default=None),
            _flag("--config", default=None, help="JSON file of generator fields"),
            _flag("--features", type=int, default=None),
            _flag("--dimension", type=int, default=None),
            _flag("--classes", type=int, default=None),
            _flag("--policy", choices=list(_POLICIES), default=None),
            _flag("--subsets", choices=["all", "pairs-triples"], default="all"),
            _flag("--kind", choices=["auto", "generic", "belief", "menu"], default="auto"),
        ),
        reads_dataset=False,
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="aggkit",
        description="Rationalizability checks and representation recovery "
        "for set-to-outcome aggregation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for names, options in cmd.flags:
            p.add_argument(*names, **options)
        if cmd.reads_dataset:
            p.add_argument("input", help="dataset file, or - for stdin")
        p.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance (default 1e-9, or AGGKIT_TOL)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _usage_error(err: Exception) -> Result:
    return "error", {"message": str(err), "error": type(err).__name__}, EXIT_USAGE


def _argument_echo(args: argparse.Namespace) -> dict[str, Any]:
    return {
        key.replace("_", "-"): value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "out") and value is not None
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    report: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "tool": "aggkit",
        "command": args.command,
        "arguments": _argument_echo(args),
    }
    try:
        tol = _tolerance(args)
        report["tolerance"] = {"abs": tol.abs_tol, "rel": tol.rel_tol}
        doc = _load(args, tol) if cmd.reads_dataset else None
        if cmd.kinds and doc.kind not in cmd.kinds:
            raise DatasetFormatError(
                "kind",
                f"the {args.command} command needs a dataset of kind "
                f"{' or '.join(repr(k) for k in cmd.kinds)}, got {doc.kind!r}",
            )
        verdict, result, code = cmd.handler(args, tol, doc)
    except MissingDataError as err:
        verdict = "missing-data"
        result = {"required": err.required, "message": str(err)}
        code = EXIT_MISSING
    except (AggkitError, ValueError) as err:
        verdict, result, code = _usage_error(err)
    stream: Any = contextlib.nullcontext(sys.stdout)
    try:
        stream = open(args.out, "w", encoding="utf-8") if args.out else stream
    except OSError as exc:  # the report goes to stdout instead
        verdict, result, code = _usage_error(DatasetFormatError("--out", f"cannot write: {exc.strerror or exc}"))
    report.update(verdict=verdict, result=result, exit_code=code)
    with stream as out:
        dump_json(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
