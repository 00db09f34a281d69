"""Correctness gate: compare one CLI report with what its input must give.

Each manifest item carries an ``expect`` block written by gen.py from
the generator's ground truth.  ``problems`` returns an empty list when
the report agrees with it, else one line per disagreement.  The
benchmark counts a verdict with any problem as failed; it never stops
the run.
"""

from __future__ import annotations

from typing import Any

WEIGHT_RTOL = 1e-6


def _block(result: dict, at: str | None) -> dict:
    if at is None:
        return result
    block = result.get(at)
    return block if isinstance(block, dict) else {}


def _truth(block: dict, truth: dict) -> list[str]:
    """Ranks equal the true ranks; within-class weight ratios match."""
    if block.get("ranks") != truth["ranks"]:
        return ["recovered ranks differ from the generator's"]
    weights = block.get("weights") or {}
    problems = []
    classes: dict[int, list[str]] = {}
    for f, level in truth["ranks"].items():
        classes.setdefault(level, []).append(f)
    for group in classes.values():
        anchor = min(group)
        for f in group:
            want = truth["weights"][f] / truth["weights"][anchor]
            got_f, got_a = weights.get(f), weights.get(anchor)
            if not isinstance(got_f, (int, float)) or not isinstance(got_a, (int, float)):
                problems.append(f"weight of {f} missing")
                continue
            got = got_f / got_a
            if abs(got - want) > WEIGHT_RTOL * abs(want):
                problems.append(f"weight ratio {f}/{anchor} is {got!r}, expected {want!r}")
    return problems


def _checks(result: dict, expect: dict) -> list[str]:
    checks = result.get("checks") or []
    problems = []
    if len(checks) != expect["checks"]:
        problems.append(f"{len(checks)} axiom checks, expected {expect['checks']}")
    size = expect.get("failing_union_size")
    for c in checks:
        should_fail = size is not None and len(c["union"]) == size
        if c["passed"] == should_fail:
            problems.append(f"check {c['a']} | {c['b']} passed={c['passed']}")
            break
        if not c["passed"] and not c["reason"]:
            problems.append(f"violated check {c['a']} | {c['b']} gives no reason")
            break
    failed = sum(not c["passed"] for c in checks)
    if result.get("violations") != failed:
        problems.append(f"violations={result.get('violations')} but {failed} checks failed")
    strong = (result.get("strong_richness") or {}).get("status")
    if strong != expect["strong_richness"]:
        problems.append(f"strong richness {strong!r}, expected {expect['strong_richness']!r}")
    return problems


def problems(item: dict, code: int, report: Any) -> list[str]:
    """Every way the report of ``item`` disagrees with its expectation."""
    expect = item["expect"]
    out = []
    if code != expect["exit_code"]:
        out.append(f"exit code {code}, expected {expect['exit_code']}")
    if not isinstance(report, dict):
        return out + ["report is not a JSON object"]
    if report.get("exit_code") != code:
        out.append(f"report says exit code {report.get('exit_code')}, process gave {code}")
    if report.get("verdict") != expect["verdict"]:
        out.append(f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}")
    result = report.get("result")
    if not isinstance(result, dict):
        return out + ["report has no result object"]
    if "truth" in expect:
        out += _truth(_block(result, expect.get("truth_at")), expect["truth"])
    if "checks" in expect:
        out += _checks(result, expect)
    if "verified_rows" in expect:
        rows = result.get("verification") or []
        if len(rows) != expect["verified_rows"] or not all(r["passed"] for r in rows):
            out.append("verification rows are missing or failing")
    for key in ("failing_sets", "required", "boundary_menus", "conditioning_sets", "checked_pairs", "splits_checked"):
        if key in expect and result.get(key) != expect[key]:
            out.append(f"{key} differs from the expected value")
    if expect.get("boundary_menus") is not None and result.get("boundary_contradictions"):
        out.append("boundary contradictions reported")
    if expect["verdict"] == "non-representable":
        pair = (result.get("witness") or {}).get("pair") or []
        if len(pair) != 2:
            out.append("non-representable verdict without a witness pair")
    return out
