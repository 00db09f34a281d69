"""Spans around the public entry points of each aggkit module.

The tracer wraps functions from the benchmark's side: ``install``
replaces every binding of a traced function in the loaded ``aggkit``
modules (``from .model import check_axiom`` makes one binding per
importing module) with a wrapper that records a span, and
``uninstall`` puts the originals back.  A span is (name, start, end,
parent index, verdict index); a span with no parent opens a new
verdict.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable


def _verified_rows(counts: Counter, outcome, args) -> None:
    # Recovered carries its verification rows; a NonRepresentable with
    # failing sets ran the same pass over every stored set of the source.
    rows = getattr(outcome, "verification", None)
    if rows is not None:
        counts["recovery.verified_sets"] += len(rows)
    elif getattr(outcome, "failing_sets", ()):
        counts["recovery.verified_sets"] += len(args[0])


# (module, function, counter called with (counts, result, args) or None)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("cli", "main", None),
    (
        "fileio",
        "load_dataset",
        lambda c, doc, a: c.update({"fileio.sets_loaded": len(doc.source)}),
    ),
    ("fileio", "dump_json", None),
    (
        "model",
        "check_axiom",
        lambda c, rep, a: c.update(
            {"model.axiom_checks": len(rep.checks), "model.axiom_violations": len(rep.violations)}
        ),
    ),
    ("model", "check_richness", None),
    ("model", "check_strong_richness", None),
    ("geometry", "segment_coefficient", None),
    ("geometry", "relative_interior_check", None),
    ("recovery", "recover", _verified_rows),
    ("recovery", "recover_order", None),
    ("recovery", "recover_weights", None),
    ("belief", "check_bayesian", None),
    ("belief", "build_cps", None),
    (
        "belief",
        "verify_cps",
        lambda c, rep, a: c.update({"belief.cps_pairs": rep.checked_pairs}),
    ),
    ("choice", "recover_luce", None),
    ("choice", "recover_two_stage", None),
    ("choice", "boundary_diagnostic", None),
    (
        "social",
        "check_extended_pareto",
        lambda c, rep, a: c.update({"social.pareto_splits": len(rep.axiom.checks)}),
    ),
)

# Per-layer metric -> span names whose durations it sums.
SUMS = {
    "fileio.load_s": ("fileio.load_dataset",),
    "fileio.dump_s": ("fileio.dump_json",),
    "model.check_axiom_s": ("model.check_axiom",),
    "model.richness_s": ("model.check_richness", "model.check_strong_richness"),
    "geometry.hull_s": ("geometry.relative_interior_check",),
    "recovery.order_s": ("recovery.recover_order",),
    "recovery.weights_s": ("recovery.recover_weights",),
    "recovery.recover_s": ("recovery.recover",),
    "belief.bayes_s": ("belief.check_bayesian",),
    "belief.build_cps_s": ("belief.build_cps",),
    "belief.verify_cps_s": ("belief.verify_cps",),
    "choice.luce_s": ("choice.recover_luce", "choice.recover_two_stage"),
    "choice.boundary_s": ("choice.boundary_diagnostic",),
    "social.pareto_s": ("social.check_extended_pareto",),
    "cli.verdict_s": ("cli.main",),
}
COUNTS = (
    "fileio.sets_loaded",
    "model.axiom_checks",
    "model.axiom_violations",
    "recovery.verified_sets",
    "belief.cps_pairs",
    "social.pareto_splits",
)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._verdicts = 0
        self._wrappers: dict[int, Callable] = {}
        self._saved: list[tuple[object, str, object]] = []
        for module, name, count in TARGETS:
            fn = getattr(importlib.import_module(f"aggkit.{module}"), name)
            self._wrappers[id(fn)] = self._wrap(f"{module}.{name}", fn, count)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._verdicts += 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._verdicts - 1)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def install(self) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("aggkit"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self._verdicts = 0
        return spans, counts


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer seconds and counts of one traced batch pass."""
    total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    order_weights: dict[int, float] = defaultdict(float)
    segment_in_axiom = 0.0
    for name, start, end, parent, _verdict in spans:
        took = end - start
        total[name] += took
        if parent is None:
            continue
        children[parent] += took
        parent_name = spans[parent][0]
        if name == "geometry.segment_coefficient" and parent_name == "model.check_axiom":
            segment_in_axiom += took
        if parent_name == "recovery.recover" and name in (
            "recovery.recover_order",
            "recovery.recover_weights",
        ):
            order_weights[parent] += took
    out = {metric: sum(total[n] for n in names) for metric, names in SUMS.items()}
    out["geometry.segment_s"] = segment_in_axiom
    out["recovery.verify_s"] = sum(
        (s[2] - s[1]) - order_weights[i]
        for i, s in enumerate(spans)
        if s[0] == "recovery.recover"
    )
    out["cli.shape_s"] = sum(
        (s[2] - s[1]) - children[i] for i, s in enumerate(spans) if s[0] == "cli.main"
    )
    for name in COUNTS:
        out[name] = counts[name]
    return out
