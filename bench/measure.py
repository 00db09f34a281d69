"""Timed run of one workload's batch of CLI verdicts, in-process.

    python3 bench/measure.py --manifest M --seconds S --trace 0|1 --result R [--spans F]

``run.py`` starts this script in its own child process, with one BLAS
thread, after gen.py has written the manifest.  One client runs the
batch in a closed loop: each verdict is ``aggkit.cli.main`` on one input
with ``--out`` to a report file, and the next starts when it returns.
Every report is checked by gate.py the first time an item produces it
and must be byte-identical every later time.

Untraced (``--trace 0``): batch passes repeat until S seconds have gone
and at least two passes are complete, so every item is produced twice.
A reference unit is timed between verdicts, and the end-to-end times
are calibrated by it (see calibrate.py).
Traced (``--trace 1``): an untraced pass and a traced pass alternate
until S seconds have gone; the per-layer metrics are medians over the
traced passes and the spans are written to F at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from aggkit import cli

import calibrate
import gate
import spans

MIN_PASSES = 2
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MAX_LOGGED = 5  # failure messages written to stderr per run


class Batch:
    """The manifest's items, the report file, and the correctness tally."""

    def __init__(self, items: list[dict], report: Path):
        self.items = items
        self.report = report
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.report_bytes: dict[str, int] = {}

    def run(self, item: dict) -> float:
        """One verdict; returns its wall time from load to report written."""
        argv = [item["command"], item["input"], "--out", str(self.report)]
        self.attempted += 1
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            took = perf_counter() - start
            self._fail(item, [f"exited with SystemExit({exc.code})"])
            return took
        except Exception:
            took = perf_counter() - start
            self._fail(item, [traceback.format_exc()])
            return took
        took = perf_counter() - start
        self._check(item, code)
        return took

    def _check(self, item: dict, code: int) -> None:
        data = self.report.read_bytes()
        self.report_bytes[item["id"]] = len(data)
        digest = hashlib.sha256(data).hexdigest()
        seen = self.first.get(item["id"])
        if seen is None:
            try:
                report = json.loads(data)
            except json.JSONDecodeError as exc:
                found = [f"report is not JSON: {exc}"]
            else:
                found = gate.problems(item, code, report)
            self.first[item["id"]] = (digest, found)
        elif digest != seen[0]:
            found = ["report differs from the first one for the same input"]
        else:
            found = seen[1]
        if found:
            self._fail(item, found)

    def _fail(self, item: dict, found: list[str]) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED:
            print(f"FAILED {item['id']}: {'; '.join(found)}", file=sys.stderr)

    def pass_report_bytes(self) -> int:
        """Bytes of the reports one pass over the timed items writes."""
        return sum(self.report_bytes[item["id"]] for item in self.items)

    def run_pass(self) -> float:
        """One pass over every item; returns the summed verdict time."""
        return sum(self.run(item) for item in self.items)


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def summary(times: list[float]) -> dict[str, float]:
    value, _ = tail(times)
    return {
        "verdicts_per_s": len(times) / sum(times),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": value,
    }


def untraced(batch: Batch, seconds: float) -> dict:
    raw: list[float] = []
    references: list[float] = []
    deadline = perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        for item in batch.items:
            references.append(calibrate.reference_seconds())
            raw.append(batch.run(item))
            if passes >= MIN_PASSES and perf_counter() >= deadline:
                break
        passes += 1
    references.append(calibrate.reference_seconds())
    metrics = summary(
        [calibrate.scaled(t, references[k], references[k + 1]) for k, t in enumerate(raw)]
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": metrics,
        "raw": summary(raw),
        "reference_s": statistics.median(references),
        "tail": {"percentile": tail(raw)[1], "samples": len(raw), "beyond": TAIL_BEYOND},
        "passes": passes,
    }


def traced(batch: Batch, seconds: float, spans_out: Path | None) -> dict:
    tracer = spans.Tracer()
    plain_walls, traced_walls, per_pass, kept = [], [], [], []
    deadline = perf_counter() + seconds
    while not per_pass or perf_counter() < deadline:
        plain_walls.append(batch.run_pass())
        tracer.install()
        try:
            traced_walls.append(batch.run_pass())
        finally:
            tracer.uninstall()
        recorded, counts = tracer.take()
        per_pass.append(spans.layer_metrics(recorded, counts))
        per_pass[-1]["fileio.report_bytes"] = batch.pass_report_bytes()
        kept.append(recorded)
    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    if spans_out is not None:
        write_spans(spans_out, kept, batch.items)
    return {"metrics": metrics, "passes": len(per_pass)}


def write_spans(path: Path, passes: list[list[tuple]], items: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, recorded in enumerate(passes):
            for name, start, end, parent, verdict in recorded:
                fh.write(
                    json.dumps(
                        {
                            "pass": number,
                            "verdict": verdict,
                            "item": items[verdict]["id"],
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    batch = Batch(manifest["items"], args.manifest.parent / "report.json")
    # Untimed items run twice, so that their reports are compared too.
    for item in manifest["once"] * 2:
        batch.run(item)
    # Untimed warm-up: the first verdict of each command pays one-off costs.
    warmed = set()
    for item in batch.items:
        if item["command"] not in warmed:
            warmed.add(item["command"])
            batch.run(item)
    gc.collect()

    if args.trace:
        out = traced(batch, args.seconds, args.spans)
    else:
        out = untraced(batch, args.seconds)
    out.update(
        attempted=batch.attempted,
        failed=batch.failed,
        report_bytes_per_pass=batch.pass_report_bytes(),
        python=sys.version.split()[0],
        numpy=np.__version__,
    )
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
