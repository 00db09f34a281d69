"""aggkit benchmark: seeded CLI-verdict workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The script itself imports neither numpy
nor aggkit.  It starts three kinds of child process, one after another,
each with one BLAS/OpenMP thread and ``src`` on the import path:

1. gen.py writes the seeded inputs and their ground truth (not timed);
2. ``python -c 'import aggkit.cli'`` several times, for ``setup_s``;
3. measure.py runs the batch of verdicts and checks every report.

It prints one line per metric with its unit, an ``info`` line (seed,
input size, versions, ``src`` line count), and last one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--smoke`` shrinks every input to its minimal size.
Scratch files live under ``.bench/`` in the repository root; the spans
of the latest traced run of each workload are kept in ``.bench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Workload names, metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SETUP_SAMPLES = {"full": 9, "smoke": 3}
GEN_TIMEOUT = 60
SETUP_TIMEOUT = 30
MEASURE_SLACK = 110  # seconds a measuring child may run beyond --seconds


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AGGKIT_TOL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> None:
    """Run a child to completion; its output goes to our stderr."""
    try:
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(argv[1]).name} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} exited with code {proc.returncode}")


# Child for setup_s: the clock readings bracket the import; the reference
# unit runs right before and right after it, outside the timed interval.
SETUP_CODE = """\
import time
t0 = time.monotonic()
import sys
sys.path.insert(0, {bench!r})
import calibrate
r0 = calibrate.reference_seconds()
t1 = time.monotonic()
import aggkit.cli
t2 = time.monotonic()
print(t0, t1, t2, r0, calibrate.reference_seconds())
"""


def setup_seconds(env: dict[str, str], samples: int) -> tuple[float, float]:
    """Median time from starting an interpreter to ``import aggkit.cli`` done.

    Each sample is the interval from starting the child to its first
    statement plus the import itself.  The first start is untimed and
    warms the bytecode cache.  Returns the calibrated and the raw median.
    """
    code = SETUP_CODE.format(bench=str(BENCH))
    raw, scaled = [], []
    for attempt in range(samples + 1):
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"import aggkit.cli took over {SETUP_TIMEOUT} s") from None
        if proc.returncode != 0:
            raise BenchError(f"import aggkit.cli failed: {proc.stderr.strip()}")
        if attempt:
            t0, t1, t2, before, after = map(float, proc.stdout.split())
            took = (t0 - start) + (t2 - t1)
            raw.append(took)
            scaled.append(calibrate.scaled(took, before, after))
    return statistics.median(scaled), statistics.median(raw)


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    env = child_env()
    size = "smoke" if args.smoke else "full"
    gen = [
        sys.executable, str(BENCH / "gen.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", str(work),
        "--fixtures", str(ROOT / "fixtures"),
    ]
    # A fixed hash seed fixes the order in which frozensets are summed, so
    # the same --seed gives the same input bytes.
    gen_env = dict(env, PYTHONHASHSEED="0")
    run_child(gen + (["--smoke"] if args.smoke else []), gen_env, GEN_TIMEOUT)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))

    setup = setup_seconds(env, SETUP_SAMPLES[size]) if not args.trace else None

    result_path = work / "result.json"
    cmd = [
        sys.executable, str(BENCH / "measure.py"),
        "--manifest", str(work / "manifest.json"),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    if args.trace:
        spans = ROOT / ".bench" / "spans" / f"{args.workload}.jsonl"
        cmd += ["--spans", str(spans)]
    run_child(cmd, env, args.seconds + MEASURE_SLACK)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if setup is not None:
        result["metrics"]["setup_s"], result["raw"]["setup_s"] = setup

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch_items": len(manifest["items"]),
        "passes": result["passes"],
        "input": dict(manifest["input"], report_bytes=result["report_bytes_per_pass"]),
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    for key in ("tail", "raw", "reference_s"):
        if key in result:
            info[key] = result[key]
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "aggkit" / "cli.py", ROOT / "fixtures"):
        if not needed.exists():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2

    work = ROOT / ".bench" / f"work-{os.getpid()}"
    try:
        result, info = measure(args, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in SPEC["per_layer" if args.trace else "end_to_end"]
    }
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    if "tail" in info:
        t = info["tail"]
        print(f"{'':24s} tail is p{t['percentile']:.1f} of {t['samples']} verdicts, {t['beyond']} beyond it")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':24s} {failed / attempted:.6g} ratio ({failed} of {attempted} verdicts)")
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
