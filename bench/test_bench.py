"""Smoke test of the benchmark: every workload once at minimal sizes.

    python3 -m pytest bench/test_bench.py

Checks the output contract of ``run.py``: every metric that
``BENCHMARK.json`` names is printed with its unit, ``error_rate`` is 0,
and a directory without the aggkit sources makes it fail without a
result line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.strip()}
    for metric in SPEC[kind]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        value, unit = table[metric["name"]][:2]
        assert unit == metric["unit"]
        assert float(value) == pytest.approx(printed["value"], rel=1e-5, abs=1e-12)
    if kind == "end_to_end":
        for metric in SPEC[kind]:
            assert result["metrics"][metric["name"]]["value"] > 0
    assert re.match(r"0 ratio \(0 of \d+ verdicts\)", " ".join(table["error_rate"]))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
