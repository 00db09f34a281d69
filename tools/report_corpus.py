"""Write the report corpus of one source tree, for a byte-identity check.

    python3 tools/report_corpus.py TREE OUT

Runs the command line of ``TREE/src`` in process and writes one report per
case to ``OUT/<case>.json``:

- every dataset under ``TREE/fixtures``, scaled by 1, 1e150, 1e300 and
  1e-12 and shifted by 1e15, under every command and flag variant that
  takes its kind (``check`` under each axiom, ``recover`` and ``eval`` for
  every kind);
- five ``gen`` reports, and each generated dataset under the commands of
  its kind.

Every input is written to ``input.json`` in a scratch working directory,
so the ``arguments.input`` a report echoes is the same for every tree.
Run it on two trees and compare them with ``diff -r OUT1 OUT2``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TRANSFORMS = {
    "x1": lambda x: x,
    "x1e150": lambda x: x * 1e150,
    "x1e300": lambda x: x * 1e300,
    "x1e-12": lambda x: x * 1e-12,
    "plus1e15": lambda x: x + 1e15,
}

GEN = {
    "pairs-triples": ["--seed", "7", "--features", "12", "--subsets", "pairs-triples"],
    "all-subsets": ["--seed", "7", "--features", "8", "--subsets", "all"],
    "three-classes": ["--seed", "3", "--features", "9", "--dimension", "3", "--classes", "3", "--subsets", "pairs-triples"],
    "beliefs": ["--seed", "7", "--features", "12", "--classes", "2", "--dimension", "3",
                "--policy", "simplex-beliefs", "--subsets", "pairs-triples"],
    "menu": ["--seed", "7", "--features", "6", "--classes", "2", "--kind", "menu"],
}


def variants(doc: dict) -> dict[str, list[str]]:
    """Every command and flag variant that takes the dataset's kind."""
    features = ",".join(sorted(doc["features"]))
    out = {f"check-{axiom}": ["check", "--axiom", axiom] for axiom in ("weighted", "strict", "extreme")}
    out.update(recover=["recover"], eval=["eval", "--members", features])
    out.update({
        "belief": {"bayes": ["bayes"], "cps": ["cps"]},
        "timed": {"discount": ["discount"]},
        "menu": {"luce": ["luce"], "luce-two-stage": ["luce", "--two-stage"],
                 "pathindep-dictatorial": ["pathindep", "--oracle", "dictatorial"],
                 "pathindep-luce": ["pathindep", "--oracle", "luce"]},
        "profile": {"pareto": ["pareto"], "gswf-verify": ["gswf-verify"]},
        "sdeu": {"sdeu": ["sdeu"]},
    }.get(doc.get("kind", "generic"), {}))
    return out


def transformed(doc: dict, f) -> dict:
    """``doc`` with ``f`` applied to every coordinate of every outcome."""
    doc = json.loads(json.dumps(doc))
    for record in [*doc["features"].values(), *doc["sets"]]:
        record["outcome"] = [f(x) for x in record["outcome"]]
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(tree / "src"))
    os.environ.pop("AGGKIT_TOL", None)
    from aggkit import cli

    def report(name: str, args: list[str]) -> dict:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            cli.main(args)
        (out / f"{name}.json").write_text(text.getvalue(), encoding="utf-8")
        return json.loads(text.getvalue())

    def run_all(name: str, doc: dict) -> int:
        Path("input.json").write_text(json.dumps(doc), encoding="utf-8")
        todo = variants(doc)
        for variant, (command, *flags) in todo.items():
            report(f"{name}-{variant}", [command, "input.json", *flags])
        return len(todo)

    out.mkdir(parents=True, exist_ok=True)
    count = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for path in sorted((tree / "fixtures").glob("*.json")):
                doc = json.loads(path.read_text(encoding="utf-8"))
                for label, f in TRANSFORMS.items():
                    count += run_all(f"{path.stem}-{label}", transformed(doc, f))
            for name, flags in GEN.items():
                generated = report(f"gen-{name}", ["gen", *flags])
                count += 1 + run_all(f"gen-{name}", generated["result"]["dataset"])
        finally:
            os.chdir(home)
    print(f"{count} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
