"""Write the report corpus of one source tree, for a byte-identity check.

    python3 tools/report_corpus.py TREE OUT
    python3 tools/report_corpus.py --pin

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

``--pin`` runs the corpus of this checkout and writes ``PIN``
(``tests/data/report_corpus.json``): each case's SHA-256, exit code and
verdict, with the NumPy version that made them.  ``tests/test_cli.py``
rebuilds the corpus and compares it with the pin.
"""

from __future__ import annotations

import contextlib
import hashlib
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


PIN = Path(__file__).resolve().parents[1] / "tests" / "data" / "report_corpus.json"


def reports(tree: Path) -> dict[str, tuple[str, int]]:
    """Each case's report text and exit code, from the command line of
    ``tree/src`` (or the ``aggkit`` already imported) run in process."""
    sys.path.insert(0, str(tree / "src"))
    os.environ.pop("AGGKIT_TOL", None)
    from aggkit import cli

    out: dict[str, tuple[str, int]] = {}

    def report(name: str, args: list[str]) -> dict:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(args)
        out[name] = text.getvalue(), code
        return json.loads(text.getvalue())

    def run_all(name: str, doc: dict) -> None:
        Path("input.json").write_text(json.dumps(doc), encoding="utf-8")
        for variant, (command, *flags) in variants(doc).items():
            report(f"{name}-{variant}", [command, "input.json", *flags])

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for path in sorted((tree / "fixtures").glob("*.json")):
                doc = json.loads(path.read_text(encoding="utf-8"))
                for label, f in TRANSFORMS.items():
                    run_all(f"{path.stem}-{label}", transformed(doc, f))
            for name, flags in GEN.items():
                generated = report(f"gen-{name}", ["gen", *flags])
                run_all(f"gen-{name}", generated["result"]["dataset"])
        finally:
            os.chdir(home)
    return out


def pinned(corpus: dict[str, tuple[str, int]]) -> dict:
    """The pin of a corpus: the NumPy version, and per case its report's
    SHA-256, exit code and verdict."""
    import numpy as np

    return {
        "numpy": np.__version__,
        "cases": {
            name: {
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "exit_code": code,
                "verdict": json.loads(text)["verdict"],
            }
            for name, (text, code) in sorted(corpus.items())
        },
    }


def main(argv: list[str]) -> int:
    if argv == ["--pin"]:
        corpus = reports(PIN.parents[2])
        PIN.parent.mkdir(parents=True, exist_ok=True)
        PIN.write_text(json.dumps(pinned(corpus), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(corpus)} cases pinned in {PIN}")
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    corpus = reports(tree)
    out.mkdir(parents=True, exist_ok=True)
    for name, (text, _) in corpus.items():
        (out / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"{len(corpus)} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
