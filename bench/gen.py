"""Seeded inputs and ground truth for one benchmark workload.

    python3 bench/gen.py --workload NAME --seed N --out DIR [--smoke]

Writes the workload's datasets under DIR and DIR/manifest.json.  The
manifest lists the batch: one item per CLI verdict, each with the
command, its input file, and what the verdict must be (verdict string,
exit code, and ground truth such as the generator's ranks and weights).
Items under ``once`` are checked in every run but not timed.
Inputs come from ``aggkit.testkit`` and plain numpy; nothing here is
timed.  ``run.py`` starts this script in a child process so that its
memory never counts towards the measured process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from aggkit.fileio import dataset_to_json, dump_json
from aggkit.model import DatasetSource, Representation
from aggkit.testkit import SubsetPolicy, gen_dataset

WORKLOADS = ("dense-verify", "broken-verify", "wide-sets", "readings")

# Sizes are chosen so that one batch pass takes one to three seconds on
# one core; see README.md for why each workload has the shape it has.
SIZES = {
    "full": {
        "dense_features": 18,
        "dense_datasets": 6,
        "wide_features": 16,
        "wide_datasets": 4,
        "bayes_features": 6,
        "bayes_states": 8,
        "cps_features": 8,
        "luce_alternatives": 7,
        "pareto_members": 7,
    },
    "smoke": {
        "dense_features": 6,
        "dense_datasets": 2,
        "wide_features": 8,
        "wide_datasets": 2,
        "bayes_features": 3,
        "bayes_states": 3,
        "cps_features": 4,
        "luce_alternatives": 4,
        "pareto_members": 3,
    },
}

PERTURBATION = 1e-3

# Shipped fixtures under their matching command, with the verdict and
# exit code each is built to produce.
FIXTURE_VERDICTS = (
    ("broken_average.json", "check", "violated", 1),
    ("coin_beliefs.json", "bayes", "consistent", 0),
    ("coin_beliefs.json", "cps", "satisfied", 0),
    ("line_three_points.json", "recover", "non-representable", 1),
    ("menu_luce.json", "luce", "rationalizable", 0),
    ("missing_pairs.json", "recover", "missing-data", 3),
    ("profile_committee.json", "gswf-verify", "consistent", 0),
    ("profile_committee.json", "pareto", "satisfied", 0),
    ("profile_pair.json", "pareto", "satisfied", 0),
    ("states_quarter.json", "sdeu", "recovered", 0),
    ("timed_pair.json", "discount", "recovered", 0),
    ("triangle_two_tier.json", "check", "satisfied", 0),
)


def sub_seed(seed: int, *path: int) -> int:
    """Independent generator seed for one dataset of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def truth(rep: Representation) -> dict:
    return {
        "ranks": {f: int(rep.ranks[f]) for f in rep.features()},
        "weights": {f: float(rep.weights[f]) for f in rep.features()},
    }


def stored_splits(sets) -> int:
    """Number of (A, B) bipartitions of stored unions with both parts stored."""
    stored = set(sets)
    total = 0
    for union in stored:
        if len(union) < 2:
            continue
        head = min(union)
        # Small unions: try each bipartition; large ones: scan the stored
        # sets, which is cheaper than 2^(|U|-1) bipartitions.
        if len(union) <= 3:
            rest = sorted(union - {head})
            for size in range(len(rest)):
                for extra in itertools.combinations(rest, size):
                    part = frozenset((head, *extra))
                    total += part in stored and (union - part) in stored
        else:
            total += sum(
                1
                for part in stored
                if head in part and part < union and (union - part) in stored
            )
    return total


def disjoint_pairs_of_all_subsets(n: int) -> int:
    """Unordered disjoint pairs of non-empty subsets of an n-set."""
    return (3**n - 2 ** (n + 1) + 1) // 2


def members(sets) -> list[list[str]]:
    return [sorted(s) for s in sorted(sets, key=lambda s: (len(s), sorted(s)))]


class Batch:
    """Datasets written so far and the verdict items that use them."""

    def __init__(self, out: Path):
        self.out = out
        self.items: list[dict] = []
        self.once: list[dict] = []
        self.features: list[int] = []
        self.stored_sets = 0
        self.input_bytes = 0
        self.fixtures: set[str] = set()

    def dataset(self, name: str, doc: dict) -> str:
        path = self.out / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            dump_json(doc, fh)
        self._count(path, doc)
        return str(path)

    def fixture(self, path: Path) -> str:
        if str(path) not in self.fixtures:
            self.fixtures.add(str(path))
            self._count(path, json.loads(path.read_text(encoding="utf-8")))
        return str(path)

    def _count(self, path: Path, doc: dict) -> None:
        self.features.append(len(doc["features"]))
        self.stored_sets += len(doc["features"]) + sum(
            len(s["members"]) > 1 for s in doc.get("sets", [])
        )
        self.input_bytes += path.stat().st_size

    def add(self, command: str, path: str, expect: dict, once: bool = False) -> None:
        """Add a verdict to the timed batch, or with ``once`` to the untimed list."""
        item = {
            "id": f"{command}:{Path(path).stem}",
            "command": command,
            "input": path,
            "expect": expect,
        }
        (self.once if once else self.items).append(item)


def representable(
    seed: int,
    n: int,
    dimension: int = 2,
    rank_classes: int = 1,
    simplex: bool = False,
) -> Representation:
    """Seeded representation with rank classes of fixed, near-equal sizes.

    ``testkit.gen_representation`` draws the class sizes from the seed;
    fixing them keeps the amount of work per input the same for every
    seed, so only outcome and weight values vary.  Outcomes are uniform
    in the cube (or Dirichlet draws when ``simplex``), so each class of
    three or more spans a plane with probability one.
    """
    rng = np.random.default_rng(seed)
    names = [f"x{i:02d}" for i in range(n)]
    if simplex:
        draws = rng.dirichlet(np.ones(dimension), size=n)
    else:
        draws = rng.uniform(-1.0, 1.0, (n, dimension))
    return Representation(
        weights={f: float(rng.uniform(0.5, 2.0)) for f in names},
        ranks={f: i * rank_classes // n for i, f in enumerate(names)},
        outcomes=dict(zip(names, draws)),
    )


def perturb_triples(src: DatasetSource, seed: int) -> DatasetSource:
    """Move every triple outcome by up to PERTURBATION per coordinate."""
    rng = np.random.default_rng(seed)
    table = {}
    for s in src.sets():
        out = np.array(src.outcome(s), dtype=float)
        if len(s) == 3:
            out = out + rng.uniform(-PERTURBATION, PERTURBATION, out.size)
        table[s] = out
    return DatasetSource(src.dimension, table)


def check_expect(src: DatasetSource, violated: bool, strong: str) -> dict:
    """`check`: every split of a triple fails when ``violated``, all others pass."""
    expect = {
        "verdict": "violated" if violated else "satisfied",
        "exit_code": 1 if violated else 0,
        "checks": stored_splits(src.sets()),
        "strong_richness": strong,
    }
    if violated:
        expect["failing_union_size"] = 3
    return expect


def recover_expect(rep: Representation, src: DatasetSource) -> dict:
    return {
        "verdict": "recovered",
        "exit_code": 0,
        "truth": truth(rep),
        "verified_rows": len(src),
    }


def dense_sources(seed: int, size: dict):
    for i in range(size["dense_datasets"]):
        rep = representable(sub_seed(seed, 1, i), size["dense_features"], rank_classes=2)
        yield i, rep, gen_dataset(rep, SubsetPolicy.PAIRS_AND_TRIPLES)


def build_dense(batch: Batch, seed: int, size: dict) -> None:
    # Two checks per recover: the median verdict is a check.
    for i, rep, src in dense_sources(seed, size):
        path = batch.dataset(f"dense{i}", dataset_to_json(src))
        batch.add("check", path, check_expect(src, False, "checked"))
        if i % 2 == 0:
            batch.add("recover", path, recover_expect(rep, src))


def build_broken(batch: Batch, seed: int, size: dict) -> None:
    twins = []
    for i, rep, clean in dense_sources(seed, size):
        src = perturb_triples(clean, sub_seed(seed, 2, i))
        twins.append(src)
        path = batch.dataset(f"broken{i}", dataset_to_json(src))
        batch.add("check", path, check_expect(src, True, "checked"))
        if i % 2 == 0:
            triples = [s for s in src.sets() if len(s) == 3]
            batch.add(
                "recover",
                path,
                {
                    "verdict": "non-representable",
                    "exit_code": 1,
                    "failing_sets": members(triples),
                },
            )
    # Missing-pairs variant: every pair holding the first feature is gone.
    src = twins[0]
    first = src.features()[0]
    dropped = [s for s in src.sets() if len(s) == 2 and first in s]
    src = DatasetSource(
        src.dimension, {s: src.outcome(s) for s in src.sets() if s not in dropped}
    )
    path = batch.dataset("missing0", dataset_to_json(src))
    batch.add("check", path, check_expect(src, True, "undecidable"))
    batch.add(
        "recover",
        path,
        {"verdict": "missing-data", "exit_code": 3, "required": members(dropped)},
    )


def build_wide(batch: Batch, seed: int, size: dict) -> None:
    # Two checks per recover, as in build_dense.
    n = size["wide_features"]
    for i in range(size["wide_datasets"]):
        rep = representable(sub_seed(seed, 3, i), n, rank_classes=2)
        names = rep.features()
        sets = [(f,) for f in names] + list(itertools.combinations(names, 2))
        sets += [names, names[: n // 2], names[n // 2 :]]
        src = gen_dataset(rep, sets)
        path = batch.dataset(f"wide{i}", dataset_to_json(src))
        batch.add("check", path, check_expect(src, False, "checked"))
        if i % 2 == 0:
            batch.add("recover", path, recover_expect(rep, src))


def seeded_profile(seed: int, count: int) -> tuple[dict, dict]:
    """Coalition profile built like fixtures/profile_committee.json.

    Individual utilities are probability vectors, so they already lie on
    the hyperplane <u, (1, 1, 1)> = 1, and every coalition of two or more
    gets the weighted average of its members' utilities.
    """
    rng = np.random.default_rng(seed)
    names = [f"i{j}" for j in range(1, count + 1)]
    utility = {f: rng.dirichlet(np.ones(3)) for f in names}
    weight = {f: float(rng.uniform(0.5, 2.0)) for f in names}
    table = {}
    for k in range(1, count + 1):
        for coalition in itertools.combinations(names, k):
            total = sum(weight[f] for f in coalition)
            table[frozenset(coalition)] = (
                sum(weight[f] * utility[f] for f in coalition) / total
            )
    src = DatasetSource(3, table)
    doc = dataset_to_json(src, kind="profile", direction=[1.0, 1.0, 1.0])
    doc["weights"] = weight
    ground = {
        "ranks": {f: 0 for f in names},
        "weights": {f: weight[f] / weight[names[0]] for f in names},
    }
    return doc, ground


def build_readings(batch: Batch, seed: int, size: dict, fixtures: Path) -> None:
    rep = representable(
        sub_seed(seed, 4, 0),
        size["bayes_features"],
        dimension=size["bayes_states"],
        simplex=True,
    )
    src = gen_dataset(rep, SubsetPolicy.ALL_SUBSETS)
    batch.add(
        "bayes",
        batch.dataset("bayes0", dataset_to_json(src, kind="belief")),
        {"verdict": "consistent", "exit_code": 0, "truth": truth(rep), "truth_at": "recovery"},
    )

    n = size["cps_features"]
    rep = representable(sub_seed(seed, 4, 1), n, dimension=3, rank_classes=2, simplex=True)
    src = gen_dataset(rep, SubsetPolicy.ALL_SUBSETS)
    batch.add(
        "cps",
        batch.dataset("cps0", dataset_to_json(src, kind="belief")),
        {
            "verdict": "satisfied",
            "exit_code": 0,
            "truth": truth(rep),
            "truth_at": "recovery",
            "conditioning_sets": 2**n - 1,
            "checked_pairs": disjoint_pairs_of_all_subsets(n),
        },
    )

    # Two menu datasets of one size, so that the tail percentile falls
    # inside the luce verdicts rather than on the edge between two commands.
    for k in (2, 3):
        rep = representable(sub_seed(seed, 4, k), size["luce_alternatives"], dimension=3)
        src = gen_dataset(rep, SubsetPolicy.ALL_SUBSETS)
        batch.add(
            "luce",
            batch.dataset(f"luce{k - 2}", dataset_to_json(src, kind="menu")),
            {
                "verdict": "rationalizable",
                "exit_code": 0,
                "truth": truth(rep),
                "truth_at": "recovery",
                "boundary_menus": [],
            },
        )

    count = size["pareto_members"]
    doc, ground = seeded_profile(sub_seed(seed, 4, 4), count)
    batch.add(
        "pareto",
        batch.dataset("profile0", doc),
        {
            "verdict": "satisfied",
            "exit_code": 0,
            "truth": ground,
            "truth_at": "recovery",
            "splits_checked": disjoint_pairs_of_all_subsets(count),
        },
    )

    # The fixtures run once per run, untimed: a 5 ms verdict would put the
    # median of the batch among fixture verdicts of many different commands.
    for name, command, verdict, code in FIXTURE_VERDICTS:
        path = batch.fixture(fixtures / name)
        batch.add(command, path, {"verdict": verdict, "exit_code": code}, once=True)


def generate(workload: str, seed: int, out: Path, fixtures: Path, smoke: bool) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    out.mkdir(parents=True, exist_ok=True)
    batch = Batch(out)
    if workload == "dense-verify":
        build_dense(batch, seed, size)
    elif workload == "broken-verify":
        build_broken(batch, seed, size)
    elif workload == "wide-sets":
        build_wide(batch, seed, size)
    else:
        build_readings(batch, seed, size, fixtures)
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "items": batch.items,
        "once": batch.once,
        "input": {
            "datasets": len(batch.features),
            "features": sorted(set(batch.features)),
            "stored_sets": batch.stored_sets,
            "input_bytes": batch.input_bytes,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--fixtures", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out, args.fixtures, args.smoke)
    with open(args.out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
