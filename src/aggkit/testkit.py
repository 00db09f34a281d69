"""Seeded generators and independent checkers for exercising the package.

The generators produce representations and induced datasets from a
single integer seed, reproducibly.  The brute-force axiom checker
re-derives every verdict from scratch with deliberately different
formulas (single-coordinate projection instead of least squares) so it
can serve as an oracle against the main implementation.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import UnsatisfiablePolicy
from .geometry import DEFAULT_TOL, Tolerance, Vector, affine_dimension
from .model import (
    AxiomMode,
    DatasetSource,
    Representation,
    _forward_source,
    induced_source,
)

__all__ = [
    "OutcomePolicy",
    "SubsetPolicy",
    "GeneratorConfig",
    "gen_representation",
    "gen_dataset",
    "BruteForceReport",
    "brute_force_axiom_check",
    "perturb",
]

class OutcomePolicy(Enum):
    RANDOM_RICH = "random-rich"       # every rank class spans a plane
    COLLINEAR = "collinear"           # all outcomes on one line
    SIMPLEX_BELIEFS = "simplex-beliefs"  # outcomes are probability vectors


class SubsetPolicy(Enum):
    ALL_SUBSETS = "all-subsets"
    PAIRS_AND_TRIPLES = "pairs-and-triples"


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for :func:`gen_representation`.

    ``rank_classes`` asks for that many tiers; with RANDOM_RICH each
    tier needs at least three features (to span a plane) and the
    dimension must be at least two, else UnsatisfiablePolicy.
    """

    seed: int
    feature_count: int = 6
    dimension: int = 2
    rank_classes: int = 1
    weight_range: tuple[float, float] = (0.5, 2.0)
    outcome_policy: OutcomePolicy = OutcomePolicy.RANDOM_RICH

    def __post_init__(self) -> None:
        # Integers, booleans refused; as in the dataset grammar, 2.0 is 2.
        for name, least in (("seed", 0), ("feature_count", 1), ("dimension", 1), ("rank_classes", 1)):
            value = getattr(self, name)
            number = int(value) if isinstance(value, float) and value.is_integer() else value
            if isinstance(number, bool) or not isinstance(number, int) or number < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
            object.__setattr__(self, name, number)
        if self.rank_classes > self.feature_count:
            raise ValueError("rank_classes must be between 1 and feature_count")
        lo, hi = self.weight_range
        if not (0.0 < lo <= hi <= sys.float_info.max):
            raise ValueError("weight_range must be positive, finite and ordered")


def _class_sizes(cfg: GeneratorConfig, rng: np.random.Generator) -> list[int]:
    minimum = 3 if cfg.outcome_policy is OutcomePolicy.RANDOM_RICH else 1
    if cfg.feature_count < minimum * cfg.rank_classes:
        raise UnsatisfiablePolicy(
            f"{cfg.rank_classes} classes of at least {minimum} features need "
            f"at least {minimum * cfg.rank_classes} features, got {cfg.feature_count}"
        )
    sizes = [minimum] * cfg.rank_classes
    for _ in range(cfg.feature_count - minimum * cfg.rank_classes):
        sizes[int(rng.integers(cfg.rank_classes))] += 1
    return sizes


def _spans_plane(points: Sequence[Vector], tol: Tolerance) -> bool:
    return affine_dimension(points, tol) >= 2


def gen_representation(cfg: GeneratorConfig) -> Representation:
    """Draw a representation reproducibly from the config seed.

    Features are named x00, x01, ... and split over the requested rank
    classes; weights are uniform in ``weight_range`` (the constructor
    then renormalizes each class at its smallest member).  RANDOM_RICH
    redraws each class until its outcomes span a plane; COLLINEAR puts
    every outcome on one random line; SIMPLEX_BELIEFS draws Dirichlet
    probability vectors (the dimension is the number of states).
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.outcome_policy is OutcomePolicy.RANDOM_RICH and cfg.dimension < 2:
        raise UnsatisfiablePolicy("a plane needs dimension at least two")
    if cfg.outcome_policy is OutcomePolicy.SIMPLEX_BELIEFS and cfg.dimension < 3:
        raise UnsatisfiablePolicy(
            "simplex outcomes span a plane only from three states up"
        )

    names = [f"x{i:02d}" for i in range(cfg.feature_count)]
    sizes = _class_sizes(cfg, rng)
    ranks: dict[str, int] = {}
    start = 0
    classes: list[list[str]] = []
    for level, size in enumerate(sizes):
        block = names[start : start + size]
        classes.append(block)
        for f in block:
            ranks[f] = level
        start += size

    outcomes: dict[str, Vector] = {}
    if cfg.outcome_policy is OutcomePolicy.COLLINEAR:
        base = rng.uniform(-1.0, 1.0, cfg.dimension)
        direction = rng.uniform(-1.0, 1.0, cfg.dimension)
        while float(np.linalg.norm(direction)) < 1e-3:
            direction = rng.uniform(-1.0, 1.0, cfg.dimension)
        steps = rng.permutation(np.linspace(-1.0, 1.0, cfg.feature_count))
        for f, t in zip(names, steps):
            outcomes[f] = base + float(t) * direction
    else:
        for block in classes:
            for _ in range(64):
                if cfg.outcome_policy is OutcomePolicy.SIMPLEX_BELIEFS:
                    draw = rng.dirichlet(np.ones(cfg.dimension), size=len(block))
                else:
                    draw = rng.uniform(-1.0, 1.0, (len(block), cfg.dimension))
                if len(block) < 3 or _spans_plane(list(draw), DEFAULT_TOL):
                    break
            else:  # pragma: no cover - vanishing probability
                raise UnsatisfiablePolicy("could not draw a plane-spanning class")
            for f, row in zip(block, draw):
                outcomes[f] = np.asarray(row, dtype=float)

    lo, hi = cfg.weight_range
    weights = {f: float(rng.uniform(lo, hi)) for f in names}
    return Representation(weights=weights, ranks=ranks, outcomes=outcomes)


def gen_dataset(
    rep: Representation,
    subset_policy: SubsetPolicy | Sequence[Iterable[str]] = SubsetPolicy.ALL_SUBSETS,
) -> DatasetSource:
    """Forward-evaluate the representation into a dataset.

    ALL_SUBSETS enumerates every non-empty subset (refused beyond ten
    features); PAIRS_AND_TRIPLES keeps singletons, pairs, and triples.
    A custom list of sets is evaluated as given, and must bring the
    singletons of every member with it (the dataset constructor
    enforces that).
    """
    features = rep.features()
    if subset_policy is SubsetPolicy.ALL_SUBSETS:
        return induced_source(rep)
    if subset_policy is SubsetPolicy.PAIRS_AND_TRIPLES:
        sets: list[tuple[str, ...]] = [(f,) for f in features]
        sets += list(itertools.combinations(features, 2))
        sets += list(itertools.combinations(features, 3))
        return induced_source(rep, sets)
    return _forward_source(rep, subset_policy)


def _bf_locate(p: Vector, a: Vector, b: Vector, tol: float) -> tuple[str, float | None]:
    """Independent segment location: project on the widest coordinate.

    Returns (verdict, lam) with verdict one of "degenerate-equal",
    "degenerate-differs", "mixture", "endpoint-a", "endpoint-b",
    "outside".  Shares no code with the geometry module on purpose.
    """
    gap = np.abs(a - b)
    if float(gap.max()) <= tol:
        if float(np.abs(p - a).max()) <= tol:
            return "degenerate-equal", None
        return "degenerate-differs", None
    axis = int(np.argmax(gap))
    lam = float((p[axis] - b[axis]) / (a[axis] - b[axis]))
    rebuilt = lam * a + (1.0 - lam) * b
    if float(np.abs(rebuilt - p).max()) > tol:
        return "outside", lam
    if lam < -tol or lam > 1.0 + tol:
        return "outside", lam
    if lam <= tol:
        return "endpoint-b", lam
    if lam >= 1.0 - tol:
        return "endpoint-a", lam
    return "mixture", lam


@dataclass(frozen=True)
class BruteForceReport:
    """Verdict plus the set of violating splits, in canonical orientation.

    Each violation is the pair (part holding the union's smallest
    member, other part), both as sorted tuples, matching the orientation
    the main checker reports.
    """

    satisfied: bool
    violations: frozenset[tuple[tuple[str, ...], tuple[str, ...]]]

    def __bool__(self) -> bool:
        return self.satisfied


def brute_force_axiom_check(
    src: DatasetSource,
    mode: AxiomMode = AxiomMode.WEIGHTED,
    tol: Tolerance = DEFAULT_TOL,
) -> BruteForceReport:
    """Exhaustive axiom verdict computed with independent arithmetic.

    Enumerates every disjoint pair (A, B) of stored sets whose union is
    stored and judges the union outcome by coordinate projection; the
    verdict and the violating splits (not the internals) must agree with
    the main checker on clean and grossly violating data.
    """
    eps = max(tol.abs_tol, tol.rel_tol)
    stored = src.sets()
    present = set(stored)
    violations: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for a, b in itertools.combinations(stored, 2):
        if a & b:
            continue
        union = a | b
        if union not in present:
            continue
        if min(union) not in a:
            a, b = b, a
        verdict, _lam = _bf_locate(
            np.asarray(src.outcome(union)),
            np.asarray(src.outcome(a)),
            np.asarray(src.outcome(b)),
            eps,
        )
        bad = verdict in ("outside", "degenerate-differs")
        if mode is AxiomMode.STRICT and verdict in ("endpoint-a", "endpoint-b"):
            bad = True
        if mode is AxiomMode.EXTREME and verdict == "mixture":
            bad = True
        if bad:
            violations.add((tuple(sorted(a)), tuple(sorted(b))))
    return BruteForceReport(
        satisfied=not violations, violations=frozenset(violations)
    )


def perturb(
    src: DatasetSource, magnitude: float, seed: int
) -> DatasetSource:
    """Add uniform noise to every non-singleton outcome.

    Singletons are left alone so the perturbed data keeps the same
    underlying feature map; only the aggregates are corrupted.  A
    magnitude outside [0, largest float / 2], where the noise interval's
    width would not be finite, is a ValueError, and so is noise that
    overflows: the first row not finite raises that of ``as_point``.
    """
    if not 0.0 <= magnitude <= np.finfo(float).max / 2:
        raise ValueError(f"magnitude must be non-negative and at most half the largest float: {magnitude!r}")
    rng = np.random.default_rng(seed)
    first = len(src.features())  # the rows before are the singletons
    points = src._points.copy()
    if first < len(src):  # one draw per coordinate, row after row as the sets come
        points[first:] += rng.uniform(-magnitude, magnitude, points[first:].shape)
    return src._with_points(points)
