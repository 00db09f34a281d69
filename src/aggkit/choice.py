"""Stochastic choice viewed through average choices per menu.

When features are alternatives embedded in a vector space and the
recorded outcome of a menu is its average choice, a strictly averaging
dataset is exactly one generated by a Luce rule (choice probabilities
proportional to fixed positive weights), and a weakly averaging dataset
is one generated by a two-stage rule: first restrict to the top-ranked
alternatives, then play Luce among them.  Path independence of a choice
oracle and interiority of observed choices give quick structural
diagnostics on top of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NotInConvexHull, OracleRefused, UnknownFeature
from .geometry import (
    DEFAULT_TOL,
    Tolerance,
    Vector,
    _certify_interior,
    _norm,
    as_point,
    relative_interior_check,
)
from .model import (
    _PAD_CELLS,
    DatasetSource,
    _padded,
    _positive_weights,
    _top_means,
    check_richness,
    feature_set,
)
from .recovery import (
    MissingData,
    NonRepresentable,
    Recovered,
    RecoveryOutcome,
    recover,
)

__all__ = [
    "Menu",
    "LuceOutcome",
    "recover_luce",
    "recover_two_stage",
    "choice_probabilities",
    "PathIndependenceReport",
    "check_path_independence",
    "BoundaryReport",
    "boundary_diagnostic",
    "make_dictatorial_oracle",
    "make_luce_oracle",
]


@dataclass(frozen=True)
class Menu:
    """A finite set of alternatives given by coordinates.

    Items are keyed by id; constructed menus (for path independence
    checks) use synthetic ids for previously observed average choices.
    """

    coords: Mapping[str, Vector]

    def __init__(self, coords: Mapping[str, Sequence[float] | Vector]):
        if not coords:
            raise ValueError("a menu needs at least one alternative")
        fixed = {}
        dim = None
        for key in sorted(coords):
            p = as_point(coords[key], dim=dim)
            dim = p.size
            p = p.copy()
            p.setflags(write=False)
            fixed[key] = p
        object.__setattr__(self, "coords", fixed)

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.coords))

    def points(self) -> list[Vector]:
        return [self.coords[k] for k in self.ids()]

    @property
    def dimension(self) -> int:
        return next(iter(self.coords.values())).size


ChoiceOracle = Callable[[Menu], Sequence[float]]


@dataclass(frozen=True)
class LuceOutcome:
    """Result of a Luce (or two-stage) rationalizability test.

    ``weights``/``ranks`` are set on success; otherwise ``reason`` says
    what failed and ``recovery`` holds the underlying recovery outcome.
    """

    rationalizable: bool
    weights: Mapping[str, float] | None
    ranks: Mapping[str, int] | None
    reason: str
    recovery: RecoveryOutcome
    rich: bool


def _luce_like(
    src: DatasetSource, tol: Tolerance, allow_ranks: bool
) -> LuceOutcome:
    rich = check_richness(src, tol)
    outcome = recover(src, tol)
    if isinstance(outcome, MissingData):
        reason = "required menus are missing from the data"
    elif isinstance(outcome, NonRepresentable):
        reason = "no positive weight function reproduces the averages"
    else:
        rep = outcome.representation
        classes = rep.rank_classes()
        if allow_ranks or len(classes) == 1:
            return LuceOutcome(True, rep.weights, rep.ranks, "", outcome, rich)
        low, high = sorted(classes[-1])[0], sorted(classes[0])[0]
        reason = (
            f"pair {{{low},{high}}} averages at an endpoint, so {low!r} is "
            f"never chosen against {high!r}; a single-stage Luce rule cannot do that"
        )
    return LuceOutcome(False, None, None, reason, outcome, rich)


def recover_luce(src: DatasetSource, tol: Tolerance = DEFAULT_TOL) -> LuceOutcome:
    """Weights of a Luce rule matching the dataset, if one exists.

    The dataset must satisfy strict averaging: every pair average lies
    strictly between the alternatives.  Uniqueness of the weights needs
    a rich dataset (``rich`` echoes that check).
    """
    return _luce_like(src, tol, allow_ranks=False)


def recover_two_stage(src: DatasetSource, tol: Tolerance = DEFAULT_TOL) -> LuceOutcome:
    """Ranks and weights of a two-stage Luce rule matching the dataset."""
    return _luce_like(src, tol, allow_ranks=True)


def choice_probabilities(
    weights: Mapping[str, float],
    ranks: Mapping[str, int],
    members: Iterable[str] | str,
) -> dict[str, float]:
    """Choice distribution of the two-stage rule on one menu.

    Top-ranked members split the mass in proportion to their weights;
    everything else gets probability zero.  Raises UnknownFeature for a
    member without a weight or a rank, and ValueError for a weight that
    is not strictly positive and finite.
    """
    fs = feature_set(members)
    unknown = fs - (weights.keys() & ranks.keys())
    if unknown:
        raise UnknownFeature(f"unknown alternatives {sorted(unknown)}")
    ids = sorted(fs)
    probs = _top_means(
        _positive_weights(weights, ids), np.eye(len(ids)), ranks=[ranks[f] for f in ids]
    )[0]
    return dict(zip(ids, probs.tolist()))


def make_dictatorial_oracle() -> ChoiceOracle:
    """Deterministic rule: always pick the lexicographically largest point.

    Comparing coordinate tuples gives a fixed strict order on the whole
    space, so the choice from any menu is the order's maximum.  Such a
    rule is path independent (the best of a union is the best of the
    parts' bests) but its averages sit on menu vertices, never inside.
    """

    def oracle(menu: Menu) -> Vector:
        return max(menu.points(), key=lambda p: tuple(p))

    return oracle


def make_luce_oracle(
    known: Mapping[str, Sequence[float] | Vector],
    weights: Mapping[str, float],
    tol: Tolerance = DEFAULT_TOL,
) -> ChoiceOracle:
    """Luce rule priced by coordinates, with a weight extension.

    Points matching a known alternative (by coordinates, within the
    gate) use its weight, or weight one when ``weights`` lacks it;
    anything else, such as the constructed average points a path
    independence check feeds back, gets weight one too.
    That extension is what breaks path independence for a genuine Luce
    rule: the average of a menu does not remember the menu's total
    weight.
    """
    anchors = [(as_point(known[k]), float(weights.get(k, 1.0))) for k in sorted(known)]

    def weight_of(p: Vector) -> float:
        for q, w in anchors:
            if tol.close(p, q):
                return w
        return 1.0

    def oracle(menu: Menu) -> Vector:
        pts = menu.points()
        return _top_means([weight_of(p) for p in pts], pts)[0]

    return oracle


@dataclass(frozen=True)
class PathIndependenceRow:
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]
    residual: float
    passed: bool


@dataclass(frozen=True)
class PathIndependenceReport:
    rows: tuple[PathIndependenceRow, ...]
    max_residual: float

    @property
    def satisfied(self) -> bool:
        return all(r.passed for r in self.rows)


def check_path_independence(
    oracle: ChoiceOracle,
    menu_pairs: Sequence[tuple[Menu, Menu]],
    tol: Tolerance = DEFAULT_TOL,
) -> PathIndependenceReport:
    """Does choosing from parts and then from the results match the whole?

    For each disjoint pair (A, B) the oracle prices A, B, their union,
    and a constructed two-point menu of the two partial choices; the rule
    is path independent on the pair when the constructed menu's choice
    matches the union's.  This needs an oracle, not a dataset: the
    constructed menus are generally not recorded anywhere.

    Oracle failures are wrapped in OracleRefused.
    """

    def ask(menu: Menu) -> Vector:
        try:
            out = oracle(menu)
        except Exception as exc:  # noqa: BLE001 - anything the oracle throws
            raise OracleRefused(f"oracle failed on menu {menu.ids()}: {exc}") from exc
        if out is None:
            raise OracleRefused(f"oracle returned nothing for menu {menu.ids()}")
        return as_point(out, dim=menu.dimension)

    rows = []
    worst = 0.0
    for menu_a, menu_b in menu_pairs:
        shared = set(menu_a.ids()) & set(menu_b.ids())
        if shared:
            raise ValueError(f"menu pair shares alternatives {sorted(shared)}")
        union = Menu({**menu_a.coords, **menu_b.coords})
        whole = ask(union)
        pick_a = ask(menu_a)
        pick_b = ask(menu_b)
        if tol.close(pick_a, pick_b):
            reduced = ask(Menu({"q0": pick_a}))
        else:
            reduced = ask(Menu({"q0": pick_a, "q1": pick_b}))
        residual = _norm(whole - reduced)
        passed = residual <= tol.gate(_norm(whole), _norm(reduced), 1.0)
        worst = max(worst, residual)
        rows.append(
            PathIndependenceRow(
                part_a=menu_a.ids(),
                part_b=menu_b.ids(),
                residual=residual,
                passed=passed,
            )
        )
    return PathIndependenceReport(rows=tuple(rows), max_residual=worst)


@dataclass(frozen=True, eq=False)
class BoundaryReport:
    """Menus whose average choice touches the relative boundary.

    A rule with full-support choice probabilities keeps every average in
    the relative interior of its menu, so with a single recovered rank
    class any boundary menu contradicts the recovery and is listed in
    ``contradictions``.  Deterministic (dictatorial) rules sit at a
    vertex on every menu and are flagged everywhere.

    Columns, one entry per menu of two or more alternatives in canonical
    order: its sorted ``menus``, and masks of average choices ``interior``
    to the menu and ``in_hull``; the menu lists read the masks alone.
    """

    menus: tuple[tuple[str, ...], ...]
    interior: NDArray[np.bool_]
    in_hull: NDArray[np.bool_]
    single_class: bool | None

    @property
    def boundary_menus(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.menus[i] for i in np.flatnonzero(~self.interior).tolist())

    @property
    def contradictions(self) -> tuple[tuple[str, ...], ...]:
        return self.boundary_menus if self.single_class else ()


def boundary_diagnostic(
    src: DatasetSource, recovery: RecoveryOutcome, tol: Tolerance = DEFAULT_TOL
) -> BoundaryReport:
    """Flag multi-alternative menus with boundary or out-of-hull choices.

    ``recovery`` is the outcome of :func:`recover` on ``src`` (as held in
    ``LuceOutcome.recovery``); its rank classes decide the contradictions.
    A ``Recovered`` outcome over other features raises ValueError.

    When it is ``Recovered``, rule (3) already names a convex combination
    for every menu S whose members share one rank: coefficient
    ``w_i / sum of w over S`` on each member.  Those combinations are
    checked as certificates against the inequalities of
    :func:`relative_interior_check`, in one array pass per run of menus
    whose padding to the run's largest menu takes at most ``_PAD_CELLS``
    coordinates (``model._padded``'s runs, one on all but very large
    data); a menu they settle is interior.
    Every other menu (other outcomes, menus across rank classes,
    certificates that fail) gets the hull search itself, so the verdicts
    are the search's either way.
    """
    n, points = len(src._features), src._points
    # The menus of two or more alternatives, in row order and so in size order.
    sizes, flat = src._sizes[n:], src._codes[n:]
    menus = [block for size, (_, block) in src._blocks.items() if size > 1]
    interior = np.zeros(len(sizes), dtype=bool)
    single: bool | None = None
    if isinstance(recovery, Recovered):
        rep = recovery.representation
        if rep.features() != src._features:
            raise ValueError("the recovery must rank exactly the source's features")
        single = len(rep.rank_classes()) == 1
        for lo, _, codes, present in _padded(menus, src.dimension, _PAD_CELLS):
            ranks = rep._rank_array[codes]
            same = np.flatnonzero(((ranks == ranks[:, :1]) | ~present).all(axis=1))
            w = np.where(present[same], rep._weight_array[codes[same]], 0.0)
            gens = np.where(present[same, :, None], points[codes[same]], 0.0)
            coef = w / w.sum(axis=1, keepdims=True)
            interior[lo + same] = _certify_interior(points[n + lo + same], gens, coef, sizes[lo + same], tol)

    in_hull = np.ones(len(sizes), dtype=bool)
    bounds = np.cumsum(np.concatenate([[0], sizes]))  # menu r is flat[bounds[r] : bounds[r + 1]]
    for row in np.flatnonzero(~interior).tolist():
        try:
            interior[row] = relative_interior_check(points[n + row], points[flat[bounds[row] : bounds[row + 1]]], tol)
        except NotInConvexHull:
            in_hull[row] = False
    return BoundaryReport(src._members[n:], interior, in_hull, single)
