"""Core data model: aggregation sources, representations, axiom checks.

An *aggregation source* answers "what outcome does this set of features
map to".  A *representation* explains such a map with a strictly positive
weight per feature and an integer rank per feature: the outcome of a set
is the weighted average of its highest-ranked members' singleton
outcomes.  This module holds both notions plus the checks that connect
raw data to the mixture axioms (weighted, strict, extreme averaging).

That rule, form (3) of the paper, has one implementation: every forward
evaluation in the package is a call to ``_top_mean``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    MissingDataError,
    MissingSingleton,
    UnknownFeature,
)
from .geometry import (
    DEFAULT_TOL,
    SegmentKind,
    SegmentPosition,
    Tolerance,
    Vector,
    _affine_rank,
    affine_dimension,
    as_point,
    interior_lambda,
    segment_coefficient,
)

__all__ = [
    "feature_set",
    "AggregationSource",
    "DatasetSource",
    "OracleSource",
    "Representation",
    "top_set",
    "evaluate",
    "induced_source",
    "AxiomMode",
    "AxiomCheck",
    "AxiomReport",
    "check_axiom",
    "check_richness",
    "StrongRichnessReport",
    "check_strong_richness",
]

FeatureSet = frozenset[str]


def validate_feature_id(fid: str) -> str:
    """Feature ids are non-empty strings without whitespace or commas."""
    if not isinstance(fid, str) or not fid:
        raise ValueError(f"feature id must be a non-empty string, got {fid!r}")
    if any(c.isspace() for c in fid) or "," in fid:
        raise ValueError(f"feature id may not contain whitespace or commas: {fid!r}")
    return fid


def feature_set(members: Iterable[str] | str) -> FeatureSet:
    """Normalize an iterable of feature ids (or a single id) to a frozenset."""
    if isinstance(members, str):
        members = [members]
    fs = frozenset(validate_feature_id(m) for m in members)
    if not fs:
        raise ValueError("a feature set must be non-empty")
    return fs


def set_sort_key(members: FeatureSet) -> tuple[int, tuple[str, ...]]:
    """Canonical ordering: by size first, then lexicographically."""
    return (len(members), tuple(sorted(members)))


class AggregationSource:
    """Common interface of dataset-backed and oracle-backed sources."""

    dimension: int

    def outcome(self, members: Iterable[str] | str) -> Vector:
        raise NotImplementedError

    def features(self) -> tuple[str, ...]:
        raise NotImplementedError

    def sets(self) -> tuple[FeatureSet, ...]:
        """The sets whose outcomes are known, in canonical order.

        A dataset knows what it stores; an oracle knows what it has been
        asked so far.
        """
        raise NotImplementedError

    def _lookup(self, members: Iterable[str]) -> Vector | None:
        """Outcome of a set of valid feature ids, None when it is absent.

        Internal callers use it for pair aggregates: a dataset may lack
        the set, an oracle always answers (and logs the query).
        """
        raise NotImplementedError


class DatasetSource(AggregationSource):
    """Finite table of set outcomes.

    Keys are feature sets, values are outcome points of a common
    dimension.  Every member of every set must also appear as a
    singleton, so the data always contains the underlying feature map;
    violating that raises MissingSingleton at construction time.

    The data is validated and interned once, at construction: each
    feature gets one bit (in sorted order, so the lowest bit of a set is
    its smallest member), each stored set becomes an int bitmask, and
    the outcomes are the rows of one read-only ``(m, d)`` array in
    canonical set order.  The public lookups validate their arguments;
    code inside the package that already holds valid ids uses
    ``_lookup`` and the mask index directly.
    """

    def __init__(
        self,
        dimension: int,
        outcomes: Mapping[Iterable[str] | str, Sequence[float] | Vector],
    ):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        table: dict[FeatureSet, Vector] = {}
        for key, value in outcomes.items():
            fs = feature_set(key)
            arr = as_point(value, dim=self.dimension)
            if fs in table:
                raise ValueError(f"duplicate set {sorted(fs)} in dataset")
            table[fs] = arr
        missing = sorted(
            {
                (m,)
                for fs in table
                for m in fs
                if frozenset([m]) not in table
            }
        )
        if missing:
            raise MissingSingleton(
                missing, "every member of every set needs a singleton entry"
            )
        self._features = tuple(sorted({m for fs in table for m in fs}))
        self._bit = {f: 1 << i for i, f in enumerate(self._features)}
        self._sets = tuple(sorted(table, key=set_sort_key))
        # Mask of each stored set -> its row; insertion order is row order.
        self._mask_row = {
            sum(self._bit[m] for m in fs): row for row, fs in enumerate(self._sets)
        }
        points = np.empty((len(self._sets), self.dimension))
        for row, fs in enumerate(self._sets):
            points[row] = table[fs]
        points.setflags(write=False)
        self._points = points

    def features(self) -> tuple[str, ...]:
        return self._features

    def sets(self) -> tuple[FeatureSet, ...]:
        return self._sets

    def has(self, members: Iterable[str] | str) -> bool:
        return self._lookup(feature_set(members)) is not None

    def outcome(self, members: Iterable[str] | str) -> Vector:
        fs = feature_set(members)
        point = self._lookup(fs)
        if point is None:
            raise MissingDataError([fs])
        return point

    def _lookup(self, members: Iterable[str]) -> Vector | None:
        """Stored outcome of a set of valid feature ids, None when absent."""
        mask = 0
        for m in members:
            bit = self._bit.get(m)
            if bit is None:
                return None
            mask |= bit
        row = self._mask_row.get(mask)
        return None if row is None else self._points[row]

    def __len__(self) -> int:
        return len(self._sets)


class OracleSource(AggregationSource):
    """Query-on-demand source wrapping a callable.

    The callable receives a frozenset of feature ids and returns an
    outcome point.  Answers are cached, which both saves queries and
    pins down a single answer per set; the order of first-time queries
    is kept in ``query_log``.
    """

    def __init__(
        self,
        dimension: int,
        fn: Callable[[FeatureSet], Sequence[float] | Vector],
        features: Iterable[str],
    ):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self._fn = fn
        self._features = tuple(sorted(validate_feature_id(f) for f in features))
        if not self._features:
            raise ValueError("an oracle source needs a non-empty feature universe")
        self._cache: dict[FeatureSet, Vector] = {}
        self.query_log: list[FeatureSet] = []

    def features(self) -> tuple[str, ...]:
        return self._features

    def outcome(self, members: Iterable[str] | str) -> Vector:
        fs = feature_set(members)
        unknown = fs - set(self._features)
        if unknown:
            raise UnknownFeature(f"oracle does not know features {sorted(unknown)}")
        if fs not in self._cache:
            arr = as_point(self._fn(fs), dim=self.dimension).copy()
            arr.setflags(write=False)
            self._cache[fs] = arr
            self.query_log.append(fs)
        return self._cache[fs]

    def _lookup(self, members: Iterable[str]) -> Vector:
        """Same as :meth:`outcome`; an oracle never lacks a set."""
        return self.outcome(frozenset(members))

    def sets(self) -> tuple[FeatureSet, ...]:
        return tuple(sorted(self._cache, key=set_sort_key))


def _positive_weights(weights: Mapping[str, float], members: Sequence[str]) -> list[float]:
    """The weights of ``members`` as floats: UnknownFeature for a member
    without one, ValueError for one that is not positive and finite."""
    unknown = [m for m in members if m not in weights]
    if unknown:
        raise UnknownFeature(f"unknown features {unknown}")
    out = [float(weights[m]) for m in members]
    for m, w in zip(members, out):
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(f"weight of {m!r} must be strictly positive, got {w!r}")
    return out


def _membership(column: Mapping[str, int], sets: Sequence[Iterable[str]]) -> NDArray[np.bool_]:
    """Boolean (sets x features) matrix of ``sets``; ``column`` numbers the features."""
    width = len(column)
    members = np.zeros((len(sets), width), dtype=bool)
    members.reshape(-1)[[row * width + column[f] for row, s in enumerate(sets) for f in s]] = True
    return members


def _top_mean(
    weights: Sequence[float],
    points: Sequence[Vector],
    members: NDArray[np.bool_] | None = None,
    ranks: Sequence[int] | None = None,
) -> NDArray[np.float64]:
    """Rule (3) for each row of ``members``: the weighted mean of its top rank.

    ``members`` is a boolean (sets x features) matrix, by default one row
    of every feature; ``weights``, ``points`` and ``ranks`` (by default
    one rank) follow its columns, the features in sorted order.  Weights
    and weight x point of each row's top members are added one column at
    a time, step for step as a scalar loop in sorted order would.
    """
    points = np.asarray(points, dtype=float)
    if members is None:
        members = np.ones((1, len(points)), dtype=bool)
    ranks = np.zeros(len(points)) if ranks is None else np.asarray(ranks)
    columns = np.asfortranarray(members).T
    used = np.flatnonzero(columns.any(axis=1))
    best = np.full(len(members), -np.inf)
    for j in used:
        np.maximum(best, ranks[j], out=best, where=columns[j])
    total = np.zeros(len(members))
    acc = np.zeros((len(members), points.shape[1]))
    for j in used:
        top = columns[j] & (best == ranks[j])
        np.add(total, weights[j], out=total, where=top)
        np.add(acc, weights[j] * points[j], out=acc, where=top[:, None])
    return acc / total[:, None]


@dataclass(frozen=True)
class Representation:
    """Weights, ranks, and singleton outcomes for a finite feature set.

    weights : strictly positive weight per feature.  On construction each
        rank class is rescaled so its lexicographically smallest member
        has weight exactly one; the rescaling never changes evaluation.
    ranks : integer rank per feature, larger meaning higher.
    outcomes : singleton outcome point per feature, common dimension.
    """

    weights: Mapping[str, float]
    ranks: Mapping[str, int]
    outcomes: Mapping[str, Vector]

    def __post_init__(self) -> None:
        keys = set(self.weights)
        if not keys:
            raise ValueError("a representation needs at least one feature")
        if keys != set(self.ranks) or keys != set(self.outcomes):
            raise ValueError("weights, ranks and outcomes must share one feature set")
        features = tuple(sorted(keys))
        for fid in features:
            validate_feature_id(fid)
        points = {f: as_point(p) for f, p in self.outcomes.items()}
        dims = {p.size for p in points.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"outcomes have mixed dimensions {sorted(dims)}")
        ranks = {f: int(self.ranks[f]) for f in features}
        weights = dict(zip(features, _positive_weights(self.weights, features)))
        # Normalize each rank class at its lexicographically smallest member.
        for level in set(ranks.values()):
            members = [f for f in features if ranks[f] == level]
            anchor_w = weights[members[0]]
            for f in members:
                weights[f] = weights[f] / anchor_w
        for p in points.values():
            p.setflags(write=False)
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "ranks", MappingProxyType(ranks))
        object.__setattr__(self, "outcomes", MappingProxyType(points))
        # The same three as arrays over the sorted features, for _top_mean.
        object.__setattr__(self, "_column", {f: j for j, f in enumerate(features)})
        object.__setattr__(self, "_weight_array", np.array([weights[f] for f in features]))
        object.__setattr__(self, "_rank_array", np.array([ranks[f] for f in features]))
        object.__setattr__(self, "_outcome_array", np.vstack([points[f] for f in features]))

    @property
    def dimension(self) -> int:
        return next(iter(self.outcomes.values())).size

    def features(self) -> tuple[str, ...]:
        return tuple(self._column)

    def rank_classes(self) -> tuple[tuple[str, ...], ...]:
        """Rank classes from highest to lowest, members sorted."""
        levels = sorted(set(self.ranks.values()), reverse=True)
        return tuple(
            tuple(sorted(f for f in self.weights if self.ranks[f] == level))
            for level in levels
        )

    def restrict(self, members: Iterable[str]) -> Representation:
        fs = _known_set(self, members)
        return Representation(
            weights={f: self.weights[f] for f in fs},
            ranks={f: self.ranks[f] for f in fs},
            outcomes={f: self.outcomes[f] for f in fs},
        )

    def _evaluate(self, sets: Sequence[Iterable[str]]) -> NDArray[np.float64]:
        """Rule (3) on each of ``sets`` (non-empty, of known ids), one row each."""
        members = _membership(self._column, sets)
        return _top_mean(self._weight_array, self._outcome_array, members, self._rank_array)


def _subsets(features: Sequence[str]) -> list[tuple[str, ...]]:
    """Every non-empty subset, by size, then in ``itertools.combinations`` order."""
    return [c for k in range(1, len(features) + 1) for c in itertools.combinations(features, k)]


def _known_set(rep: Representation, members: Iterable[str] | str) -> FeatureSet:
    """``members`` as a feature set, refusing ids the representation lacks."""
    fs = feature_set(members)
    unknown = fs - rep.weights.keys()
    if unknown:
        raise UnknownFeature(f"unknown features {sorted(unknown)}")
    return fs


def top_set(rep: Representation, members: Iterable[str] | str) -> FeatureSet:
    """Members of maximal rank within the given set."""
    fs = _known_set(rep, members)
    best = max(rep.ranks[f] for f in fs)
    return frozenset(f for f in fs if rep.ranks[f] == best)


def evaluate(rep: Representation, members: Iterable[str] | str) -> Vector:
    """Weight-averaged outcome of the top-ranked members of the set."""
    return rep._evaluate([_known_set(rep, members)])[0]


def induced_source(
    rep: Representation,
    sets: Iterable[Iterable[str]] | None = None,
) -> DatasetSource:
    """Dataset of forward evaluations of the representation.

    With ``sets`` omitted, every non-empty subset of the features is
    evaluated (callers should keep the feature count modest).
    """
    features = rep.features()
    known = [_known_set(rep, s) for s in (_subsets(features) if sets is None else sets)]
    known += [frozenset([f]) for f in features]
    return DatasetSource(rep.dimension, dict(zip(known, rep._evaluate(known))))


class AxiomMode(Enum):
    """Which variant of the averaging axiom a check enforces."""

    WEIGHTED = "weighted"  # aggregate on the closed segment
    STRICT = "strict"      # aggregate strictly between the endpoints
    EXTREME = "extreme"    # aggregate at an endpoint

    @classmethod
    def from_name(cls, name: str) -> "AxiomMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown axiom mode {name!r}") from None


@dataclass(frozen=True)
class AxiomCheck:
    """One disjoint pair (A, B) checked against f(A | B)."""

    set_a: tuple[str, ...]
    set_b: tuple[str, ...]
    union: tuple[str, ...]
    lam: float | None          # mixing coefficient of set_a; None when degenerate/off line
    residual: float
    degenerate: bool
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class AxiomReport:
    mode: AxiomMode
    satisfied: bool
    checks: tuple[AxiomCheck, ...]
    tolerance: Tolerance

    @property
    def violations(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        return (
            f"{self.mode.value} axiom: "
            f"{'satisfied' if self.satisfied else 'violated'} "
            f"({len(self.checks)} checks, {len(self.violations)} violations)"
        )


def _judge_pair(
    pos: SegmentPosition,
    mode: AxiomMode,
    tol: Tolerance,
    degenerate_equal: bool | None,
) -> tuple[bool, str]:
    """Pass/fail of one pair under the given mode.

    ``degenerate_equal`` says whether f(A | B) matches the common
    endpoint when the pair is degenerate; None otherwise.
    """
    if pos.kind is SegmentKind.DEGENERATE:
        if degenerate_equal:
            return True, ""
        return False, "endpoints coincide but the union outcome differs from them"
    if pos.kind is SegmentKind.OFF_LINE:
        return False, "union outcome is off the segment line"
    if pos.kind is SegmentKind.ON_LINE:
        return False, "union outcome is collinear but outside the segment"
    if mode is AxiomMode.WEIGHTED:
        return True, ""
    interior = interior_lambda(pos, tol) is not None
    if mode is AxiomMode.STRICT:
        if interior:
            return True, ""
        return False, "mixing coefficient sits at an endpoint"
    # EXTREME
    if not interior:
        return True, ""
    return False, "mixing coefficient is strictly interior"


def _stored_splits(
    mask_row: Mapping[int, int], by_low: Mapping[int, list[int]], union: int
) -> Iterator[tuple[int, int]]:
    """Stored (A, B) masks with A + B = ``union`` and A holding its lowest bit.

    ``by_low`` groups the stored masks by lowest bit; see
    :func:`check_axiom` for how the candidate list is chosen.
    """
    low = union & -union
    stored_low = by_low[low]
    if len(stored_low) < 1 << (union.bit_count() - 1):
        for part_a in stored_low:
            if part_a != union and part_a & union == part_a:
                if union ^ part_a in mask_row:
                    yield part_a, union ^ part_a
        return
    rest = union ^ low
    sub = rest
    while sub:
        sub = (sub - 1) & rest
        part_a = sub | low
        if part_a in mask_row and union ^ part_a in mask_row:
            yield part_a, union ^ part_a


def check_axiom(
    src: DatasetSource,
    mode: AxiomMode = AxiomMode.WEIGHTED,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Check every disjoint pair with recorded union against the axiom.

    Pairs are enumerated from the stored sets: for every stored set U
    with at least two members, every bipartition U = A + B with both
    parts stored is checked once, A holding the smallest member of U,
    in canonical order.

    The candidates for A are either the 2^(|U|-1) subsets of U that
    hold its smallest member or the stored sets whose smallest member is
    U's, whichever list is shorter, so each union costs
    min(2^(|U|-1), number of stored sets sharing U's smallest member)
    lookups.  A wide union among few stored sets is cheap.
    """
    sets, mask_row, points = src.sets(), src._mask_row, src._points
    masks = tuple(mask_row)
    by_low: dict[int, list[int]] = {}
    for mask in masks:
        by_low.setdefault(mask & -mask, []).append(mask)
    checks: list[AxiomCheck] = []
    for row, union in enumerate(sets):
        if len(union) < 2:
            continue
        splits = sorted(
            (tuple(sorted(sets[mask_row[a]])), tuple(sorted(sets[mask_row[b]])), a, b)
            for a, b in _stored_splits(mask_row, by_low, masks[row])
        )
        if not splits:
            continue
        f_union = points[row]
        key_union = tuple(sorted(union))
        for key_a, key_b, a, b in splits:
            f_a = points[mask_row[a]]
            f_b = points[mask_row[b]]
            pos = segment_coefficient(f_union, f_a, f_b, tol)
            degenerate = pos.kind is SegmentKind.DEGENERATE
            equal = tol.close(f_union, f_a) if degenerate else None
            passed, reason = _judge_pair(pos, mode, tol, equal)
            checks.append(
                AxiomCheck(
                    set_a=key_a,
                    set_b=key_b,
                    union=key_union,
                    lam=None if degenerate else pos.lam,
                    residual=pos.residual,
                    degenerate=degenerate,
                    passed=passed,
                    reason=reason,
                )
            )
    satisfied = all(c.passed for c in checks)
    return AxiomReport(mode=mode, satisfied=satisfied, checks=tuple(checks), tolerance=tol)


def check_richness(src: AggregationSource, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the recorded outcomes do not all sit on one line.

    Dataset sources use every stored outcome; oracle sources use the
    singleton outcomes of the declared feature universe.
    """
    if isinstance(src, DatasetSource):
        return _affine_rank(src._points, tol) >= 2
    points = [src.outcome([f]) for f in src.features()]
    return affine_dimension(points, tol) >= 2


@dataclass(frozen=True)
class StrongRichnessEntry:
    feature: str
    witness: tuple[str, str] | None
    blocked_by: tuple[tuple[str, ...], ...] = ()

    @property
    def witnessed(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class StrongRichnessReport:
    entries: tuple[StrongRichnessEntry, ...]

    @property
    def satisfied(self) -> bool:
        return all(e.witnessed for e in self.entries)

    def witness_for(self, feature: str) -> tuple[str, str] | None:
        for e in self.entries:
            if e.feature == feature:
                return e.witness
        raise UnknownFeature(feature)


def check_strong_richness(
    src: AggregationSource, tol: Tolerance = DEFAULT_TOL
) -> StrongRichnessReport:
    """Per-feature witness search for the strong richness condition.

    A feature x is witnessed by (y, z) when the three singleton outcomes
    are not collinear and both pair aggregates f({x,y}), f({x,z}) differ
    from each endpoint.  Candidates are tried in lexicographic order.
    Raises MissingDataError when a feature has no witness among the
    decidable candidates but some candidate pair set is absent.
    """
    features = src.features()
    singles = {f: src.outcome([f]) for f in features}
    entries: list[StrongRichnessEntry] = []
    all_blocked: set[tuple[str, ...]] = set()
    # Answer per unordered pair (features are sorted, so (x, y) with x < y).
    known: dict[tuple[str, str], bool | None] = {}

    def pair_interior(x: str, other: str) -> bool | None:
        """True/False when decidable, None when the pair set is missing."""
        key = (x, other) if x < other else (other, x)
        if key in known:
            return known[key]
        agg = src._lookup(key)
        answer = None
        if agg is not None:
            answer = not tol.close(agg, singles[x]) and not tol.close(agg, singles[other])
        known[key] = answer
        return answer

    def settled(x: str, y: str, z: str) -> bool:
        """(y, z) can neither witness x nor block it, whatever the geometry.

        Only answers already computed count; a pair not yet asked about
        (or missing) reads None here and leaves the candidate open, so
        the oracle is queried in the same order as without the shortcut.
        """
        oy = known.get((x, y) if x < y else (y, x), None)
        oz = known.get((x, z) if x < z else (z, x), None)
        return oy is not None and oz is not None and not (oy and oz)

    for x in features:
        witness: tuple[str, str] | None = None
        blocked: set[tuple[str, ...]] = set()
        others = [f for f in features if f != x]
        for y, z in itertools.combinations(others, 2):
            if settled(x, y, z):
                continue
            if _affine_rank(np.vstack([singles[x], singles[y], singles[z]]), tol) < 2:
                continue
            oy = pair_interior(x, y)
            oz = pair_interior(x, z)
            if oy is None:
                blocked.add(tuple(sorted((x, y))))
            if oz is None:
                blocked.add(tuple(sorted((x, z))))
            if oy and oz:
                witness = (y, z)
                break
        if witness is None and blocked:
            all_blocked |= blocked
        entries.append(
            StrongRichnessEntry(
                feature=x,
                witness=witness,
                blocked_by=tuple(sorted(blocked)) if witness is None else (),
            )
        )
    if all_blocked:
        raise MissingDataError(sorted(all_blocked))
    return StrongRichnessReport(entries=tuple(entries))
