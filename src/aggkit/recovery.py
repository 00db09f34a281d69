"""Constructive recovery of weights and ranks from aggregation data.

Given a source whose outcomes obey the weighted averaging axiom, the
rank order is read off pairwise aggregates (a pair aggregate equal to
one endpoint demotes that endpoint) and the weights are read off the
mixing coefficients of same-rank pairs against a per-class anchor, each
reading one array pass over the pairs.  A mandatory verification pass
then forward-evaluates every available set; data that passes the
pairwise axiom but admits no single weight function is caught there
and reported with a concrete ratio conflict.  :func:`recover` never
raises on a valid source (an intransitive order is NonRepresentable
too); :func:`recover_order` and :func:`recover_weights` raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateLambda,
    IntransitivityDetected,
    MissingDataError,
)
from .geometry import (
    DEFAULT_TOL,
    SegmentKind,
    Tolerance,
    Vector,
    _SEGMENT_KINDS,
    _close_rows,
    _row_norms,
    _ON_SEGMENT,
    _segment_positions,
    _strictly_inside,
    interior_lambda,
    segment_coefficient,
)
from .model import (
    DatasetSource,
    Representation,
    _pair_table,
    top_set,
)

__all__ = [
    "RatioDerivation",
    "ContradictionWitness",
    "Verification",
    "Recovered",
    "NonRepresentable",
    "MissingData",
    "RecoveryOutcome",
    "recover_order",
    "recover_weights",
    "recover",
]


@dataclass(frozen=True)
class RatioDerivation:
    """One way of deriving the weight ratio w(a)/w(b) for a feature pair.

    ``via`` lists the sets whose aggregates the derivation reads;
    ``ratio`` may be nan when the data admits no valid coefficient at all.
    """

    pair: tuple[str, str]
    ratio: float
    via: tuple[tuple[str, ...], ...]
    note: str = ""


@dataclass(frozen=True)
class ContradictionWitness:
    """Two derivations of the same weight ratio that disagree."""

    pair: tuple[str, str]
    first: RatioDerivation
    second: RatioDerivation

    def ratios(self) -> tuple[float, float]:
        return (self.first.ratio, self.second.ratio)


@dataclass(frozen=True, eq=False)
class Verification:
    """Every known set forward-evaluated against a representation, as columns.

    Row k is one set: ``members[k]`` its sorted members, ``observed[k]``
    and ``predicted[k]`` the stored and the evaluated outcome (rows of
    two ``(sets, d)`` arrays), ``residual[k]`` their distance, and
    ``passed[k]`` whether that distance is within tolerance.
    """

    members: Sequence[tuple[str, ...]]
    observed: NDArray[np.float64]
    predicted: NDArray[np.float64]
    residual: NDArray[np.float64]
    passed: NDArray[np.bool_]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Recovered:
    """Successful recovery: a representation plus its verification table,
    held as the columns of the one array pass that checked every set."""

    representation: Representation
    verification: Verification
    max_residual: float
    indeterminate_classes: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class NonRepresentable:
    """The data cannot come from any strictly positive weight function."""

    witness: ContradictionWitness
    failing_sets: tuple[tuple[str, ...], ...] = ()
    max_residual: float = 0.0


@dataclass(frozen=True)
class MissingData:
    """Recovery needs sets the source cannot provide."""

    required: tuple[tuple[str, ...], ...]


RecoveryOutcome = Recovered | NonRepresentable | MissingData


def recover_order(
    src: DatasetSource, tol: Tolerance = DEFAULT_TOL
) -> dict[str, int]:
    """Recover the rank of every feature from pairwise aggregates.

    For features with distinct outcomes, x is at least as good as y
    exactly when f({x,y}) differs from f(y).  Equal-outcome pairs are
    settled through a witness z whose pair with x lands strictly between
    the endpoints (so z shares x's rank and has a distinct outcome);
    if no witness exists the pair is observationally indistinguishable
    and classed together.  Ranks are dense integers from 0 (lowest).

    The comparisons fill a boolean matrix ``geq`` from one ``_pair_table``;
    transitivity is the test ``(geq @ geq) & ~geq``.

    Raises IntransitivityDetected when the pairwise comparisons admit no
    weak order, naming the first violating triple (x, y, z) in
    ``itertools.permutations`` order, and MissingDataError when required
    pair sets are absent.
    """
    features = src._features
    n = len(features)
    points = src._points[:n]  # the singletons, in feature order
    equal, row, away = _pair_table(src, tol)
    away = away & ~equal  # distinct outcomes compare directly
    absent = (row < 0) & ~equal
    geq = away | np.eye(n, dtype=bool)
    # A witness for x: a feature whose pair with x lands strictly inside.
    witness = away & away.T

    # Equal-outcome pairs x < y compare through the first witness z of x,
    # else of y: z shares that one's rank, so f({z, other}) decides the pair.
    x, y = np.nonzero(np.triu(equal, 1))
    has = witness.any(axis=1)
    lone = ~(has[x] | has[y])
    geq[x[lone], y[lone]] = geq[y[lone], x[lone]] = True  # indistinguishable: nothing separates them
    x, y = x[~lone], y[~lone]
    a, b = np.where(has[x], x, y), np.where(has[x], y, x)
    z = np.argmax(witness[a], axis=1)
    rows = row[z, b]
    lost = rows < 0
    absent[z[lost], b[lost]] = absent[b[lost], z[lost]] = True
    if absent.any():
        raise MissingDataError([(features[i], features[j]) for i, j in zip(*np.nonzero(np.triu(absent)))])
    aggs = src._points[rows]
    geq[a, b] = ~_close_rows(aggs, points[b], tol)
    geq[b, a] = ~_close_rows(aggs, points[z], tol)

    # (x, y, z) violates transitivity when geq[x, y] and geq[y, z] but not
    # geq[x, z]; with geq reflexive no triple repeats a feature.
    outside = ~geq
    broken = (geq @ geq) & outside
    if broken.any():
        x = int(np.argmax(broken.any(axis=1)))
        y = int(np.argmax(geq[x] & (geq & outside[x]).any(axis=1)))
        z = int(np.argmax(geq[y] & outside[x]))
        raise IntransitivityDetected((features[x], features[y], features[z]))

    beats = (geq & ~geq.T).sum(axis=1).tolist()
    level = {count: k for k, count in enumerate(sorted(set(beats)))}
    return {f: level[count] for f, count in zip(features, beats)}


_NOT_INTERIOR = {
    SegmentKind.OFF_LINE: "aggregate is off the segment line",
    SegmentKind.ON_LINE: "aggregate is outside the segment",
    SegmentKind.ON_SEGMENT: "same-rank pair needs a strictly interior coefficient",
}


def _same_rank_table(
    src: DatasetSource, ranks: Mapping[str, int], tol: Tolerance
) -> tuple[tuple[str, ...], NDArray[np.bool_], NDArray[np.int8], NDArray[np.float64]]:
    """The sorted features, the ``equal`` matrix of ``_pair_table``, and from
    one ``_segment_positions`` pass the position of f({a,b}) on (f(a), f(b)) for
    every stored same-rank pair with distinct outcomes (so never DEGENERATE),
    as n x n arrays: ``kind[a, b]``, the code in ``_SEGMENT_KINDS`` or -1
    where there is no such pair, and ``lam[a, b]``, the coefficient of f(a).
    Built once per source, ranks and tolerance and kept, read-only, with the
    source's pair tables: ``recover`` reads it for the weights and again for
    a ratio conflict."""
    features = src._features
    if ranks.keys() != set(features):
        raise ValueError("ranks must rank exactly the source's features")
    level = tuple(ranks[f] for f in features)
    if (tol, level) not in src._pair_tables:
        points = src._points  # the singletons first, in feature order
        equal, row, _ = _pair_table(src, tol)
        level_array = np.array(level)
        first, second = np.nonzero(np.triu((level_array[:, None] == level_array) & ~equal & (row >= 0), 1))
        ends = np.concatenate([first, second]), np.concatenate([second, first])
        kind, lam = np.full(equal.shape, -1, dtype=np.int8), np.full(equal.shape, np.nan)
        kind[ends], lam[ends], _ = _segment_positions(points[row[ends]], points[ends[0]], points[ends[1]], tol)
        for table in (kind, lam):
            table.setflags(write=False)
        src._pair_tables[tol, level] = features, equal, kind, lam
    return src._pair_tables[tol, level]


def recover_weights(
    src: DatasetSource,
    ranks: Mapping[str, int],
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[dict[str, float], tuple[tuple[str, ...], ...]]:
    """Recover strictly positive weights given the rank assignment.

    Within each rank class the lexicographically smallest member with a
    distinct-outcome classmate anchors the class at weight one; every
    classmate with a distinct outcome gets (1 - lambda) / lambda from the
    anchor pair, and equal-outcome members are reached through a bridge
    classmate that already has a weight.  A class whose outcomes all
    coincide carries uniform weight one and is reported as indeterminate.
    Every coefficient is read off one ``_same_rank_table``.

    Returns (weights, indeterminate classes).
    """
    features, equal, kind, lam = _same_rank_table(src, ranks, tol)
    weight: dict[int, float] = {}  # by feature index
    indeterminate: list[tuple[str, ...]] = []
    missing: set[tuple[str, ...]] = set()

    def derive(known: int, m: int) -> None:
        """Weight of ``m`` from the pair of ``m`` with weighted ``known``."""
        pair, code, coef = (features[known], features[m]), int(kind[known, m]), float(lam[known, m])
        if code < 0:
            missing.add(tuple(sorted(pair)))
        elif code != _ON_SEGMENT or not _strictly_inside(coef, tol):  # interior_lambda's test
            raise DegenerateLambda(pair, coef, _NOT_INTERIOR[_SEGMENT_KINDS[code]])
        else:
            weight[m] = weight[known] * (1.0 - coef) / coef

    for level in sorted(set(ranks.values())):
        members = [k for k, f in enumerate(features) if ranks[f] == level]
        anchor = next((m for m in members if not equal[m, members].all()), None)
        if anchor is None:  # all outcomes in the class coincide; data cannot see the weights
            weight.update(dict.fromkeys(members, 1.0))
            if len(members) > 1:
                indeterminate.append(tuple(features[m] for m in members))
            continue
        weight[anchor] = 1.0
        for m in members:
            if not equal[anchor, m]:
                derive(anchor, m)
        for m in members:
            if m != anchor and equal[anchor, m]:
                bridge = next((o for o in members if o in weight and not equal[o, m]), None)
                if bridge is None:
                    weight[m] = weight[anchor]  # same outcome as anchor, no bridge
                else:
                    derive(bridge, m)

    if missing:
        raise MissingDataError(sorted(missing))
    return {features[m]: w for m, w in weight.items()}, tuple(indeterminate)


def _witness(
    pair: tuple[str, str],
    first: tuple[float, tuple[tuple[str, ...], ...], str],
    second: tuple[float, tuple[tuple[str, ...], ...], str],
) -> ContradictionWitness:
    """Two derivations of the weight ratio of ``pair``, each (ratio, via, note)."""
    return ContradictionWitness(pair, RatioDerivation(pair, *first), RatioDerivation(pair, *second))


def _ratio_matrix(kind: NDArray[np.int8], lam: NDArray[np.float64], tol: Tolerance) -> NDArray[np.float64]:
    """``ratio[a, b]`` = w(a)/w(b) from the interior coefficient lambda of the
    stored pair a < b: lambda/(1-lambda), and (1-lambda)/lambda at (b, a)
    from the same lambda; NaN elsewhere."""
    a, b = np.nonzero(np.triu((kind == _ON_SEGMENT) & _strictly_inside(lam, tol), 1))
    coef, ratio = lam[a, b], np.full(kind.shape, np.nan)
    ratio[a, b], ratio[b, a] = coef / (1.0 - coef), (1.0 - coef) / coef
    return ratio


def _ratio_conflict_witness(
    src: DatasetSource, ranks: Mapping[str, int], tol: Tolerance
) -> ContradictionWitness | None:
    """Search for a pair whose direct ratio disagrees with a chained one.

    Pairs (a, b), a < b, of ``_ratio_matrix`` are scanned in lexicographic
    order, then the intermediates c; a chain misses when it is more than 10
    ``tol.gate`` from the direct ratio.  The first miss through a c between
    the endpoints wins, a canonical conflict; failing that, the first
    through any c, which partial data may need.  Each row a is one array
    test of every (c, b), so memory stays O(n^2).
    """
    features, _, kind, lam = _same_rank_table(src, ranks, tol)
    ratio = _ratio_matrix(kind, lam, tol)
    before = np.triu(np.ones(ratio.shape, dtype=bool), 1)  # before[c, b]: c < b
    found = None
    for a in np.flatnonzero((before & ~np.isnan(ratio)).any(axis=1)).tolist():
        direct = ratio[a, a + 1:]
        # chained[c, b - a - 1] = ratio[a, c] * ratio[c, b] > 0 or NaN (no miss).
        with np.errstate(over="ignore", invalid="ignore"):
            chained = ratio[a, :, None] * ratio[:, a + 1:]
            gate = tol.gate(chained, direct) * 10.0
            conflict = np.abs(chained - direct) > gate
        between = conflict & before[:, a + 1:]
        between[: a + 1] = False
        if between.any():
            found = a, between
            break
        if found is None and conflict.any():
            found = a, conflict
    if found is None:
        return None
    a, conflict = found
    col = int(np.argmax(conflict.any(axis=0)))
    b, c = a + 1 + col, int(np.argmax(conflict[:, col]))
    fa, fb, fc = features[a], features[b], features[c]
    return _witness(
        (fa, fb),
        (float(ratio[a, b]), ((fa, fb),), "mixing coefficient of the pair aggregate"),
        (float(ratio[a, c] * ratio[c, b]), (tuple(sorted((fa, fc))), tuple(sorted((fc, fb)))),
         f"chained through {fc}"),
    )


def _fallback_witness(
    members: tuple[str, ...], observed: Vector, rep: Representation, tol: Tolerance
) -> ContradictionWitness:
    """Witness built from the worst verification failure directly.

    Uses the first two top-ranked members a, b of the failing set (its
    sorted ``members`` and ``observed`` outcome): the observed aggregate
    implies one weight ratio for them (or none, when it leaves the
    segment), while the recovered weights imply another.  A top of a alone
    takes b, the first highest-ranked other member (the set has two or
    more), which rule (3) gives no weight; the aggregate is read for {a, b}.
    """
    top = sorted(top_set(rep, members))
    a = top[0]
    b = top[1] if len(top) >= 2 else max((m for m in members if m != a), key=rep.ranks.__getitem__)
    fa, fb = rep.outcomes[a], rep.outcomes[b]
    ratio = math.nan
    note = "no valid mixing coefficient for the observed aggregate"
    if (len(top) == 2 or len(members) == 2) and not tol.close(fa, fb):
        lam = interior_lambda(segment_coefficient(observed, fa, fb, tol), tol)
        if lam is not None:
            ratio = lam / (1.0 - lam)
            note = "mixing coefficient of the observed aggregate"
    implied = (rep.weights[a] / rep.weights[b], (), "implied by the recovered weights")
    if len(top) == 1:
        implied = (math.inf, (), f"the recovered ranks put {a} above {b}")
    return _witness((a, b), (ratio, (members,), note), implied)


def _witness_from_degenerate(err: DegenerateLambda) -> ContradictionWitness:
    """The pair's coefficient (never None: no pair in the table is DEGENERATE) as a ratio."""
    lam = err.lam
    ratio = lam / (1.0 - lam) if 0.0 < lam < 1.0 else math.inf if lam >= 1.0 else 0.0
    return _witness(
        err.pair,
        (ratio, (tuple(sorted(err.pair)),), str(err)),
        (math.nan, (), "same-rank members need a finite strictly positive ratio"),
    )


def _witness_from_intransitivity(err: IntransitivityDetected) -> ContradictionWitness:
    """The triple (x, y, z) as two readings of the pair (x, z): the chain
    through y ranks x at least as high as z, the pair itself does not.
    Neither fixes a weight ratio, so both ratios are NaN."""
    x, y, z = err.triple
    return _witness(
        (x, z),
        (
            math.nan,
            (tuple(sorted((x, y))), tuple(sorted((y, z)))),
            f"{x} ranks at least as high as {y}, and {y} at least as high as {z}",
        ),
        (math.nan, ((x, z),), f"the pairwise comparison does not rank {x} at least as high as {z}"),
    )


def recover(src: DatasetSource, tol: Tolerance = DEFAULT_TOL) -> RecoveryOutcome:
    """Full recovery pipeline: order, weights, then verification.

    Returns Recovered only when forward evaluation reproduces every
    available set within tolerance.  Data that defeats the order or the
    weight construction or the verification pass yields NonRepresentable
    with a concrete conflict (an intransitive triple, a pair without an
    interior coefficient, or two disagreeing weight ratios); absent sets
    yield MissingData.  It never raises on a valid source.  The result
    is deterministic given the source (anchors and witnesses are chosen
    lexicographically).
    """
    try:
        ranks = recover_order(src, tol)
        weights, indeterminate = recover_weights(src, ranks, tol)
    except MissingDataError as err:
        return MissingData(required=err.required)
    except IntransitivityDetected as err:
        return NonRepresentable(witness=_witness_from_intransitivity(err))
    except DegenerateLambda as err:
        return NonRepresentable(witness=_witness_from_degenerate(err))

    rep = Representation._of_arrays(src._features, weights, ranks, src._points[: len(src._features)])
    checked = _verification(src, rep, tol)
    residuals = checked.residual.tolist()
    max_residual = max(residuals, default=0.0)
    failing = np.flatnonzero(~checked.passed).tolist()
    if not failing:
        return Recovered(
            representation=rep,
            verification=checked,
            max_residual=max_residual,
            indeterminate_classes=indeterminate,
        )

    witness = _ratio_conflict_witness(src, ranks, tol)
    # A singleton fails only where its verification leaves the float range.
    wide = [k for k in failing if len(checked.members[k]) > 1]
    if witness is None and wide:
        worst = max(wide, key=residuals.__getitem__)
        witness = _fallback_witness(checked.members[worst], checked.observed[worst], rep, tol)
    elif witness is None:
        (a,) = checked.members[failing[0]]
        why = f"verifying the outcome of {a} leaves the float range"
        witness = _witness((a, a), (math.nan, ((a,),), why), (1.0, (), "implied by the recovered weights"))
    return NonRepresentable(
        witness=witness,
        failing_sets=tuple(checked.members[k] for k in failing),
        max_residual=max_residual,
    )


def _verification(src: DatasetSource, rep: Representation, tol: Tolerance) -> Verification:
    """Every known set of ``src`` against ``rep`` in one array pass; a set
    passes when its residual is within tol.gate(|observed|, |predicted|, 1).
    It fails closed: a residual or gate that overflowed never passes."""
    observed, members = src._points, src._members
    predicted = rep._evaluate_blocks(src._blocks)
    residual = _row_norms(observed - predicted)
    gate = tol.gate(_row_norms(observed), _row_norms(predicted), 1.0)
    passed = (residual <= gate) & np.isfinite(gate)
    return Verification(members, observed, predicted, residual, passed)
