"""Constructive recovery of weights and ranks from aggregation data.

Given a source whose outcomes obey the weighted averaging axiom, the
rank order is read off pairwise aggregates (a pair aggregate equal to
one endpoint demotes that endpoint) and the weights are read off the
mixing coefficients of same-rank pairs against a per-class anchor.  A
mandatory verification pass then forward-evaluates every available set;
data that passes the pairwise axiom but admits no single weight
function is caught there and reported with a concrete ratio conflict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DegenerateLambda,
    IntransitivityDetected,
    MissingDataError,
    UnknownFeature,
)
from .geometry import (
    DEFAULT_TOL,
    SegmentKind,
    Tolerance,
    Vector,
    interior_lambda,
    segment_coefficient,
)
from .model import (
    AggregationSource,
    Representation,
    evaluate,
    top_set,
)

__all__ = [
    "RatioDerivation",
    "ContradictionWitness",
    "VerificationRow",
    "Recovered",
    "NonRepresentable",
    "MissingData",
    "RecoveryOutcome",
    "recover_order",
    "recover_weights",
    "recover",
    "continuity_diagnostic",
    "ContinuityReport",
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


@dataclass(frozen=True)
class VerificationRow:
    members: tuple[str, ...]
    observed: tuple[float, ...]
    predicted: tuple[float, ...]
    residual: float
    passed: bool


@dataclass(frozen=True)
class Recovered:
    """Successful recovery: a representation plus its verification table."""

    representation: Representation
    verification: tuple[VerificationRow, ...]
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


def _norm(v: Vector) -> float:
    return float(np.linalg.norm(v))


def recover_order(
    src: AggregationSource, tol: Tolerance = DEFAULT_TOL
) -> dict[str, int]:
    """Recover the rank of every feature from pairwise aggregates.

    For features with distinct outcomes, x is at least as good as y
    exactly when f({x,y}) differs from f(y).  Equal-outcome pairs are
    settled through a witness z whose pair with x lands strictly between
    the endpoints (so z shares x's rank and has a distinct outcome);
    if no witness exists the pair is observationally indistinguishable
    and classed together.  Ranks are dense integers from 0 (lowest).

    Raises IntransitivityDetected when the pairwise comparisons admit no
    weak order, and MissingDataError when required pair sets are absent.
    """
    features = sorted(src.features())
    n = len(features)
    if n == 0:
        raise ValueError("source has no features")
    singles = {f: src.outcome([f]) for f in features}

    def find_witness(x: str, exclude: str) -> str | None:
        """A feature z with f(z) distinct from f(x) and f({x,z}) strictly
        between the endpoints (which forces z into x's rank class)."""
        for z in features:
            if z == x or z == exclude:
                continue
            if tol.close(singles[z], singles[x]):
                continue
            agg = src._lookup((x, z))
            if agg is None:
                continue
            if not tol.close(agg, singles[x]) and not tol.close(agg, singles[z]):
                return z
        return None

    geq: dict[tuple[str, str], bool] = {}
    missing: set[tuple[str, ...]] = set()

    for x, y in itertools.combinations(features, 2):
        fx, fy = singles[x], singles[y]
        if not tol.close(fx, fy):
            agg = src._lookup((x, y))
            if agg is None:
                missing.add(tuple(sorted((x, y))))
                continue
            geq[(x, y)] = not tol.close(agg, fy)
            geq[(y, x)] = not tol.close(agg, fx)
        else:
            z = find_witness(x, exclude=y)
            if z is None:
                z = find_witness(y, exclude=x)
                if z is not None:
                    x, y = y, x  # compare through y's witness instead
            if z is None:
                # Indistinguishable pair: no witness separates them.
                geq[(x, y)] = True
                geq[(y, x)] = True
                continue
            agg = src._lookup((z, y))
            if agg is None:
                missing.add(tuple(sorted((z, y))))
                continue
            # z shares x's rank, so comparisons against z transfer to x.
            geq[(x, y)] = not tol.close(agg, singles[y])
            geq[(y, x)] = not tol.close(agg, singles[z])

    if missing:
        raise MissingDataError(sorted(missing))

    for x, y, z in itertools.permutations(features, 3):
        if geq[(x, y)] and geq[(y, z)] and not geq[(x, z)]:
            raise IntransitivityDetected((x, y, z))

    # Completeness plus transitivity: counting dominated features ranks them.
    better_than: dict[str, set[str]] = {f: set() for f in features}
    for x, y in itertools.permutations(features, 2):
        if geq[(x, y)] and not geq[(y, x)]:
            better_than[x].add(y)
    levels = sorted({len(better_than[f]) for f in features})
    return {f: levels.index(len(better_than[f])) for f in features}


_NOT_INTERIOR = {
    SegmentKind.OFF_LINE: "aggregate is off the segment line",
    SegmentKind.ON_LINE: "aggregate is outside the segment",
    SegmentKind.DEGENERATE: "endpoints coincide",
    SegmentKind.ON_SEGMENT: "same-rank pair needs a strictly interior coefficient",
}


def _pair_lambda(
    agg: Vector, fa: Vector, fb: Vector, pair: tuple[str, str], tol: Tolerance
) -> float:
    """Interior mixing coefficient of ``fa`` in a same-rank pair aggregate."""
    pos = segment_coefficient(agg, fa, fb, tol)
    lam = interior_lambda(pos, tol)
    if lam is None:
        raise DegenerateLambda(pair, pos.lam, _NOT_INTERIOR[pos.kind])
    return lam


def recover_weights(
    src: AggregationSource,
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

    Returns (weights, indeterminate classes).
    """
    features = sorted(ranks)
    singles = {f: src.outcome([f]) for f in features}

    weights: dict[str, float] = {}
    indeterminate: list[tuple[str, ...]] = []
    missing: set[tuple[str, ...]] = set()

    for level in sorted(set(ranks.values())):
        members = sorted(f for f in features if ranks[f] == level)
        if len(members) == 1:
            weights[members[0]] = 1.0
            continue
        anchor = next(
            (
                m
                for m in members
                if any(not tol.close(singles[m], singles[o]) for o in members if o != m)
            ),
            None,
        )
        if anchor is None:
            # All outcomes in the class coincide; data cannot see the weights.
            for m in members:
                weights[m] = 1.0
            indeterminate.append(tuple(members))
            continue
        weights[anchor] = 1.0
        deferred: list[str] = []
        for m in members:
            if m == anchor:
                continue
            if tol.close(singles[m], singles[anchor]):
                deferred.append(m)
                continue
            agg = src._lookup((anchor, m))
            if agg is None:
                missing.add(tuple(sorted((anchor, m))))
                continue
            lam = _pair_lambda(
                agg, singles[anchor], singles[m], (anchor, m), tol
            )
            weights[m] = (1.0 - lam) / lam
        for m in deferred:
            bridge = next(
                (
                    o
                    for o in members
                    if o != m and o in weights and not tol.close(singles[o], singles[m])
                ),
                None,
            )
            if bridge is None:
                weights[m] = weights[anchor]  # same outcome as anchor, no bridge
                continue
            agg = src._lookup((bridge, m))
            if agg is None:
                missing.add(tuple(sorted((bridge, m))))
                continue
            lam = _pair_lambda(
                agg, singles[bridge], singles[m], (bridge, m), tol
            )
            weights[m] = weights[bridge] * (1.0 - lam) / lam

    if missing:
        raise MissingDataError(sorted(missing))
    return weights, tuple(indeterminate)


def _direct_ratios(
    src: AggregationSource,
    ranks: Mapping[str, int],
    singles: Mapping[str, Vector],
    tol: Tolerance,
) -> dict[tuple[str, str], float]:
    """Weight ratios w(a)/w(b) readable directly off same-rank pair sets."""
    out: dict[tuple[str, str], float] = {}
    for a, b in itertools.combinations(sorted(ranks), 2):
        if ranks[a] != ranks[b]:
            continue
        fa, fb = singles[a], singles[b]
        if tol.close(fa, fb):
            continue
        agg = src._lookup((a, b))
        if agg is None:
            continue
        lam = interior_lambda(segment_coefficient(agg, fa, fb, tol), tol)
        if lam is None:
            continue
        out[(a, b)] = lam / (1.0 - lam)
        out[(b, a)] = (1.0 - lam) / lam
    return out


def _ratio_conflict_witness(
    src: AggregationSource,
    ranks: Mapping[str, int],
    singles: Mapping[str, Vector],
    tol: Tolerance,
) -> ContradictionWitness | None:
    """Search for a pair whose direct ratio disagrees with a chained one.

    Features are scanned in lexicographic order; the first pass chains
    only through intermediates between the endpoints (adjacent ratios
    define the chain, skip pairs verify it), which pins down a canonical
    conflict.  A second unrestricted pass catches inconsistencies that
    only show up through out-of-order chains in partial data.
    """
    direct = _direct_ratios(src, ranks, singles, tol)
    ordered = sorted((a, b) for (a, b) in direct if a < b)
    for between_only in (True, False):
        for a, b in ordered:
            r_ab = direct[(a, b)]
            for c in sorted(ranks):
                if c in (a, b):
                    continue
                if between_only and not (a < c < b):
                    continue
                if (a, c) not in direct or (c, b) not in direct:
                    continue
                chained = direct[(a, c)] * direct[(c, b)]
                gap = abs(chained - r_ab)
                if gap > tol.gate(abs(chained), abs(r_ab)) * 10.0:
                    return ContradictionWitness(
                        pair=(a, b),
                        first=RatioDerivation(
                            pair=(a, b),
                            ratio=r_ab,
                            via=(tuple(sorted((a, b))),),
                            note="mixing coefficient of the pair aggregate",
                        ),
                        second=RatioDerivation(
                            pair=(a, b),
                            ratio=chained,
                            via=(tuple(sorted((a, c))), tuple(sorted((c, b)))),
                            note=f"chained through {c}",
                        ),
                    )
    return None


def _fallback_witness(
    worst: VerificationRow,
    rep: Representation,
    src: AggregationSource,
    tol: Tolerance,
) -> ContradictionWitness:
    """Witness built from the worst verification failure directly.

    Uses the first two top-ranked members of the failing set: the
    observed aggregate implies one weight ratio for them (or none, when
    it leaves the segment), while the recovered weights imply another.
    """
    members = frozenset(worst.members)
    top = sorted(top_set(rep, members))
    a, b = (top[0], top[1]) if len(top) >= 2 else (top[0], top[0])
    observed = np.asarray(worst.observed)
    fa, fb = rep.outcomes[a], rep.outcomes[b]
    ratio = math.nan
    note = "no valid mixing coefficient for the observed aggregate"
    if len(top) == 2 and not tol.close(fa, fb):
        lam = interior_lambda(segment_coefficient(observed, fa, fb, tol), tol)
        if lam is not None:
            ratio = lam / (1.0 - lam)
            note = "mixing coefficient of the observed aggregate"
    recovered_ratio = rep.weights[a] / rep.weights[b]
    return ContradictionWitness(
        pair=(a, b),
        first=RatioDerivation(
            pair=(a, b), ratio=ratio, via=(worst.members,), note=note
        ),
        second=RatioDerivation(
            pair=(a, b),
            ratio=recovered_ratio,
            via=(),
            note="implied by the recovered weights",
        ),
    )


def _witness_from_degenerate(err: DegenerateLambda) -> ContradictionWitness:
    a, b = err.pair
    lam = err.lam
    ratio = math.nan
    if lam is not None and 0.0 < lam < 1.0:
        ratio = lam / (1.0 - lam)
    elif lam is not None:
        ratio = math.inf if lam >= 1.0 else 0.0
    return ContradictionWitness(
        pair=(a, b),
        first=RatioDerivation(
            pair=(a, b),
            ratio=ratio,
            via=(tuple(sorted((a, b))),),
            note=str(err),
        ),
        second=RatioDerivation(
            pair=(a, b),
            ratio=math.nan,
            via=(),
            note="same-rank members need a finite strictly positive ratio",
        ),
    )


def recover(src: AggregationSource, tol: Tolerance = DEFAULT_TOL) -> RecoveryOutcome:
    """Full recovery pipeline: order, weights, then verification.

    Returns Recovered only when forward evaluation reproduces every
    available set within tolerance.  Data that defeats the weight
    construction or the verification pass yields NonRepresentable with a
    concrete conflict; absent sets yield MissingData.  The result is
    deterministic given the source (anchors and witnesses are chosen
    lexicographically).
    """
    try:
        ranks = recover_order(src, tol)
    except MissingDataError as err:
        return MissingData(required=err.required)

    singles = {f: src.outcome([f]) for f in sorted(ranks)}
    try:
        weights, indeterminate = recover_weights(src, ranks, tol)
    except MissingDataError as err:
        return MissingData(required=err.required)
    except DegenerateLambda as err:
        return NonRepresentable(witness=_witness_from_degenerate(err))

    rep = Representation(weights=weights, ranks=ranks, outcomes=singles)

    rows: list[VerificationRow] = []
    worst: VerificationRow | None = None
    for s in src.sets():
        observed = src.outcome(s)
        predicted = evaluate(rep, s)
        residual = _norm(observed - predicted)
        passed = residual <= tol.gate(_norm(observed), _norm(predicted), 1.0)
        row = VerificationRow(
            members=tuple(sorted(s)),
            observed=tuple(float(v) for v in observed),
            predicted=tuple(float(v) for v in predicted),
            residual=residual,
            passed=passed,
        )
        rows.append(row)
        if not passed and (worst is None or residual > worst.residual):
            worst = row
    max_residual = max((r.residual for r in rows), default=0.0)

    if worst is None:
        return Recovered(
            representation=rep,
            verification=tuple(rows),
            max_residual=max_residual,
            indeterminate_classes=indeterminate,
        )

    witness = _ratio_conflict_witness(src, ranks, singles, tol)
    if witness is None:
        witness = _fallback_witness(worst, rep, src, tol)
    return NonRepresentable(
        witness=witness,
        failing_sets=tuple(r.members for r in rows if not r.passed),
        max_residual=max_residual,
    )


@dataclass(frozen=True)
class ContinuityPair:
    feature_a: str
    feature_b: str
    distance: float
    same_rank: bool
    ratio_deviation: float | None  # |w(a)/w(b) - 1|, same-rank pairs only


@dataclass(frozen=True)
class ContinuityReport:
    """Descriptive look at how the representation treats nearby features.

    No continuous aggregation rule can be strictly averaging on a rich
    domain, so recovered weights and ranks are generally discontinuous
    in the feature embedding; this report shows where.
    """

    radius: float
    pairs: tuple[ContinuityPair, ...]

    @property
    def rank_disagreements(self) -> tuple[ContinuityPair, ...]:
        return tuple(p for p in self.pairs if not p.same_rank)

    @property
    def max_ratio_deviation(self) -> float:
        devs = [p.ratio_deviation for p in self.pairs if p.ratio_deviation is not None]
        return max(devs, default=0.0)


def continuity_diagnostic(
    rep: Representation,
    embedding: Mapping[str, Iterable[float]],
    radius: float,
) -> ContinuityReport:
    """Report rank flips and weight spread among nearby feature pairs.

    ``embedding`` places each feature in a metric space; every pair
    within ``radius`` is listed with its rank agreement and, for
    same-rank pairs, the deviation of the weight ratio from one.  Ratio
    deviations across different ranks are not reported since weights in
    different classes are not commensurable.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    unknown = set(rep.weights) - set(embedding)
    if unknown:
        raise UnknownFeature(f"embedding misses features {sorted(unknown)}")
    coords = {f: np.asarray(list(embedding[f]), dtype=float) for f in rep.weights}
    pairs: list[ContinuityPair] = []
    for a, b in itertools.combinations(sorted(rep.weights), 2):
        dist = _norm(coords[a] - coords[b])
        if dist > radius:
            continue
        same = rep.ranks[a] == rep.ranks[b]
        dev = abs(rep.weights[a] / rep.weights[b] - 1.0) if same else None
        pairs.append(
            ContinuityPair(
                feature_a=a,
                feature_b=b,
                distance=dist,
                same_rank=same,
                ratio_deviation=dev,
            )
        )
    return ContinuityReport(radius=radius, pairs=tuple(pairs))
