"""Belief aggregation: joint distributions, conditional systems, discounting.

When every outcome is a probability vector over a finite state space and
all features share one rank class, the aggregation rule is plain
Bayesian conditioning of one joint distribution over states times
features: the feature marginal is the normalized weights and each
feature's conditional is its singleton belief.  With several rank
classes the same construction per conditioning set yields a full
conditional probability system whose members satisfy the chain rule.
A stationary time-discount factor can be recovered from a single pair
query at staggered times.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DiscountUnidentified,
    MissingDataError,
    MultipleRankClasses,
    NotABelief,
    NotStationary,
    TooLarge,
    UnknownFeature,
)
from .geometry import (
    DEFAULT_TOL,
    Tolerance,
    Vector,
    _norm,
    as_point,
    interior_lambda,
    segment_coefficient,
)
from .model import (
    DatasetSource,
    FeatureSet,
    Representation,
    _block_source,
    _every_subset,
    _positive_weights,
    _split_rows,
    _top_means,
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
    "as_belief",
    "JointProbability",
    "build_joint",
    "BayesianCheck",
    "check_bayesian",
    "ConditionalProbabilitySystem",
    "build_cps",
    "CpsReport",
    "verify_cps",
    "TimedQuery",
    "evaluate_discounted",
    "DiscountRecovery",
    "recover_discounted",
]

logger = logging.getLogger(__name__)


def as_belief(vec: Sequence[float] | Vector, tol: Tolerance = DEFAULT_TOL) -> Vector:
    """Validate a probability vector and renormalize it exactly once.

    Entries may dip below zero by at most the gate (they are clamped);
    the total may differ from one by at most the gate.  Anything worse
    raises NotABelief.  Corrections are logged at debug level.
    """
    arr = as_point(vec)
    g = tol.gate(1.0)
    if float(arr.min()) < -g:
        raise NotABelief(f"negative probability entry {float(arr.min())!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > g:
        raise NotABelief(f"probabilities sum to {total!r}, not 1")
    clipped = np.clip(arr, 0.0, None)
    fixed = clipped / float(clipped.sum())
    drift = float(np.max(np.abs(fixed - arr)))
    if drift > 0.0:
        logger.debug("belief renormalized, max entry correction %.3e", drift)
    fixed.setflags(write=False)
    return fixed


@dataclass(frozen=True)
class JointProbability:
    """Joint distribution over (state, feature) cells.

    ``table`` has one row per state and one column per feature, in the
    order given by ``features``; rows index the state space 0..n-1.
    """

    features: tuple[str, ...]
    table: Vector  # shape (num_states, num_features)

    def __post_init__(self) -> None:
        tab = np.asarray(self.table, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != len(self.features):
            raise ValueError("table must be states x features")
        if float(tab.min()) < 0.0:
            raise ValueError("joint probabilities must be non-negative")
        tab = tab.copy()
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)

    @property
    def num_states(self) -> int:
        return int(self.table.shape[0])

    def total(self) -> float:
        return float(self.table.sum())

    def _cols(self, members: Iterable[str] | str) -> list[int]:
        fs = feature_set(members)
        unknown = fs - set(self.features)
        if unknown:
            raise UnknownFeature(f"unknown features {sorted(unknown)}")
        return [i for i, f in enumerate(self.features) if f in fs]

    def prob(self, states: Iterable[int], members: Iterable[str] | str) -> float:
        """Probability of the rectangle (set of states) x (set of features)."""
        rows = sorted(set(int(s) for s in states))
        if rows and (rows[0] < 0 or rows[-1] >= self.num_states):
            raise ValueError(f"state index out of range: {rows}")
        cols = self._cols(members)
        return float(self.table[np.ix_(rows, cols)].sum())

    def feature_marginal(self, members: Iterable[str] | str) -> float:
        return self.prob(range(self.num_states), members)

    def conditional(self, members: Iterable[str] | str) -> Vector:
        """Belief over states given the feature lies in ``members``."""
        return self._conditionals(np.array([self._cols(members)]), [sorted(feature_set(members))])[0]

    def _conditionals(self, codes: NDArray[np.intp], members: Sequence[Sequence[str]]) -> NDArray[np.float64]:
        """The conditional of each row of ``codes``, column indices of sets of
        one size, named by ``members`` when one has zero mass.  The gather lies
        in memory member-major, as ``table[:, cols]`` does: a set's mass sums
        its members' columns end to end, each state's sums them in order."""
        cells = self.table.T[codes]
        mass = cells.reshape(len(codes), -1).sum(axis=1)
        if not (mass > 0.0).all():
            raise ValueError(f"conditioning set {list(members[int(np.argmin(mass > 0.0))])} has zero mass")
        return cells.sum(axis=1) / mass[:, None]


def _cells(beliefs: Sequence[Vector]) -> NDArray[np.float64]:
    """Belief j as a flat (states x features) table, zero off column j: the
    joint of a conditioning set is rule (3) over these points."""
    n = len(beliefs)
    cells = np.zeros((n, beliefs[0].size, n))
    cells[np.arange(n), :, np.arange(n)] = np.vstack(beliefs)
    return cells.reshape(n, -1)


def build_joint(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> JointProbability:
    """Joint distribution whose conditioning reproduces single-class data.

    Cell (state, feature) gets weight(feature) * belief(feature)(state)
    normalized by the total weight.  Requires belief outcomes and exactly
    one rank class; conditioning on any feature set then returns exactly
    the weighted average of the members' beliefs.
    """
    classes = rep.rank_classes()
    if len(classes) != 1:
        raise MultipleRankClasses(
            f"joint construction needs one rank class, found {len(classes)}"
        )
    features = rep.features()
    table = _top_means(rep._weight_array, _cells(_beliefs(rep._outcome_array, tol)))[0]
    return JointProbability(features=features, table=table.reshape(-1, len(features)))


def _belief_faults(points: NDArray[np.float64], tol: Tolerance) -> list[int]:
    """The rows of ``points`` that :func:`as_belief` may refuse, by one batch
    test of its two gates; ``as_belief`` on each names the fault."""
    gate = tol.gate(1.0)
    return np.flatnonzero(~(points.min(axis=1) >= -gate) | ~(np.abs(points.sum(axis=1) - 1.0) <= gate)).tolist()


def _beliefs(points: NDArray[np.float64], tol: Tolerance) -> NDArray[np.float64]:
    """:func:`as_belief` of each row of ``points`` in one batch: the rows
    renormalised as it renormalises one, after ``_belief_faults`` has let
    ``as_belief`` raise on the first faulty row."""
    for row in _belief_faults(points, tol):
        as_belief(points[row], tol)  # NotABelief on bad input
    clipped = np.clip(points, 0.0, None)
    return clipped / clipped.sum(axis=1, keepdims=True)


def _signed_parts(gap: NDArray[np.float64]) -> NDArray[np.float64]:
    """``gap[gap > 0].sum()`` and ``-gap[gap < 0].sum()`` of each row, bit for bit:
    a row's terms of one sign, packed to its front in order, are summed as one
    contiguous run of their count, as the masked sum adds them."""
    part = np.concatenate([gap, -gap])  # the positive parts' rows, then the negative
    mask = part > 0.0
    counts = np.count_nonzero(mask, axis=1)
    packed = np.take_along_axis(part, np.argsort(~mask, axis=1, kind="stable"), axis=1)
    parts = np.empty(len(part))
    for count in set(counts.tolist()):
        rows = np.flatnonzero(counts == count)
        parts[rows] = packed[rows, :count].sum(axis=1)
    return parts.reshape(2, -1)


@dataclass(frozen=True)
class BayesianCheck:
    """Verdict of the one-joint-distribution test on a belief dataset."""

    consistent: bool
    joint: JointProbability | None
    max_residual: float
    detail: str
    recovery: RecoveryOutcome


def check_bayesian(
    src: DatasetSource, tol: Tolerance = DEFAULT_TOL
) -> BayesianCheck:
    """Is the dataset the conditioning of a single joint distribution?

    Recovery must succeed with one rank class; the joint built from the
    recovered representation is then verified against every stored set
    and every state event: P(event x members) / P(states x members)
    must equal the stored belief of the event.  With the per-state gap
    d = stored belief - conditional, the worst event residual is
    max(sum of d+, sum of d-) = (|d|_1 + |sum d|) / 2, so each set costs
    O(states) rather than 2^states events, and the conditionals of all
    sets of one size come from one gather of the joint's columns.
    """
    singles = src._points[: len(src.features())]
    for row in _belief_faults(singles, tol):
        as_belief(singles[row], tol)  # NotABelief on bad input

    outcome = recover(src, tol)
    if isinstance(outcome, MissingData):
        failure = (float("nan"), "recovery lacked required sets")
    elif isinstance(outcome, NonRepresentable):
        failure = (outcome.max_residual, "no weighted representation exists")
    elif len(outcome.representation.rank_classes()) != 1:
        failure = (0.0, "recovered order has more than one rank class")
    else:
        failure = None
    if failure is not None:
        return BayesianCheck(False, None, *failure, recovery=outcome)

    joint = build_joint(outcome.representation, tol)
    gaps = [
        src._points[first : first + len(codes)] - joint._conditionals(codes, src._members[first : first + len(codes)])
        for first, codes in src._blocks.values()
    ]
    # Both sides are additive over states, so the worst event collects every
    # positive gap or every negative one.
    worst = max(0.0, float(_signed_parts(np.concatenate(gaps)).max()))
    consistent = worst <= tol.gate(1.0)
    detail = "conditioning reproduces every stored set" if consistent else (
        "conditional probabilities disagree with the stored aggregates"
    )
    return BayesianCheck(consistent, joint, worst, detail, outcome)


# Most features whose 2^n - 1 conditioning sets ``build_cps`` builds.
_MAX_CPS_FEATURES = 14


@dataclass(frozen=True)
class ConditionalProbabilitySystem:
    """Family of joint distributions indexed by the conditioning set.

    The outcome of each conditioning set A in ``source`` is its
    ``num_states`` x features joint table, flattened state by state; a
    table of another size or with a negative cell raises ValueError.
    The mass sits on the cylinder (all states) x A; for a two-tier order
    on the top-ranked members of A only.
    """

    num_states: int
    source: DatasetSource

    def __post_init__(self) -> None:
        if self.source.dimension != self.num_states * len(self.source.features()):
            raise ValueError("table must be states x features")
        if float(self.source._points.min()) < 0.0:
            raise ValueError("joint probabilities must be non-negative")

    @property
    def features(self) -> tuple[str, ...]:
        return self.source.features()

    def conditional(self, members: Iterable[str] | str) -> JointProbability:
        fs = feature_set(members)
        table = self.source._lookup(fs)
        if table is None:
            raise UnknownFeature(f"no conditional stored for {sorted(fs)}")
        return JointProbability(features=self.features, table=table.reshape(self.num_states, -1))


def build_cps(
    rep: Representation, tol: Tolerance = DEFAULT_TOL
) -> ConditionalProbabilitySystem:
    """Conditional probability system of a belief representation.

    For every non-empty feature subset A, cell (state, x) gets
    weight(x) * belief(x)(state) / (total weight of the top of A) when x
    is top-ranked in A and zero otherwise.  More than
    ``_MAX_CPS_FEATURES`` features raise TooLarge before any subset is
    built.
    """
    features = rep.features()
    if len(features) > _MAX_CPS_FEATURES:
        raise TooLarge(
            f"a conditional probability system on {len(features)} features is too large; "
            f"the limit is {_MAX_CPS_FEATURES}"
        )
    beliefs = _beliefs(rep._outcome_array, tol)
    blocks = _every_subset(len(features))
    tables = _top_means(rep._weight_array, _cells(beliefs), blocks, rep._rank_array)
    return ConditionalProbabilitySystem(num_states=beliefs.shape[1], source=_block_source(features, blocks, tables))


@dataclass(frozen=True)
class ChainViolation:
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]
    state: int
    feature: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CpsReport:
    max_residual: float
    violations: tuple[ChainViolation, ...]
    checked_pairs: int

    @property
    def satisfied(self) -> bool:
        return not self.violations


# Cells (pair x state x feature) per block of the batched chain-rule check:
# its three buffers stay within a core's cache.
_CPS_BLOCK_CELLS = 1 << 14


def verify_cps(
    cps: ConditionalProbabilitySystem, tol: Tolerance = DEFAULT_TOL
) -> CpsReport:
    """Check normalization, support, and the chain rule cell by cell.

    For every stored disjoint pair (A, B) whose union is stored, and
    every cell C = (state, feature):
    P(C | A+B) = P(all x A | A+B) P(C | A) + P(all x B | A+B) P(C | B).
    This is the averaging axiom with lambda = P(all x A | A+B), so the
    pairs are the stored splits ``check_axiom`` walks on ``cps.source``,
    checked in canonical order of (A, B); the coefficients are the
    column masses of each conditional, computed once.
    """
    g = tol.gate(1.0)
    src = cps.source
    features, keys, count = src.features(), src._members, len(src)
    tables = src._points.reshape(count, cps.num_states, len(features))
    member = np.zeros((count, len(features)))  # 1.0 where the feature is in the set
    member[np.repeat(np.arange(count), src._sizes), src._codes] = 1.0
    masses = tables.sum(axis=1)  # (set, feature) mass of each column
    total = masses.sum(axis=1)
    unnormalized = np.abs(total - 1.0) > g
    outside = np.abs(total - (masses * member).sum(axis=1)) > g
    faulty = np.flatnonzero(unnormalized | outside)
    if faulty.size:
        row = faulty[0]
        why = "is not normalized" if unnormalized[row] else "has mass outside its set"
        raise ValueError(f"conditional on {list(keys[row])} {why}")

    # Rows A < B of each split in canonical order: a pair fixes its union,
    # so one int64 key A * count + B orders them.
    union, a, b = _split_rows(src)
    key = np.minimum(a, b)
    key *= count
    key += np.maximum(a, b, out=b)
    order = np.argsort(key)

    violations: list[ChainViolation] = []
    worst = 0.0
    block = max(1, _CPS_BLOCK_CELLS // src.dimension)
    buffers = np.empty((3, min(block, len(order)), *tables.shape[1:]))
    for start in range(0, len(order), block):
        pick = order[start : start + block]
        a, b = np.divmod(key[pick], count)
        u = union[pick]
        lhs, rhs, gap = buffers[:, : len(pick)]
        mass = masses.take(u, axis=0)
        coef_a = (mass * member.take(a, axis=0)).sum(axis=1)[:, None, None]
        coef_b = (mass * member.take(b, axis=0)).sum(axis=1)[:, None, None]
        tables.take(u, axis=0, out=lhs)
        np.multiply(tables.take(a, axis=0, out=rhs), coef_a, out=rhs)
        rhs += np.multiply(tables.take(b, axis=0, out=gap), coef_b, out=gap)
        np.abs(np.subtract(lhs, rhs, out=gap), out=gap)
        most = float(gap.max())
        worst = max(worst, most)
        if most > g:  # feature-major within each pair, as the cells are reported
            violations += [
                ChainViolation(keys[a[k]], keys[b[k]], int(state), features[c],
                               float(lhs[k, state, c]), float(rhs[k, state, c]))
                for k, c, state in np.argwhere(gap.transpose(0, 2, 1) > g)
            ]
    return CpsReport(max_residual=worst, violations=tuple(violations), checked_pairs=len(order))


@dataclass(frozen=True)
class TimedQuery:
    """A feature set together with a positive integer time per member."""

    members: FeatureSet
    times: Mapping[str, int]

    def __init__(self, members: Iterable[str] | str, times: Mapping[str, int]):
        fs = feature_set(members)
        t: dict[str, int] = {}
        for k, v in times.items():
            if int(v) < 1:
                raise ValueError(f"time of {k!r} must be a positive integer, got {v!r}")
            t[k] = int(v)
        if set(t) != set(fs):
            raise ValueError("times must cover exactly the members of the set")
        object.__setattr__(self, "members", fs)
        object.__setattr__(self, "times", dict(sorted(t.items())))

    def shifted(self, c: int) -> "TimedQuery":
        return TimedQuery(self.members, {f: t + c for f, t in self.times.items()})

    def key(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.times.items()))


DiscountOracle = Callable[[TimedQuery], Sequence[float]]


def evaluate_discounted(
    q: float,
    weights: Mapping[str, float],
    beliefs: Mapping[str, Sequence[float] | Vector],
    query: TimedQuery,
) -> Vector:
    """Discounted weighted average q^t(x) w(x) b(x), normalized.

    Invariant under a common shift of all times (up to floating error in
    the powers), since the common factor q^c cancels.  Raises
    UnknownFeature for a member without a weight, ValueError for a
    weight not positive and finite.
    """
    if not (q > 0.0 and np.isfinite(q)):
        raise ValueError(f"discount factor must be positive and finite, got {q!r}")
    members = sorted(query.members)
    coefs = [
        q ** query.times[f] * w for f, w in zip(members, _positive_weights(weights, members))
    ]
    return _top_means(coefs, [as_point(beliefs[f]) for f in members])[0]


@dataclass(frozen=True)
class DiscountRecovery:
    q: float
    weights: Mapping[str, float]
    beliefs: Mapping[str, Vector]
    identification_pair: tuple[str, str]
    validation_residuals: tuple[tuple[tuple[tuple[str, int], ...], float], ...]
    max_residual: float
    recovery: Recovered


def _braced(members: Iterable[str]) -> str:
    """A set as the reports write it in a message: ``{a,b}``."""
    return "{" + ",".join(members) + "}"


def recover_discounted(
    oracle: DiscountOracle,
    features: Iterable[str],
    dimension: int,
    tol: Tolerance = DEFAULT_TOL,
    validation: Sequence[TimedQuery] = (),
) -> DiscountRecovery:
    """Recover discount factor and weights from a timed-query oracle.

    Procedure: ask the oracle for every singleton, then every pair in
    ``itertools.combinations`` order, all at time 1, into one
    DatasetSource; spot-check stationarity (three fixed queries against
    their shift by one, two of them answered by the table); recover
    weights from that table; then read the discount factor off the first
    distinct-outcome pair, as the first spot check asked it at times
    (1, 2): q = weight ratio times (1 - lambda) / lambda.  Validation
    queries are re-evaluated with the recovered parameters.

    A pair the oracle refuses with MissingDataError is left out of the
    table, and a NotStationary message that requires it gives the
    oracle's labels.  Raises DiscountUnidentified when all singleton
    outcomes coincide, NotStationary when the spot-check or the recovery
    fails; every other oracle failure propagates.
    """
    feats = tuple(sorted(set(features)))
    if len(feats) < 2:
        raise ValueError("discount recovery needs at least two features")

    def ask(query: TimedQuery) -> Vector:
        return as_point(oracle(query), dim=dimension)

    singles = {f: ask(TimedQuery([f], {f: 1})) for f in feats}
    table: dict[tuple[str, ...], Vector] = {(f,): p for f, p in singles.items()}
    refused: dict[tuple[str, ...], tuple[tuple[str, ...], ...]] = {}  # pair -> the oracle's labels
    for members in itertools.combinations(feats, 2):
        try:
            table[members] = ask(TimedQuery(members, dict.fromkeys(members, 1)))
        except MissingDataError as err:
            refused[members] = err.required

    pair = next(
        (
            (a, b)
            for a, b in itertools.combinations(feats, 2)
            if not tol.close(singles[a], singles[b])
        ),
        None,
    )
    if pair is None:
        raise DiscountUnidentified("all singleton outcomes coincide; the factor is unidentified")

    a, b = pair
    spot = TimedQuery(frozenset(pair), {a: 1, b: 2})
    staggered = ask(spot)
    # Each query against its shift by one.  The table answers the last two;
    # a pair it lacks is asked again, so the oracle's refusal escapes.
    for query, base in (
        (spot, staggered),
        (TimedQuery(frozenset(pair), {a: 1, b: 1}), table.get(pair)),
        (TimedQuery(frozenset([a]), {a: 1}), singles[a]),
    ):
        base = ask(query) if base is None else base
        moved = ask(query.shifted(1))
        if not tol.close(base, moved):
            raise NotStationary(
                f"query {query.key()} changed under a unit time shift"
            )

    outcome = recover(DatasetSource(dimension, table), tol)
    if isinstance(outcome, NonRepresentable):
        raise NotStationary(
            "equal-time restriction is not strictly rationalizable: "
            f"non-representable, witness pair {_braced(outcome.witness.pair)}"
        )
    if isinstance(outcome, MissingData):
        labels = (label for members in outcome.required for label in refused[members])
        raise NotStationary(
            "equal-time restriction is not strictly rationalizable: "
            f"missing-data, required sets {', '.join(map(_braced, labels))}"
        )
    rep = outcome.representation
    if len(rep.rank_classes()) != 1:
        raise MultipleRankClasses(
            "discounted recovery needs every feature in one rank class"
        )

    pos = segment_coefficient(staggered, singles[a], singles[b], tol)
    lam = interior_lambda(pos, tol)
    if lam is None:
        if pos.on_segment:
            raise NotStationary(f"staggered pair {pair} has an extreme coefficient")
        raise NotStationary(
            f"staggered pair {pair} is not a mixture of its endpoints"
        )
    # lam = q w(a) / (q w(a) + q^2 w(b))  =>  q = (1 - lam)/lam * w(a)/w(b)
    q = (1.0 - lam) / lam * rep.weights[a] / rep.weights[b]

    residuals = []
    worst = 0.0
    for query in validation:
        predicted = evaluate_discounted(q, rep.weights, singles, query)
        observed = ask(query)
        r = _norm(observed - predicted)
        residuals.append((query.key(), r))
        worst = max(worst, r)
    return DiscountRecovery(
        q=q,
        weights=rep.weights,
        beliefs={f: singles[f] for f in feats},
        identification_pair=pair,
        validation_residuals=tuple(residuals),
        max_residual=worst,
        recovery=outcome,
    )
