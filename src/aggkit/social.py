"""Social aggregation of utilities: Pareto tests and weight recovery.

Utilities over a common finite alternative set are normalized against an
agreement direction v (an alternative mixture everyone strictly prefers
to some baseline): u maps to u / <u, v>, putting every agent on the
hyperplane <., v> = 1.  On that hyperplane, respecting unanimous
(extended Pareto) comparisons is the same as every coalition utility
being a strictly positive combination of its parts' utilities, which is
in turn the strict averaging axiom for the normalized vectors.  The
checks here either exhibit the positive combination or a separating
functional certifying its absence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConstantUtility,
    MinimalAgreementViolated,
    MissingDataError,
    ProfileConstructionFailed,
    ResidualTooLarge,
)
from .geometry import (
    DEFAULT_TOL,
    Tolerance,
    Vector,
    _norm,
    _row_dots,
    _row_norms,
    _tame,
    affine_dimension,
    as_point,
    interior_lambda,
    segment_coefficient,
)
from .model import (
    AxiomMode,
    AxiomReport,
    DatasetSource,
    _positive_weights,
    _top_means,
    check_axiom,
    feature_set,
)
from .recovery import (
    MissingData,
    NonRepresentable,
    Recovered,
    RecoveryOutcome,
    _witness,
    recover,
)

__all__ = [
    "normalize_to_H",
    "InCone",
    "Certificate",
    "Collinear",
    "FarkasOutcome",
    "check_consistency_pair",
    "verify_certificate",
    "aggregate_coalition",
    "ExtendedParetoReport",
    "check_extended_pareto",
    "GswfRecovery",
    "recover_gswf_weights",
    "relative_utilitarian_weight",
    "StateDependentRepresentation",
    "recover_state_dependent",
]


def normalize_to_H(
    u: Sequence[float] | Vector,
    v: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
    who: str = "utility",
) -> Vector:
    """Scale a utility vector onto the hyperplane <u, v> = 1.

    Raises MinimalAgreementViolated when <u, v> is not strictly positive
    beyond the gate: such an agent does not strictly prefer the
    agreement mixture, so the normalization (and the aggregation theory
    behind it) does not apply.
    """
    return _normalize_rows(as_point(u)[None], v, tol, ((who,),))[0]


def _normalize_rows(
    points: NDArray[np.float64], v: Sequence[float] | Vector, tol: Tolerance, who: Sequence[Sequence[str]]
) -> NDArray[np.float64]:
    """Each row u of the finite ``(k, d)`` array ``points`` over <u, v>, bit for
    bit as one row at a time: the gate ``tol.gate(|u| |v|)`` keeps its floor
    where the scale is NaN (|v| underflowed, |u| overflowed), as ``max`` does;
    the first row at or below it raises MinimalAgreementViolated, named
    ``who[row]`` joined by commas, with its ``np.dot`` (a zero keeps its sign)
    and its gate.
    Past that test, the first row whose normalised outcome is not finite
    raises ValueError, named the same way."""
    v = as_point(v, dim=points.shape[1])
    # Silent, as scalar products are; the finiteness test below names an overflow.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dots = _row_dots(points, np.broadcast_to(v, points.shape))
        gate = tol.gate(_row_norms(points) * _norm(v))
        normal = points / dots[:, None]
    low = dots <= gate
    if low.any():
        row = int(np.argmax(low))
        raise MinimalAgreementViolated(",".join(who[row]), float(np.dot(points[row], v)), float(gate[row]))
    finite = np.isfinite(normal).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{','.join(who[row])}: normalised outcome has non-finite coordinates: {normal[row]!r}")
    return normal


@dataclass(frozen=True)
class InCone:
    """u_AB is a strictly positive combination alpha u_A + beta u_B."""

    alpha: float
    beta: float
    residual: float


@dataclass(frozen=True)
class Certificate:
    """A functional z with z.u_A >= 0, z.u_B >= 0 but z.u_AB not positive.

    Any such z names a welfare comparison both parts weakly endorse (one
    strictly, in the boundary case) that the coalition fails to endorse.
    """

    z: tuple[float, ...]
    dot_a: float
    dot_b: float
    dot_ab: float


@dataclass(frozen=True)
class Collinear:
    """u_A and u_B point the same way; the pair check degenerates."""

    ratio: float  # |u_B| / |u_A| along the common ray


FarkasOutcome = InCone | Certificate | Collinear
# How reports name each outcome type.
_FARKAS_TYPES = {InCone: "in-cone", Certificate: "certificate", Collinear: "collinear"}

# Rounding allowance for the sign conditions of a constructed certificate.
# This is pure floating-point slack, far below any user tolerance.
_SIGN_EPS = 1e-12


def verify_certificate(
    z: Sequence[float] | Vector,
    u_a: Sequence[float] | Vector,
    u_b: Sequence[float] | Vector,
    u_ab: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Check the defining sign conditions of a separation certificate.

    Generic case: z.u_A >= 0, z.u_B >= 0 (up to rounding) and
    z.u_AB < 0 beyond the gate.  Boundary case: z.u_AB vanishes within
    the gate while one of z.u_A, z.u_B is strictly positive beyond it,
    witnessing a coalition indifferent where a part is strict.
    """
    z = as_point(z)
    parts = np.vstack([as_point(u, dim=z.size) for u in (u_a, u_b, u_ab)])
    return _certifies(z, _norm(z), parts, _row_norms(parts).tolist(), tol)


def _certifies(
    z: Vector, nz: float, parts: NDArray[np.float64], norms: Sequence[float], tol: Tolerance
) -> bool:
    """:func:`verify_certificate` on ``z``, of norm ``nz``, and the rows
    u_A, u_B, u_AB of ``parts``, of norms ``norms``."""
    if nz <= 0.0:
        return False
    da, db, dab = (float(np.dot(z, u)) for u in parts)
    na, nb, nab = norms
    if da < -_SIGN_EPS * nz * na or db < -_SIGN_EPS * nz * nb:
        return False
    g = tol.gate(nz * nab, nz)
    return dab < -g or (abs(dab) <= g and (da > tol.gate(nz * na, nz) or db > tol.gate(nz * nb, nz)))


def check_consistency_pair(
    u_a: Sequence[float] | Vector,
    u_b: Sequence[float] | Vector,
    u_ab: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> FarkasOutcome:
    """Classify a coalition utility against its two parts.

    Either u_AB decomposes as alpha u_A + beta u_B with alpha, beta
    strictly positive (InCone), or a certificate functional separates it
    from the open cone.  Parallel u_A, u_B short-circuit to Collinear.
    Exactly one verdict is returned, and a returned certificate always
    passes :func:`verify_certificate`.
    """
    u_a = as_point(u_a)
    parts = np.vstack([u_a, as_point(u_b, dim=u_a.size), as_point(u_ab, dim=u_a.size)])
    u_a, u_b, u_ab = parts
    # Each input tested once: every vector whose norm is taken below is a unit
    # vector or, up to rounding, at most as long as an input.
    tame = _tame(parts, 2.0)
    na, nb, nab = norms = _row_norms(parts, tame).tolist()
    if min(na, nb) <= tol.gate():  # the gate's floor
        raise ResidualTooLarge("a zero utility vector cannot anchor the cone test")

    perp_b = u_b - (float(np.dot(u_b, u_a)) / (na * na)) * u_a
    if _norm(perp_b, tame) <= tol.gate(nb):
        if not float(np.dot(u_a, u_b)) > 0:
            raise ResidualTooLarge("anti-parallel part utilities violate minimal agreement")
        return Collinear(ratio=nb / na)

    # Least-squares decomposition u_AB = alpha u_A + beta u_B + r, r in the
    # orthogonal complement of span{u_A, u_B}.
    basis = np.column_stack([u_a, u_b])
    coef, *_ = np.linalg.lstsq(basis, u_ab, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    r = u_ab - basis @ coef
    r_norm = _norm(r, tame)
    candidates = [perp_b, u_a - (float(np.dot(u_a, u_b)) / (nb * nb)) * u_b]
    if r_norm <= tol.gate(nab, na, nb):
        slack = tol.lam_slack
        if alpha > slack and beta > slack:
            return InCone(alpha=alpha, beta=beta, residual=r_norm)
    else:  # out of span: the residual direction itself separates
        candidates.insert(0, -r)

    for cand in candidates:
        c_norm = _norm(cand, tame)
        if c_norm <= 0.0:
            continue
        z = cand / c_norm
        if _certifies(z, _norm(z, tame), parts, norms, tol):
            return Certificate(tuple(z.tolist()), *(float(np.dot(z, u)) for u in parts))
    raise ResidualTooLarge("no candidate certificate validated; the inputs look corrupt")


def aggregate_coalition(
    weights: Mapping[str, float],
    utilities: Mapping[str, Sequence[float] | Vector],
    coalition: Iterable[str] | str,
) -> Vector:
    """Weighted average of the coalition members' normalized utilities.

    The utilities must already lie on the hyperplane <., v> = 1 (for
    instance through :func:`normalize_to_H`, once per individual); the
    average then lies on it too.  Raises UnknownFeature for a member
    without a weight, ValueError for a weight not positive and finite.
    """
    members = sorted(feature_set(coalition))
    return _top_means(
        _positive_weights(weights, members), [as_point(utilities[m]) for m in members]
    )[0]


def verify_weight_table(
    src: DatasetSource,
    weights: Mapping[str, float],
    v: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[tuple[tuple[str, ...], float, bool], ...]:
    """Compare every stored coalition with its weighted average.

    Individuals are the singletons of ``src``.  Every stored outcome must
    meet minimal agreement with ``v``.  Each set of two or more members
    gives a row (members, residual, passed): the distance on the
    hyperplane between its normalized outcome and the weighted average
    of its members' normalized utilities, and whether that distance is
    within the gate.  Raises MissingDataError naming the members of the
    first coalition (in canonical order) that ``weights`` misses, and
    ValueError for a weight that is not strictly positive and finite.
    """
    norm_src = _normalized_source(src, v, tol)
    first = len(norm_src.features())  # the rows before are the singletons
    coalitions = norm_src._members[first:]
    for members in coalitions:
        missing = [m for m in members if m not in weights]
        if missing:
            raise MissingDataError(
                [(m,) for m in missing], f"no weight for individuals {missing}"
            )
    if not coalitions:
        return ()
    people = sorted({m for members in coalitions for m in members})
    known = dict(zip(people, _positive_weights(weights, people)))
    predicted = _top_means(
        [known.get(f, 1.0) for f in norm_src.features()],  # an individual in no coalition is never read
        norm_src._points[:first],
        {size: (start - first, block) for size, (start, block) in norm_src._blocks.items() if size > 1},
    )
    residuals = _row_norms(norm_src._points[first:] - predicted).tolist()
    return tuple((c, r, r <= tol.gate(1.0)) for c, r in zip(coalitions, residuals))


def _normalized_source(
    src: DatasetSource, v: Sequence[float] | Vector, tol: Tolerance
) -> DatasetSource:
    """``src`` with every stored outcome scaled onto <., v> = 1, in one
    row pass; a row that overflows raises ``_normalize_rows``' ValueError,
    named by its set."""
    return src._with_points(_normalize_rows(src._points, v, tol, src._members))


@dataclass(frozen=True)
class ParetoViolation:
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]
    union: tuple[str, ...]
    farkas: FarkasOutcome


@dataclass(frozen=True)
class ExtendedParetoReport:
    """Outcome of the extended Pareto test on one coalition table."""

    satisfied: bool
    axiom: AxiomReport
    violations: tuple[ParetoViolation, ...]
    weights: Mapping[str, float] | None
    recovery: RecoveryOutcome | None


def check_extended_pareto(
    src: DatasetSource,
    v: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtendedParetoReport:
    """Test a table of coalition utilities for extended Pareto.

    All utilities are normalized against ``v`` first; the strict
    averaging check then runs on the normalized table, and every failed
    split is classified by the cone test so the report carries either
    the positive decomposition or a separating certificate.  When the
    table passes, recovery supplies the social weights.
    """
    norm_src = _normalized_source(src, v, tol)

    axiom = check_axiom(norm_src, AxiomMode.STRICT, tol)
    failed = axiom.reason != 0
    points, keys = norm_src._points, axiom.members
    violations = tuple(
        ParetoViolation(
            part_a=keys[a],
            part_b=keys[b],
            union=keys[u],
            farkas=check_consistency_pair(points[a], points[b], points[u], tol),
        )
        for u, a, b in zip(*(rows[failed].tolist() for rows in (axiom.union, axiom.part_a, axiom.part_b)))
    )

    # The extended Pareto property is exactly the strict averaging axiom on
    # the normalized table; weights are a bonus that needs recovery to work.
    weights = None
    recovery: RecoveryOutcome | None = None
    if axiom.satisfied:
        recovery = recover(norm_src, tol)
        if isinstance(recovery, Recovered):
            if len(recovery.representation.rank_classes()) == 1:
                weights = recovery.representation.weights
    return ExtendedParetoReport(
        satisfied=axiom.satisfied,
        axiom=axiom,
        violations=violations,
        weights=weights,
        recovery=recovery,
    )


GswfOracle = Callable[[Mapping[str, str], frozenset], Sequence[float]]


@dataclass(frozen=True)
class GswfRecovery:
    """Weights w(individual, preference) recovered from a welfare oracle."""

    weights: Mapping[tuple[str, str], float]
    reference_preference: str
    reference_individual: str
    validation_residuals: tuple[tuple[str, float], ...]
    max_residual: float


def _fill_profile(
    fixed: Mapping[str, str],
    individuals: Sequence[str],
    normalized: Mapping[str, Vector],
    tol: Tolerance,
) -> dict[str, str]:
    """Complete a partial profile so its utilities do not sit on one line.

    Remaining individuals cycle through the preference library; the
    completed profile must put at least three pairwise distinct,
    non-collinear normalized utilities on the table, which the witness
    constructions downstream rely on.
    """
    prefs = sorted(normalized)
    profile = dict(fixed)
    free = [i for i in individuals if i not in profile]
    for idx, ind in enumerate(free):
        profile[ind] = prefs[idx % len(prefs)]
    points = [normalized[r] for r in profile.values()]
    if affine_dimension(points, tol) < 2:
        for ind in free:
            for r in prefs:
                profile[ind] = r
                points = [normalized[p] for p in profile.values()]
                if affine_dimension(points, tol) >= 2:
                    return profile
        raise ProfileConstructionFailed(
            "the preference library cannot produce a profile off a single line"
        )
    return profile


def recover_gswf_weights(
    oracle: GswfOracle,
    individuals: Iterable[str],
    preference_library: Mapping[str, Sequence[float] | Vector],
    v: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
    validation: Sequence[tuple[Mapping[str, str], Iterable[str]]] = (),
) -> GswfRecovery:
    """Recover welfare weights from a profile-dependent aggregation oracle.

    The oracle maps (profile, coalition) to the coalition's utility.
    Weights are anchored at the lexicographically smallest preference
    r0 and individual i0 with w(i0, r0) = 1, and spread in three stages:
    first w(i, r) for the other individuals against the anchored i0 via
    the pair coalition {i0, i}; then w(i, r0) through a bridge
    individual already weighted at some other preference; finally
    w(i0, r) through the second individual carrying r0.  Every step
    reads one segment coefficient of a two-member coalition.

    Needs at least four individuals and a library of at least two
    preferences whose normalized utilities span a plane with the
    profiles used (ProfileConstructionFailed otherwise).
    """
    inds = tuple(sorted(individuals))
    if len(inds) < 4:
        raise ValueError("weight recovery needs at least four individuals")
    v = as_point(v)
    normalized: dict[str, Vector] = {}
    for rid in sorted(preference_library):
        normalized[rid] = normalize_to_H(
            preference_library[rid], v, tol, who=f"preference {rid}"
        )
    if len(normalized) < 2:
        raise ValueError("the preference library needs at least two preferences")
    for r1, r2 in itertools.combinations(sorted(normalized), 2):
        if tol.close(normalized[r1], normalized[r2]):
            raise ValueError(
                f"preferences {r1!r} and {r2!r} have identical normalized utilities"
            )

    prefs = tuple(sorted(normalized))
    r0 = prefs[0]
    i0 = inds[0]

    def ask(profile: Mapping[str, str], coalition: Iterable[str]) -> Vector:
        out = oracle(profile, frozenset(coalition))
        return normalize_to_H(out, v, tol, who="oracle output")

    def pair_lambda(profile: Mapping[str, str], a: str, b: str) -> float:
        """Coefficient of a's utility in the {a, b} coalition outcome."""
        ua = normalized[profile[a]]
        ub = normalized[profile[b]]
        agg = ask(profile, [a, b])
        pos = segment_coefficient(agg, ua, ub, tol)
        lam = interior_lambda(pos, tol)
        if lam is None:
            if pos.on_segment:
                raise ResidualTooLarge(
                    f"coalition {{{a},{b}}} outcome sits at an endpoint"
                )
            raise ResidualTooLarge(
                f"coalition {{{a},{b}}} outcome is not a mixture of its members"
            )
        return lam

    weights: dict[tuple[str, str], float] = {(i0, r0): 1.0}

    # Stage one: w(i, r) against the anchor for r away from r0.
    for i in inds[1:]:
        for r in prefs[1:]:
            profile = _fill_profile({i0: r0, i: r}, inds, normalized, tol)
            lam = pair_lambda(profile, i0, i)
            weights[(i, r)] = (1.0 - lam) / lam

    # Stage two: w(i, r0) through a bridge individual at another preference.
    for i in inds[1:]:
        bridge = next(j for j in inds[1:] if j != i)
        r_b = prefs[1]
        profile = _fill_profile({bridge: r_b, i: r0}, inds, normalized, tol)
        lam = pair_lambda(profile, bridge, i)
        weights[(i, r0)] = weights[(bridge, r_b)] * (1.0 - lam) / lam

    # Stage three: w(i0, r) using the second individual now carrying r0.
    i1 = inds[1]
    for r in prefs[1:]:
        profile = _fill_profile({i0: r, i1: r0}, inds, normalized, tol)
        lam = pair_lambda(profile, i0, i1)
        weights[(i0, r)] = weights[(i1, r0)] * lam / (1.0 - lam)

    residuals = []
    worst = 0.0
    for profile, coalition in validation:
        fs = feature_set(coalition)
        missing = [i for i in sorted(fs) if (i, profile[i]) not in weights]
        if missing:
            raise MissingDataError(
                [(i,) for i in missing],
                f"no recovered weight for individuals {missing} at their profile",
            )
        predicted = aggregate_coalition(
            {i: weights[(i, profile[i])] for i in fs},
            {i: normalized[profile[i]] for i in fs},
            fs,
        )
        observed = ask(profile, fs)
        rr = _norm(observed - predicted)
        label = "{" + ",".join(sorted(fs)) + "}"
        residuals.append((label, rr))
        worst = max(worst, rr)

    return GswfRecovery(
        weights=weights,
        reference_preference=r0,
        reference_individual=i0,
        validation_residuals=tuple(residuals),
        max_residual=worst,
    )


def relative_utilitarian_weight(
    u: Sequence[float] | Vector, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Weight 1 / (max u - min u) of zero-one rescaled utilitarianism.

    Aggregating with these weights is the same as summing utilities
    rescaled to [0, 1].  Raises ConstantUtility when the range vanishes.
    """
    u = as_point(u)
    spread = float(u.max() - u.min())
    if spread <= tol.gate(float(np.abs(u).max()) if u.size else 0.0, 1.0):
        raise ConstantUtility(f"utility range {spread!r} is too small to rescale")
    return 1.0 / spread


@dataclass(frozen=True)
class StateDependentRepresentation:
    """Positive state probabilities plus per-state normalized utilities."""

    probabilities: Mapping[str, float]
    utilities: Mapping[str, Vector]
    verification: tuple[tuple[tuple[str, ...], float], ...]
    max_residual: float
    indeterminate: bool


StateDependentResult = StateDependentRepresentation | NonRepresentable | MissingData


def recover_state_dependent(
    src: DatasetSource,
    v: Sequence[float] | Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> StateDependentResult:
    """Recover state probabilities from event-conditional utilities.

    Events are feature sets of states; the recorded outcome of an event
    is the conditional utility given that event, normalized against
    ``v``.  Treating states as features, core recovery yields weights
    whose normalization is the (full-support) state probability, and
    conditioning is then ordinary Bayes:  u(A) = sum of P(s)/P(A) u(s).
    A multi-tier recovered order means some state would need zero
    probability, which is returned as the recovery's witness.
    """
    norm_src = _normalized_source(src, v, tol)

    outcome = recover(norm_src, tol)
    if isinstance(outcome, (NonRepresentable, MissingData)):
        return outcome
    rep = outcome.representation
    classes = rep.rank_classes()
    if len(classes) > 1:
        high = sorted(classes[0])[0]
        low = sorted(classes[-1])[0]
        farkas = None
        pair = frozenset([high, low])
        if norm_src.has(pair):
            farkas = check_consistency_pair(
                norm_src.outcome([high]),
                norm_src.outcome([low]),
                norm_src.outcome(pair),
                tol,
            )
        note = "conditional on the pair ignores one state entirely"
        if farkas is not None:
            numbers = ", ".join(f"{k}={list(v) if isinstance(v, tuple) else v}" for k, v in asdict(farkas).items())
            note += f"; separation: {_FARKAS_TYPES[type(farkas)]} ({numbers})"
        witness = _witness(
            (high, low),
            (math.inf, (tuple(sorted(pair)),), note),
            (math.nan, (), "state probabilities must be strictly positive"),
        )
        return NonRepresentable(witness=witness)

    total = sum(rep.weights[s] for s in rep.features())
    probabilities = {s: rep.weights[s] / total for s in rep.features()}
    checked = outcome.verification
    verification = tuple(zip(checked.members, checked.residual.tolist()))
    return StateDependentRepresentation(
        probabilities=probabilities,
        utilities={s: rep.outcomes[s] for s in rep.features()},
        verification=verification,
        max_residual=outcome.max_residual,
        indeterminate=bool(outcome.indeterminate_classes),
    )
