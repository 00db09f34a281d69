"""Affine and convex primitives with explicit floating-point tolerances.

Every numeric decision in the package (is this point on that segment, do
these outcomes span a plane, is this choice interior to its menu) funnels
through the handful of functions in this module, so the tolerance policy
lives here and nowhere else.  All comparisons use a two-parameter gate:
an absolute floor plus a relative term scaled by the magnitudes involved.
Each part of the policy has one owner: :meth:`Tolerance.gate` is the gate,
for floats and arrays alike; :func:`_close_rows` decides whether two
points coincide; :func:`_numerical_ranks` counts singular values; and
:func:`_row_norms` (with :func:`_norm`, its one-vector form) takes every
Euclidean norm, finite for every finite vector.

Points are plain one-dimensional numpy arrays of floats.  Inputs are
accepted as any sequence of reals and validated with :func:`as_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AffinelyDependentBasis,
    DimensionMismatch,
    NotInAffineHull,
    NotInConvexHull,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_point",
    "SegmentKind",
    "SegmentPosition",
    "segment_coefficient",
    "affine_dimension",
    "barycentric",
    "convex_coefficients",
    "relative_interior_check",
]

Vector = NDArray[np.float64]

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-9

# Strictness amplifier for the relative-interior test: a point is interior
# when some convex combination gives every generator at least this multiple
# of ``lam_slack``, which keeps the interior margin far above the gates.
_RELINT_MARGIN = 1e3

# Rounding allowance, relative to the largest norm involved, for the
# stretched point of the relative-interior test, which must lie in the
# hull up to floating error because the stretch is already the tolerance.
_FIT_EPS = 1e-12

# Share of each of those two gates that a certificate of interiority may
# use.  The search's own fit, renormalised to sum to one, can sit up to
# about sqrt(2) times further from the point than a combination that
# already sums to one, so a certificate within half a gate leaves the
# search inside the whole gate; a point that rebuilds at the gate itself
# is left to the search.
_CERTIFICATE_SHARE = 0.5


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative comparison gate.

    A residual r measured against magnitudes s1..sk passes when
    ``r <= max(abs_tol, rel_tol * max(s1..sk))``.  Dimensionless
    quantities (mixing coefficients) use ``lam_slack`` instead.
    """

    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one tolerance must be positive")

    def gate(self, *scales: float | Vector) -> float | Vector:
        """Comparison threshold for a residual at the given magnitudes: a
        float for floats, and for arrays, which broadcast together, the same
        element by element, save that any NaN scale leaves the floor there."""
        if np.ndarray not in map(type, scales):
            s = max(scales) if scales else 0.0
            return max(self.abs_tol, self.rel_tol * s)
        s = scales[0]
        for t in scales[1:]:
            s = np.maximum(s, t)
        return np.fmax(self.abs_tol, self.rel_tol * s)

    @property
    def lam_slack(self) -> float:
        """Slack for dimensionless coefficients such as segment lambdas."""
        return max(self.abs_tol, self.rel_tol)

    def close(self, a: Vector, b: Vector) -> bool:
        """Euclidean closeness of two points under this gate: :func:`_close_rows` on one row."""
        return bool(_close_rows(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)), self)[0])


DEFAULT_TOL = Tolerance()


def as_point(coords: Sequence[float] | Vector, *, dim: int | None = None) -> Vector:
    """Validate and convert a coordinate sequence to a float array.

    Raises DimensionMismatch if ``dim`` is given and does not match, and
    ValueError on empty or non-finite input.
    """
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"a point must be a flat sequence of reals, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("a point needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point has non-finite coordinates: {arr!r}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    return arr


def _row_dots(x: NDArray[np.float64], y: NDArray[np.float64]) -> Vector:
    """``np.dot`` of each row of ``x`` with the same row of ``y``, over the
    last axis, bit for bit: one batched ``matmul`` adds up each row as the
    single dot does."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _row_norms(rows: NDArray[np.float64], tame: bool | None = None) -> Vector:
    """Euclidean norm of each row of ``rows`` over its last axis.

    It is ``np.linalg.norm`` of a vector, bit for bit (the root of a dot),
    wherever that is finite.  Where the squares of a finite row overflow,
    silently, its norm is computed again over the row scaled by its largest
    magnitude, so it stays finite.  A kernel that has checked its inputs
    with ``_tame`` passes the verdict as ``tame``; by default the rows are
    checked here.
    """
    if _tame(rows) if tame is None else tame:
        return np.sqrt(_row_dots(rows, rows))
    with np.errstate(over="ignore"):
        out = np.sqrt(_row_dots(rows, rows))
        big = np.nonzero(np.isinf(out))
        top = np.abs(rows[big]).max(axis=-1, initial=0.0)
        finite = np.isfinite(top)
        big, top = tuple(i[finite] for i in big), top[finite]
        unit = rows[big] / top[:, None]
        out[big] = top * np.sqrt(_row_dots(unit, unit))
    return out


# Below this magnitude no square of a coordinate overflows, nor a sum of
# fewer than 10^8 of them.
_SQUARE_SAFE = 1e150


def _tame(x: NDArray[np.float64], growth: float = 1.0) -> bool:
    """No coordinate of ``x`` reaches ``_SQUARE_SAFE / growth`` and none is
    NaN, so no square overflows in a row at most ``growth`` times as long
    as a row of such coordinates."""
    return np.maximum.reduce(np.abs(x), axis=None, initial=0.0) < _SQUARE_SAFE / growth


def _norm(v: Vector, tame: bool | None = None) -> float:
    """``np.linalg.norm`` of a vector, finite for a finite one: :func:`_row_norms`."""
    return float(_row_norms(np.reshape(v, (1, -1)), tame)[0])


def _close_rows(
    a: NDArray[np.float64], b: NDArray[np.float64], tol: Tolerance
) -> NDArray[np.bool_]:
    """Whether each row of ``a`` coincides with the same row of ``b``: their
    distance is within ``tol.gate`` of the two norms."""
    tame = _tame(a, 2.0) and _tame(b, 2.0)  # the rows of a - b too
    return _row_norms(a - b, tame) <= tol.gate(_row_norms(a, tame), _row_norms(b, tame))


def _common_dim(*points: Vector) -> int:
    dims = {p.size for p in points}
    if len(dims) != 1:
        raise DimensionMismatch(f"points live in different dimensions: {sorted(dims)}")
    return dims.pop()


class SegmentKind(Enum):
    """Where a point sits relative to a closed segment [a, b]."""

    ON_SEGMENT = "on_segment"  # on the line, coefficient in [0, 1] after clamping
    ON_LINE = "on_line"        # on the line, coefficient outside [0, 1] beyond slack
    OFF_LINE = "off_line"      # off the line beyond the residual gate
    DEGENERATE = "degenerate"  # the two endpoints coincide


@dataclass(frozen=True)
class SegmentPosition:
    """Outcome of :func:`segment_coefficient`.

    ``lam`` is the coefficient of the *first* endpoint in
    ``lam * a + (1 - lam) * b``.  For ON_SEGMENT it is clamped into
    [0, 1]; for ON_LINE and OFF_LINE it is the raw least-squares value
    (informative only for OFF_LINE); for DEGENERATE it is None.
    ``residual`` is the distance from the point to the line, except for
    DEGENERATE where it is the distance to the (common) endpoint.
    """

    kind: SegmentKind
    lam: float | None
    residual: float

    @property
    def on_segment(self) -> bool:
        return self.kind is SegmentKind.ON_SEGMENT


# Kind codes of :func:`_segment_positions`: an index into this tuple.
_SEGMENT_KINDS = (
    SegmentKind.ON_SEGMENT,
    SegmentKind.ON_LINE,
    SegmentKind.OFF_LINE,
    SegmentKind.DEGENERATE,
)
_ON_SEGMENT, _ON_LINE, _OFF_LINE, _DEGENERATE = range(4)


def _segment_positions(
    p: NDArray[np.float64],
    a: NDArray[np.float64],
    b: NDArray[np.float64],
    tol: Tolerance,
) -> tuple[NDArray[np.intp], Vector, Vector]:
    """:func:`segment_coefficient` of each row of ``p`` against the same
    rows of ``a`` and ``b``, three validated ``(k, d)`` arrays.

    Returns each row's kind code (an index into ``_SEGMENT_KINDS``), its
    coefficient (NaN for DEGENERATE rows) and its residual.  Every step
    is the scalar formula applied column-wise, so each row gets the bits
    a call on that row alone would get.
    """
    d = a - b
    length = _row_norms(d)
    degenerate = length <= tol.abs_tol
    to_b = p - b
    with np.errstate(over="ignore", invalid="ignore"):
        dots, squared = _row_dots(to_b, d), length * length
        lam = np.divide(dots, squared, out=np.zeros_like(length), where=~degenerate)
    overflowed = ~(np.isfinite(dots) & np.isfinite(squared))
    if overflowed.any():  # the same ratio, overflow-free, with both rows over the length
        big = np.flatnonzero(overflowed & ~degenerate)
        lam[big] = _row_dots(to_b[big] / length[big, None], d[big] / length[big, None])
    projected = lam[:, None] * a + (1.0 - lam)[:, None] * b
    residual = _row_norms(p - projected)
    gate = tol.gate(length, _row_norms(to_b))
    slack = tol.lam_slack
    kind = np.where((-slack <= lam) & (lam <= 1.0 + slack), _ON_SEGMENT, _ON_LINE)
    kind[residual > gate] = _OFF_LINE
    # Clamp into [0, 1] as max(0.0, lam) then min(1.0, lam) would, so -0.0
    # reads 0.0 (np.maximum(0.0, -0.0) would keep the sign).
    on_segment = kind == _ON_SEGMENT
    lam[on_segment & ~(lam > 0.0)] = 0.0
    lam[on_segment & ~(lam < 1.0)] = 1.0
    if degenerate.any():
        kind[degenerate] = _DEGENERATE
        lam[degenerate] = np.nan
        residual[degenerate] = _row_norms(
            p[degenerate] - 0.5 * (a[degenerate] + b[degenerate])
        )
    return kind, lam, residual


def segment_coefficient(
    p: Vector, a: Vector, b: Vector, tol: Tolerance = DEFAULT_TOL
) -> SegmentPosition:
    """Locate ``p`` relative to the segment from ``a`` to ``b``.

    The coefficient is the orthogonal projection parameter
    ``lam = <p - b, a - b> / |a - b|^2`` and the residual is the distance
    from ``p`` to the projected point.  Coefficients within ``lam_slack``
    of [0, 1] are clamped into the interval; collinear points beyond that
    slack are reported as ON_LINE with the raw coefficient so callers can
    distinguish a violated mixture from an off-line point.  The endpoints
    are DEGENERATE when ``|a - b| <= abs_tol``.
    """
    p = as_point(p)
    a = as_point(a)
    b = as_point(b)
    _common_dim(p, a, b)
    kind, lam, residual = _segment_positions(p[None], a[None], b[None], tol)
    code = int(kind[0])
    return SegmentPosition(
        kind=_SEGMENT_KINDS[code],
        lam=None if code == _DEGENERATE else float(lam[0]),
        residual=float(residual[0]),
    )


def _strictly_inside(lam: float | Vector, tol: Tolerance) -> bool | NDArray[np.bool_]:
    """``lam_slack < lam < 1 - lam_slack``, for one coefficient or an array."""
    slack = tol.lam_slack
    return (slack < lam) & (lam < 1.0 - slack)


def interior_lambda(pos: SegmentPosition, tol: Tolerance = DEFAULT_TOL) -> float | None:
    """The coefficient of ``pos`` when it is strictly inside the segment.

    Returns ``lam`` for an ON_SEGMENT position with
    ``lam_slack < lam < 1 - lam_slack``, and None for every other
    position (an endpoint, off the segment, or degenerate).  An interior
    coefficient of a pair aggregate reads as the weight ratio
    ``lam / (1 - lam)``; one at an endpoint reads as a rank.
    """
    if pos.kind is not SegmentKind.ON_SEGMENT or pos.lam is None:
        return None
    return pos.lam if _strictly_inside(pos.lam, tol) else None


def affine_dimension(
    points: Iterable[Sequence[float] | Vector], tol: Tolerance = DEFAULT_TOL
) -> int:
    """Dimension of the affine hull of a finite point set.

    Computed as the numerical rank of the centered coordinate matrix: a
    singular value counts when it exceeds ``rel_tol`` times the largest
    singular value, with ``abs_tol`` as an absolute floor.  A single point
    (or an empty repetition of one) has dimension 0.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("affine_dimension needs at least one point")
    _common_dim(*pts)
    return _affine_rank(np.vstack(pts), tol)


def _affine_rank(mat: NDArray[np.float64], tol: Tolerance) -> int:
    """:func:`affine_dimension` of the rows of an already validated matrix."""
    if mat.shape[0] == 0:
        raise ValueError("affine_dimension needs at least one point")
    if mat.shape[0] == 1:
        return 0
    centered = mat - _centroid(mat)
    return int(_numerical_ranks(np.linalg.svd(centered, compute_uv=False), tol))


def _affine_ranks(stack: NDArray[np.float64], tol: Tolerance) -> NDArray[np.intp]:
    """:func:`_affine_rank` of each matrix of a ``(k, m, d)`` stack, m >= 2, in
    one SVD call."""
    centered = stack - _centroid(stack)[:, None]
    return _numerical_ranks(np.linalg.svd(centered, compute_uv=False), tol)


def _numerical_ranks(svals: NDArray[np.float64], tol: Tolerance) -> NDArray[np.intp]:
    """The numerical rank of each row of singular values ``svals`` (its last
    axis, in descending order): the values above ``tol.gate`` of the row's
    largest, so above ``rel_tol`` times it with ``abs_tol`` as floor."""
    return np.count_nonzero(svals > tol.gate(svals[..., :1]), axis=-1)


def barycentric(
    p: Vector,
    basis: Sequence[Sequence[float] | Vector],
    tol: Tolerance = DEFAULT_TOL,
) -> Vector:
    """Affine coordinates of ``p`` over an affinely independent basis.

    Returns coefficients summing to one with ``sum(c_i * basis_i) = p``.
    Raises AffinelyDependentBasis when the basis points do not span an
    affine space of dimension ``len(basis) - 1``, and NotInAffineHull when
    the reconstruction residual exceeds the gate.
    """
    pts = [as_point(q) for q in basis]
    if not pts:
        raise ValueError("barycentric needs a non-empty basis")
    p = as_point(p)
    _common_dim(p, *pts)
    dim = affine_dimension(pts, tol)
    if dim != len(pts) - 1:
        raise AffinelyDependentBasis(
            f"{len(pts)} basis points span an affine space of dimension {dim}"
        )

    origin = pts[0]
    if len(pts) == 1:
        coef = np.array([1.0])
    else:
        mat = np.column_stack([q - origin for q in pts[1:]])
        rest, *_ = np.linalg.lstsq(mat, p - origin, rcond=None)
        coef = np.concatenate([[1.0 - float(np.sum(rest))], rest])

    reconstructed = np.vstack(pts).T @ coef
    residual = _norm(reconstructed - p)
    if residual > tol.gate(*_row_norms(np.vstack([p, *pts])), 1.0):
        raise NotInAffineHull(
            f"point is at distance {residual:.3e} from the basis affine hull"
        )
    return coef


def _nnls(a: NDArray[np.float64], b: Vector) -> Vector:
    """Lawson-Hanson active-set solution of ``min |a x - b|`` over ``x >= 0``.

    Each outer step frees the coordinate with the largest positive
    gradient; the inner loop solves least squares on the free set and
    steps back toward the previous iterate until every free coordinate
    is positive.  A freed coordinate whose first solve is not positive is
    set aside until the iterate moves.  The run stops after
    ``3 * (columns + 1)`` least-squares solves and then returns its last
    feasible iterate, which callers must verify (Lawson & Hanson,
    "Solving Least Squares Problems", 1974, ch. 23).
    """
    n = a.shape[1]
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    skip = np.zeros(n, dtype=bool)
    grad_tol = (
        10.0 * np.finfo(float).eps * max(a.shape)
        * float(np.abs(a).max()) * float(np.abs(b).max())
    )
    budget = 3 * (n + 1)
    while budget > 0:
        grad = a.T @ (b - a @ x)
        grad[free | skip] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= grad_tol:
            break
        free[j] = True
        first = True
        while budget > 0:
            budget -= 1
            z = np.zeros(n)
            z[free], *_ = np.linalg.lstsq(a[:, free], b, rcond=None)
            if np.all(z[free] > 0.0):
                x = z
                skip[:] = False
                break
            if first and z[j] <= 0.0:
                free[j] = False
                skip[j] = True
                break
            first = False
            blocking = np.flatnonzero(free & (z <= 0.0))
            gap = x[blocking] - z[blocking]
            steps = np.divide(x[blocking], gap, out=np.zeros_like(gap), where=gap > 0.0)
            k = int(np.argmin(steps))
            x = x + float(steps[k]) * (z - x)
            x[blocking[k]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
    return x


def _centroid(gens: NDArray[np.float64], sizes: NDArray[np.intp] | None = None) -> NDArray[np.float64]:
    """The mean of the generators, the rows of ``gens`` ``(m, d)``, or of each
    menu's, the first ``sizes[k]`` rows of ``gens[k]`` ``(k, m, d)``: the first
    generator plus the mean of the differences from it, each divided by the
    count before they are added, so no sum leaves the float range where the
    coordinates and their differences do not."""
    sizes = np.asarray(gens.shape[-2] if sizes is None else sizes)
    present = (np.arange(gens.shape[-2]) < sizes[..., None])[..., None]
    steps = np.where(present, (gens - gens[..., :1, :]) / sizes[..., None, None], 0.0)
    return gens[..., 0, :] + steps.sum(axis=-2)


def _spread(q: NDArray[np.float64], spokes: NDArray[np.float64], tame: bool | None = None) -> Vector:
    """Each row's largest norm among its centred point, a row of ``q``
    ``(k, d)``, and its centred generators, a ``(m, d)`` slice of ``spokes``;
    ``tame`` as :func:`_row_norms` takes it."""
    tame = (_tame(spokes) and _tame(q)) if tame is None else tame
    return np.maximum(_row_norms(q, tame), _row_norms(spokes, tame).max(axis=1))


def _hull_fit(p: Vector, gens: NDArray[np.float64]) -> tuple[Vector, float, float]:
    """Best convex fit of ``p`` by the rows of ``gens``.

    The fit runs about the generators' centroid o (:func:`_centroid`),
    where generators that are close together far from the origin no longer
    look parallel: one NNLS solve of ``[(G - o)^T; s 1^T] c = [p - o; s]``,
    with ``s`` the largest norm among the centred point and generators
    (both sides scaled by a power of two near 1/s where s is so large that
    the solver's products would overflow), renormalised to sum to one.
    Returns the coefficients, the distance from ``p`` to the point they
    rebuild (infinite when the solve returns no mass), and ``s``.  The
    distance is measured afresh, so it bounds the distance from ``p`` to
    the hull whatever the solver did.
    """
    origin = _centroid(gens)
    q = p - origin
    spokes = gens - origin
    spread = float(_spread(q[None], spokes[None])[0])
    row = spread if spread > 0.0 else 1.0  # p on a one-point hull: weigh the sum alone
    system, rhs = np.vstack([spokes.T, np.full((1, gens.shape[0]), row)]), np.append(q, row)
    if not _tame(system):  # the solver's products would overflow: scale exactly, by a power of two
        unit = 2.0 ** -np.frexp(row)[1]
        system, rhs = system * unit, rhs * unit
    coef = _nnls(system, rhs)
    total = float(coef.sum())
    if total <= 0.0:
        return coef, np.inf, spread
    coef /= total
    return coef, _norm(spokes.T @ coef - q), spread


def _generator_matrix(
    p: Vector, generators: Sequence[Sequence[float] | Vector], caller: str
) -> tuple[Vector, NDArray[np.float64]]:
    """Validated point and generators, one generator per row."""
    gens = [as_point(g) for g in generators]
    if not gens:
        raise ValueError(f"{caller} needs at least one generator")
    p = as_point(p)
    _common_dim(p, *gens)
    return p, np.vstack(gens)


def convex_coefficients(
    p: Vector,
    generators: Sequence[Sequence[float] | Vector],
    tol: Tolerance = DEFAULT_TOL,
) -> Vector | None:
    """Convex-combination coefficients of ``p`` over ``generators``.

    Returns an array of non-negative coefficients summing to one, with
    zeros allowed, or None when ``p`` is outside the convex hull beyond
    tolerance: the coefficients come from one non-negative least-squares
    solve and are returned only when they rebuild ``p`` to within
    ``tol.gate(s, 1)``, ``s`` the largest norm among ``p`` and the
    generators measured from the generators' centroid.  The gate thus
    scales with the menu and the point's offset from it, not with where
    the menu sits in space.
    """
    p, gens = _generator_matrix(p, generators, "convex_coefficients")
    coef, residual, spread = _hull_fit(p, gens)
    return coef if residual <= tol.gate(spread, 1.0) else None


def _interior_terms(
    m: int | NDArray[np.intp], spread: float | Vector, tol: Tolerance
) -> tuple[float | Vector, float | Vector, float | Vector]:
    """The numbers of the relative-interior test on ``m`` generators.

    Returns the hull gate ``tol.gate(spread, 1)``, the strictness level t
    (``lam_slack`` amplified by the margin, at most 1/(2m) so the stretch
    stays finite for huge tolerances) and the stretch factor
    ``1 + m t / (1 - m t)``, one of each per menu for arrays of them.
    """
    level = _RELINT_MARGIN * tol.lam_slack
    level = np.where(m * level >= 0.5, 0.5 / m, level)
    return tol.gate(spread, 1.0), level, 1.0 + m * level / (1.0 - m * level)


def relative_interior_check(
    p: Vector,
    generators: Sequence[Sequence[float] | Vector],
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True when ``p`` is in the relative interior of the generators' hull.

    The relative interior of the hull of finitely many points is exactly
    the set of convex combinations with every coefficient strictly
    positive.  Requiring every coefficient to reach level t is equivalent
    to hull membership of the point stretched away from the centroid c by
    ``p + (m*t / (1 - m*t)) * (p - c)``, which is how the test is run here.
    The strictness level is ``lam_slack`` amplified by a fixed margin, so
    the stretch itself is the tolerance: ``p`` must be in the hull by the
    gate of :func:`convex_coefficients`, and the stretched point, taken in
    coordinates of the hull's affine span, must be in the hull up to
    rounding.  Points on a proper face fail, interior points with
    sensible clearance pass, and the verdict does not depend on where
    the menu sits in space.

    Raises NotInConvexHull when ``p`` is not in the hull at all.
    """
    p, gens = _generator_matrix(p, generators, "relative_interior_check")
    _, residual, spread = _hull_fit(p, gens)
    gate, _, stretch = _interior_terms(gens.shape[0], spread, tol)
    if residual > gate:
        raise NotInConvexHull("point is outside the convex hull of the generators")

    centroid = _centroid(gens)
    centered = gens - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    span = vt[: _numerical_ranks(svals, tol)]
    if span.shape[0] == 0:
        return True  # the hull is a single point and equals its relative interior

    _, residual, spread = _hull_fit(stretch * (span @ (p - centroid)), centered @ span.T)
    return residual <= _FIT_EPS * spread


def _certify_interior(
    points: NDArray[np.float64],
    gens: NDArray[np.float64],
    coef: NDArray[np.float64],
    sizes: NDArray[np.intp],
    tol: Tolerance,
) -> NDArray[np.bool_]:
    """Rows on which :func:`relative_interior_check` is known to return True.

    Row k is the menu of the first ``sizes[k]`` rows of ``gens[k]``, with
    point ``points[k]`` and the convex coefficients ``coef[k]`` claimed for
    it, both zero-padded to the largest menu.  Instead of searching for a
    combination, each row checks the one it is given against the
    inequalities the search tests, with half of each gate: the
    combination rebuilds the point within the hull gate, about the
    centroid as :func:`_hull_fit` measures it; every coefficient reaches
    the strictness level t; and the stretched coefficients
    ``phi c - (phi - 1) / m``, which sum to one and are non-negative once
    every c reaches t, rebuild the stretched point in coordinates of the
    menu's affine span up to the rounding allowance.  A menu whose span
    has rank 0 is a single point: all its span coordinates are zero, so
    the third test holds and the first two decide.  A row that is not
    accepted is undecided, not refuted: the search has to decide it.
    Padding enters no mean, no spread and no span: its spokes are zero.
    """
    present = (np.arange(gens.shape[1]) < sizes[:, None])[:, :, None]
    # coef is convex and the stretch at most 2, so no row whose norm is taken
    # below is more than 18 times as long as a row of the inputs' largest
    # coordinate; 32 leaves room for rounding.
    tame = _tame(points, 32.0) and _tame(gens, 32.0)
    origin = _centroid(gens, sizes)
    spokes = np.where(present, gens - origin[:, None, :], 0.0)
    q = points - origin
    gate, level, stretch = _interior_terms(sizes, _spread(q, spokes, tame), tol)
    rebuilt = np.einsum("km,kmd->kd", coef, spokes)
    accepted = (_row_norms(rebuilt - q, tame) <= _CERTIFICATE_SHARE * gate) & (
        np.where(present[:, :, 0], coef, np.inf).min(axis=1) >= level
    )

    # Each row's span: the right singular vectors of its centred menu up
    # to its numerical rank, the rest masked to zero so that every row
    # keeps the same shape.
    _, svals, vt = np.linalg.svd(spokes, full_matrices=False)
    span = vt * (np.arange(vt.shape[1]) < _numerical_ranks(svals, tol)[:, None])[:, :, None]
    flat = np.matmul(spokes, span.transpose(0, 2, 1))
    target = stretch[:, None] * np.matmul(span, q[:, :, None])[:, :, 0]
    flat_origin = flat.sum(axis=1) / sizes[:, None]
    flat_spokes = np.where(present, flat - flat_origin[:, None, :], 0.0)
    flat_q = target - flat_origin
    stretched = stretch[:, None] * coef - ((stretch - 1.0) / sizes)[:, None]
    miss = _row_norms(np.einsum("km,kmr->kr", stretched, flat_spokes) - flat_q, tame)
    return accepted & (miss <= _CERTIFICATE_SHARE * _FIT_EPS * _spread(flat_q, flat_spokes, tame))
