"""Affine and convex primitives with explicit floating-point tolerances.

Every numeric decision in the package (is this point on that segment, do
these outcomes span a plane, is this choice interior to its menu) funnels
through the handful of functions in this module, so the tolerance policy
lives here and nowhere else.  All comparisons use a two-parameter gate:
an absolute floor plus a relative term scaled by the magnitudes involved.

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
    DegenerateLine,
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
    "intersect_lines",
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

    def gate(self, *scales: float) -> float:
        """Comparison threshold for a residual at the given magnitudes."""
        s = max(scales) if scales else 0.0
        return max(self.abs_tol, self.rel_tol * s)

    @property
    def lam_slack(self) -> float:
        """Slack for dimensionless coefficients such as segment lambdas."""
        return max(self.abs_tol, self.rel_tol)

    def close(self, a: Vector, b: Vector) -> bool:
        """Euclidean closeness of two points under this gate."""
        return float(np.linalg.norm(a - b)) <= self.gate(
            float(np.linalg.norm(a)), float(np.linalg.norm(b))
        )


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


def _row_norms(rows: NDArray[np.float64]) -> Vector:
    """``np.linalg.norm`` of each row, bit for bit: one batched ``matmul``
    of each row with itself adds up as the single-vector dot does."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


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


def segment_coefficient(
    p: Vector, a: Vector, b: Vector, tol: Tolerance = DEFAULT_TOL
) -> SegmentPosition:
    """Locate ``p`` relative to the segment from ``a`` to ``b``.

    The coefficient is the orthogonal projection parameter
    ``lam = <p - b, a - b> / |a - b|^2`` and the residual is the distance
    from ``p`` to the projected point.  Coefficients within ``lam_slack``
    of [0, 1] are clamped into the interval; collinear points beyond that
    slack are reported as ON_LINE with the raw coefficient so callers can
    distinguish a violated mixture from an off-line point.
    """
    p = as_point(p)
    a = as_point(a)
    b = as_point(b)
    _common_dim(p, a, b)

    d = a - b
    length = float(np.linalg.norm(d))
    if length <= tol.abs_tol:
        common = 0.5 * (a + b)
        return SegmentPosition(
            kind=SegmentKind.DEGENERATE,
            lam=None,
            residual=float(np.linalg.norm(p - common)),
        )

    lam_raw = float(np.dot(p - b, d) / (length * length))
    projected = lam_raw * a + (1.0 - lam_raw) * b
    residual = float(np.linalg.norm(p - projected))
    g = tol.gate(length, float(np.linalg.norm(p - b)))

    if residual > g:
        return SegmentPosition(kind=SegmentKind.OFF_LINE, lam=lam_raw, residual=residual)

    slack = tol.lam_slack
    if -slack <= lam_raw <= 1.0 + slack:
        lam = min(1.0, max(0.0, lam_raw))
        return SegmentPosition(kind=SegmentKind.ON_SEGMENT, lam=lam, residual=residual)
    return SegmentPosition(kind=SegmentKind.ON_LINE, lam=lam_raw, residual=residual)


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
    slack = tol.lam_slack
    return pos.lam if slack < pos.lam < 1.0 - slack else None


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
    centered = mat - mat.mean(axis=0)
    return _numerical_rank(np.linalg.svd(centered, compute_uv=False), tol)


def _numerical_rank(svals: Vector, tol: Tolerance) -> int:
    """Singular values above ``rel_tol`` times the largest, with ``abs_tol`` as floor."""
    if svals.size == 0:
        return 0
    thresh = max(tol.abs_tol, tol.rel_tol * float(svals[0]))
    return int(np.count_nonzero(svals > thresh))


def intersect_lines(
    a1: Vector,
    a2: Vector,
    b1: Vector,
    b2: Vector,
    tol: Tolerance = DEFAULT_TOL,
) -> Vector | None:
    """Unique intersection point of two infinite lines, or None.

    Each line is given by two distinct points (DegenerateLine otherwise).
    The closest points of the two lines are found by least squares; the
    intersection exists when they coincide within the gate.  Parallel or
    identical lines, and skew lines in dimension three or more, return
    None.  The result is symmetric in the two lines and in the order of
    each line's defining points, up to floating error.
    """
    a1 = as_point(a1)
    a2 = as_point(a2)
    b1 = as_point(b1)
    b2 = as_point(b2)
    _common_dim(a1, a2, b1, b2)

    d1 = a2 - a1
    d2 = b2 - b1
    len1 = float(np.linalg.norm(d1))
    len2 = float(np.linalg.norm(d2))
    if len1 <= tol.abs_tol or len2 <= tol.abs_tol:
        raise DegenerateLine("each line needs two distinct defining points")

    # Solve min |a1 + s*d1 - (b1 + t*d2)| over (s, t).
    m = np.column_stack([d1, -d2])
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= max(tol.abs_tol, tol.rel_tol * float(svals[0])):
        return None  # parallel or identical directions: no unique point
    st, *_ = np.linalg.lstsq(m, b1 - a1, rcond=None)
    p_on_a = a1 + st[0] * d1
    p_on_b = b1 + st[1] * d2
    gap = float(np.linalg.norm(p_on_a - p_on_b))
    scale = max(
        float(np.linalg.norm(p_on_a)), float(np.linalg.norm(p_on_b)), len1, len2
    )
    if gap > tol.gate(scale):
        return None  # skew lines
    return 0.5 * (p_on_a + p_on_b)


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
    if affine_dimension(pts, tol) != len(pts) - 1:
        raise AffinelyDependentBasis(
            f"{len(pts)} basis points span an affine space of dimension "
            f"{affine_dimension(pts, tol)}"
        )

    origin = pts[0]
    if len(pts) == 1:
        coef = np.array([1.0])
    else:
        mat = np.column_stack([q - origin for q in pts[1:]])
        rest, *_ = np.linalg.lstsq(mat, p - origin, rcond=None)
        coef = np.concatenate([[1.0 - float(np.sum(rest))], rest])

    reconstructed = np.vstack(pts).T @ coef
    residual = float(np.linalg.norm(reconstructed - p))
    scale = max(float(np.linalg.norm(p)), *(float(np.linalg.norm(q)) for q in pts))
    if residual > tol.gate(scale, 1.0):
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


def _hull_fit(p: Vector, gens: NDArray[np.float64]) -> tuple[Vector, float, float]:
    """Best convex fit of ``p`` by the rows of ``gens``.

    The fit runs about the generators' centroid o, where generators that
    are close together far from the origin no longer look parallel: one
    NNLS solve of ``[(G - o)^T; s 1^T] c = [p - o; s]``, with ``s`` the
    largest norm among the centred point and generators, renormalised to
    sum to one.  Returns the coefficients, the distance from ``p`` to the
    point they rebuild (infinite when the solve returns no mass), and
    ``s``.  The distance is measured afresh, so it bounds the distance
    from ``p`` to the hull whatever the solver did.
    """
    origin = gens.mean(axis=0)
    q = p - origin
    spokes = gens - origin
    spread = max(float(np.linalg.norm(q)), float(np.linalg.norm(spokes, axis=1).max()))
    row = spread if spread > 0.0 else 1.0  # p on a one-point hull: weigh the sum alone
    system = np.vstack([spokes.T, np.full((1, gens.shape[0]), row)])
    coef = _nnls(system, np.append(q, row))
    total = float(coef.sum())
    if total <= 0.0:
        return coef, np.inf, spread
    coef /= total
    return coef, float(np.linalg.norm(spokes.T @ coef - q)), spread


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
    if residual > tol.gate(spread, 1.0):
        raise NotInConvexHull("point is outside the convex hull of the generators")

    m = gens.shape[0]
    centroid = np.mean(gens, axis=0)
    centered = gens - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    span = vt[: _numerical_rank(svals, tol)]
    if span.shape[0] == 0:
        return True  # the hull is a single point and equals its relative interior

    level = _RELINT_MARGIN * tol.lam_slack
    if m * level >= 0.5:
        level = 0.5 / m  # keep the stretch factor finite for huge tolerances
    stretched = (1.0 + m * level / (1.0 - m * level)) * (span @ (p - centroid))
    _, residual, spread = _hull_fit(stretched, centered @ span.T)
    return residual <= _FIT_EPS * spread
