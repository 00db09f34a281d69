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

import itertools
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

Vector = NDArray[np.float64]

DEFAULT_ABS_TOL = 1e-9
DEFAULT_REL_TOL = 1e-9

# Strictness amplifier for the relative-interior test.  The interior margin
# must dominate the membership gates used inside the test itself, otherwise
# the two tolerances fight at the same scale on points exactly on a face.
_RELINT_MARGIN = 1e3


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
    svals = np.linalg.svd(centered, compute_uv=False)
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


def _convex_decomposition(
    p: Vector,
    generators: list[Vector],
    tol: Tolerance,
    coeff_slack: float,
) -> Vector | None:
    """Convex coefficients of ``p`` over the generators, or None.

    Searches affinely independent generator subsets of size at most
    (affine dimension + 1); by the classical decomposition bound, membership
    in the hull is equivalent to membership in the hull of such a subset.
    Coefficients as low as ``-coeff_slack`` are accepted and clamped.
    Returns a full-length coefficient vector (zeros off the subset).
    """
    m = len(generators)
    hull_dim = affine_dimension(generators, tol)
    for size in range(1, min(m, hull_dim + 1) + 1):
        for idx in itertools.combinations(range(m), size):
            subset = [generators[i] for i in idx]
            if affine_dimension(subset, tol) != size - 1:
                continue
            try:
                coef = barycentric(p, subset, tol)
            except (NotInAffineHull, AffinelyDependentBasis):
                continue
            if np.all(coef >= -coeff_slack):
                full = np.zeros(m)
                full[list(idx)] = np.clip(coef, 0.0, None)
                s = float(full.sum())
                if s > 0:
                    full /= s
                return full
    return None


def convex_coefficients(
    p: Vector,
    generators: Sequence[Sequence[float] | Vector],
    tol: Tolerance = DEFAULT_TOL,
) -> Vector | None:
    """Convex-combination coefficients of ``p`` over ``generators``.

    Returns an array of non-negative coefficients summing to one, with
    zeros allowed, or None when ``p`` is outside the convex hull beyond
    tolerance.
    """
    gens = [as_point(g) for g in generators]
    if not gens:
        raise ValueError("convex_coefficients needs at least one generator")
    p = as_point(p)
    _common_dim(p, *gens)
    scale = max(float(np.linalg.norm(p)), *(float(np.linalg.norm(g)) for g in gens))
    return _convex_decomposition(p, gens, tol, coeff_slack=tol.gate(scale, 1.0))


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
    The strictness level is ``lam_slack`` amplified by a fixed margin so
    that it dominates the membership gates; points on a proper face fail,
    interior points with sensible clearance pass.

    Raises NotInConvexHull when ``p`` is not in the hull at all.
    """
    gens = [as_point(g) for g in generators]
    if not gens:
        raise ValueError("relative_interior_check needs at least one generator")
    p = as_point(p)
    _common_dim(p, *gens)

    if convex_coefficients(p, gens, tol) is None:
        raise NotInConvexHull("point is outside the convex hull of the generators")

    m = len(gens)
    if m == 1:
        return True  # the hull is a single point and equals its relative interior

    level = _RELINT_MARGIN * tol.lam_slack
    if m * level >= 0.5:
        level = 0.5 / m  # keep the stretch factor finite for huge tolerances
    centroid = np.mean(np.vstack(gens), axis=0)
    stretched = p + (m * level / (1.0 - m * level)) * (p - centroid)
    return _convex_decomposition(stretched, gens, tol, coeff_slack=0.0) is not None
