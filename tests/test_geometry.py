"""Geometry primitives: tolerances, segments, hulls, and interiors."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggkit import (
    SegmentKind,
    Tolerance,
    affine_dimension,
    as_point,
    barycentric,
    convex_coefficients,
    relative_interior_check,
    segment_coefficient,
)
from aggkit.errors import (
    AffinelyDependentBasis,
    DimensionMismatch,
    NotInAffineHull,
    NotInConvexHull,
)
from aggkit import geometry
from aggkit.geometry import DEFAULT_TOL, SegmentPosition, _certify_interior, _close_rows, _norm, _row_norms, interior_lambda


class TestTolerance:
    def test_gate_uses_largest_scale(self):
        tol = Tolerance(abs_tol=1e-9, rel_tol=1e-6)
        assert tol.gate(1.0) == pytest.approx(1e-6)
        assert tol.gate(100.0, 1.0) == pytest.approx(1e-4)
        assert tol.gate(0.0) == pytest.approx(1e-9)

    def test_close_is_symmetric_and_scaled(self):
        tol = Tolerance()
        a = np.array([1.0, 2.0])
        assert tol.close(a, a + 1e-12)
        assert not tol.close(a, a + 1e-6)
        big = np.array([1e9, 0.0])
        assert tol.close(big, big + np.array([0.5, 0.0]))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize(
        "tol", [Tolerance(), Tolerance(1e-3, 1e-6), Tolerance(0.0, 1e-9)], ids=["default", "loose", "relative"]
    )
    def test_close_rows_is_close_row_by_row(self, dim, tol):
        # Seeded pairs of every magnitude, gaps near and far from the gate,
        # points far from the origin, zero rows and equal rows.
        rng = np.random.default_rng(dim)
        scale = 10.0 ** rng.integers(-12, 13, size=(300, 1))
        a = rng.normal(size=(300, dim)) * scale
        b = a + rng.normal(size=(300, dim)) * scale * 10.0 ** rng.integers(-12, 1, size=(300, 1))
        far = 1e9 + rng.normal(size=(40, dim))
        zero = np.zeros((4, dim))
        near_zero = np.zeros((4, dim))
        near_zero[:, 0] = [0.0, 5e-10, 1e-9, 2e-9]
        a = np.vstack([a, far, far, zero, zero, a[:5]])
        b = np.vstack([b, far + 1e-1 * rng.normal(size=(40, dim)), far + 1.0, zero, near_zero, a[:5]])
        got = _close_rows(a, b, tol)
        want = [tol.close(x, y) for x, y in zip(a, b)]
        assert got.tolist() == want
        assert any(want) and not all(want)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1.0)
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)
        # One of the two may be zero.
        assert Tolerance(rel_tol=0.0).gate(1e9) == pytest.approx(1e-9)


@st.composite
def rows_of_any_magnitude(draw):
    """A few rows whose coordinates range from subnormal to near the largest float."""
    d = draw(st.integers(1, 4))
    scale = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e150, 1e154, 1e200, 1e300, 1e307, 8e307])
    cells = st.builds(lambda s, x: s * x, scale, st.floats(-1.7, 1.7))
    return np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=5)))


class TestOverflowFreeNorms:
    @settings(max_examples=300, deadline=None)
    @given(rows_of_any_magnitude())
    def test_finite_rows_have_finite_norms(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _row_norms(rows)
        for row, norm in zip(rows, got.tolist()):
            with np.errstate(over="ignore"):
                plain = float(np.linalg.norm(row))
            if math.isfinite(plain):  # the plain norm, bit for bit, where it is finite
                assert norm == plain and _norm(row) == plain
            else:  # else the row over its largest magnitude
                top = float(np.abs(row).max())
                assert norm == top * float(np.linalg.norm(row / top))
                assert math.isfinite(norm) == (norm <= np.finfo(float).max)
                assert norm == pytest.approx(math.hypot(*row.tolist()), rel=1e-12)

    def test_non_finite_rows_keep_their_norms(self):
        rows = np.array([[np.inf, 1.0], [np.nan, 1e300], [-np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _row_norms(rows)
        assert got[0] == np.inf and np.isnan(got[1]) and np.isnan(got[2])

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_segment_of_huge_points(self, scale):
        # The squared length overflows; lambda and the residual scale with the points.
        a, b, p = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.25, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pos = segment_coefficient(p * scale, a * scale, b * scale)
        assert pos.kind is SegmentKind.ON_SEGMENT
        assert pos.lam == pytest.approx(0.75)
        assert pos.residual <= 1e-9 * scale


def _tame_calls(fn, *args, force=None):
    """``fn(*args)`` and the number of ``_tame`` tests it ran; with ``force``
    set, every test gives that verdict."""
    calls = []
    real = geometry._tame

    def counted(x, growth=1.0):
        calls.append(growth)
        return real(x, growth) if force is None else force

    with mock.patch.object(geometry, "_tame", counted), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args), len(calls)


_KERNEL_SCALES = st.sampled_from([1.0, 1e140, 3e148, 1e150, 1e154, 1e200, 1e300, 5e307])


class TestTameOncePerKernel:
    """A kernel tests each input with ``_tame`` once and hands the verdict to
    every norm it takes; the careful path everywhere gives the same answer."""

    @settings(max_examples=200, deadline=None)
    @given(rows_of_any_magnitude(), st.floats(-1.5, 1.5), _KERNEL_SCALES)
    def test_close_rows(self, rows, shift, scale):
        with np.errstate(over="ignore"):
            other = np.clip(rows * shift + scale * np.sign(rows), -4e307, 4e307)  # a - b stays finite
        got, calls = _tame_calls(_close_rows, rows, other, DEFAULT_TOL)
        careful, _ = _tame_calls(_close_rows, rows, other, DEFAULT_TOL, force=False)
        assert calls <= 2 and got.tolist() == careful.tolist()
        assert got.tolist() == [DEFAULT_TOL.close(a, b) for a, b in zip(rows, other)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), _KERNEL_SCALES)
    def test_certify_interior(self, seed, m, d, scale):
        rng = np.random.default_rng(seed)
        gens = rng.uniform(-1.0, 1.0, (6, m, d)) * scale
        coef = rng.uniform(0.05, 1.0, (6, m))
        coef /= coef.sum(axis=1, keepdims=True)
        points = np.einsum("km,kmd->kd", coef, gens)
        points[::2] += rng.normal(0.0, 1e-10, (3, d)) * scale
        got, calls = _tame_calls(_certify_interior, points, gens, coef, DEFAULT_TOL)
        careful, _ = _tame_calls(_certify_interior, points, gens, coef, DEFAULT_TOL, force=False)
        assert calls <= 2 and got.tolist() == careful.tolist()


class TestAsPoint:
    def test_converts_lists(self):
        p = as_point([1.0, 2.0])
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, [1.0, 2.0])
        with pytest.raises(ValueError):
            as_point([])
        with pytest.raises(ValueError):
            as_point([[1.0, 2.0]])

    def test_dimension_enforced(self):
        with pytest.raises(DimensionMismatch):
            as_point([1.0, 2.0], dim=3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_point([1.0, float("nan")])


class TestSegmentCoefficient:
    def test_interior_point(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 1.0])
        pos = segment_coefficient(0.25 * a + 0.75 * b, a, b)
        assert pos.kind is SegmentKind.ON_SEGMENT
        assert pos.lam == pytest.approx(0.25, abs=1e-12)
        assert pos.on_segment

    def test_endpoints_clamp(self):
        a = np.array([2.0, 0.0])
        b = np.array([0.0, 2.0])
        assert segment_coefficient(a, a, b).lam == pytest.approx(1.0)
        assert segment_coefficient(b, a, b).lam == pytest.approx(0.0)

    def test_collinear_outside_is_on_line(self):
        a = np.array([0.0])
        b = np.array([1.0])
        pos = segment_coefficient(np.array([2.0]), a, b)
        assert pos.kind is SegmentKind.ON_LINE
        assert not pos.on_segment

    def test_off_line_detected(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 0.0])
        pos = segment_coefficient(np.array([0.5, 0.3]), a, b)
        assert pos.kind is SegmentKind.OFF_LINE
        assert pos.residual == pytest.approx(0.3)

    def test_degenerate_segment(self):
        a = np.array([1.0, 1.0])
        pos = segment_coefficient(a, a, a)
        assert pos.kind is SegmentKind.DEGENERATE
        assert pos.residual == pytest.approx(0.0)
        far = segment_coefficient(np.array([2.0, 1.0]), a, a)
        assert far.kind is SegmentKind.DEGENERATE
        assert far.residual == pytest.approx(1.0)

    def test_random_mixtures_recovered(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            if np.linalg.norm(a - b) < 1e-3:
                continue
            lam = float(rng.uniform(0.0, 1.0))
            pos = segment_coefficient(lam * a + (1 - lam) * b, a, b)
            assert pos.kind is SegmentKind.ON_SEGMENT
            assert pos.lam == pytest.approx(lam, abs=1e-9)

    def test_random_off_line_points_flagged(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            seg = b - a
            if np.linalg.norm(seg) < 1e-3:
                continue
            # Build a unit vector orthogonal to the segment.
            probe = rng.normal(size=dim)
            perp = probe - (probe @ seg) / (seg @ seg) * seg
            if np.linalg.norm(perp) < 1e-6:
                continue
            perp /= np.linalg.norm(perp)
            p = 0.5 * (a + b) + 0.01 * perp
            pos = segment_coefficient(p, a, b)
            assert pos.kind is SegmentKind.OFF_LINE
            assert pos.residual == pytest.approx(0.01, rel=1e-6)


SLACK = Tolerance().lam_slack


class TestInteriorLambda:
    @pytest.mark.parametrize(
        "kind, lam, expected",
        [
            (SegmentKind.ON_SEGMENT, 0.5, 0.5),
            (SegmentKind.ON_SEGMENT, SLACK, None),
            (SegmentKind.ON_SEGMENT, 1.0 - SLACK, None),
            (SegmentKind.ON_SEGMENT, np.nextafter(SLACK, 1.0), np.nextafter(SLACK, 1.0)),
            (
                SegmentKind.ON_SEGMENT,
                np.nextafter(1.0 - SLACK, 0.0),
                np.nextafter(1.0 - SLACK, 0.0),
            ),
            (SegmentKind.ON_SEGMENT, 0.0, None),
            (SegmentKind.ON_SEGMENT, 1.0, None),
            (SegmentKind.ON_LINE, 0.5, None),
            (SegmentKind.ON_LINE, 1.5, None),
            (SegmentKind.OFF_LINE, 0.5, None),
            (SegmentKind.DEGENERATE, None, None),
        ],
    )
    def test_boundary_table(self, kind, lam, expected):
        pos = SegmentPosition(kind=kind, lam=lam, residual=0.0)
        assert interior_lambda(pos, Tolerance()) == expected

    def test_reads_segment_coefficient(self):
        a, b = np.array([0.0, 0.0]), np.array([4.0, 0.0])
        assert interior_lambda(segment_coefficient([1.0, 0.0], a, b)) == pytest.approx(0.75)
        assert interior_lambda(segment_coefficient([0.0, 0.0], a, b)) is None
        assert interior_lambda(segment_coefficient([6.0, 0.0], a, b)) is None
        assert interior_lambda(segment_coefficient([1.0, 1.0], a, b)) is None
        assert interior_lambda(segment_coefficient([1.0, 0.0], a, a)) is None

    def test_slack_follows_the_tolerance(self):
        pos = SegmentPosition(kind=SegmentKind.ON_SEGMENT, lam=1e-4, residual=0.0)
        assert interior_lambda(pos, Tolerance()) == 1e-4
        assert interior_lambda(pos, Tolerance(abs_tol=1e-3, rel_tol=1e-3)) is None


class TestAffineDimension:
    def test_small_cases(self):
        assert affine_dimension([np.array([1.0, 2.0])]) == 0
        assert affine_dimension([np.array([0.0, 0.0]), np.array([1.0, 1.0])]) == 1
        tri = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert affine_dimension(tri) == 2

    def test_duplicates_do_not_inflate(self):
        p = np.array([3.0, 4.0])
        assert affine_dimension([p, p, p]) == 0

    def test_collinear_triples(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([2.0, 4.0])]
        assert affine_dimension(pts) == 1


class TestBarycentric:
    def test_triangle_coordinates(self):
        basis = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        coef = barycentric(np.array([0.2, 0.3]), basis)
        np.testing.assert_allclose(coef, [0.5, 0.2, 0.3], atol=1e-12)
        assert coef.sum() == pytest.approx(1.0)

    def test_dependent_basis_rejected(self):
        basis = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        with pytest.raises(AffinelyDependentBasis):
            barycentric(np.array([0.5, 0.5]), basis)

    def test_point_off_hull_rejected(self):
        basis = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])]
        with pytest.raises(NotInAffineHull):
            barycentric(np.array([0.0, 1.0, 0.0]), basis)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(2, dim + 2))
            basis = [rng.normal(size=dim) for _ in range(k)]
            if affine_dimension(basis) < k - 1:
                continue
            coef = rng.dirichlet(np.ones(k)) * 2.0 - 0.5 / k
            coef = coef / coef.sum()
            p = sum(c * b for c, b in zip(coef, basis))
            got = barycentric(p, basis)
            rebuilt = sum(c * b for c, b in zip(got, basis))
            np.testing.assert_allclose(rebuilt, p, atol=1e-8)


class TestConvexCoefficients:
    def test_inside_triangle(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        coef = convex_coefficients(np.array([0.25, 0.25]), gens)
        assert coef is not None
        assert np.all(np.asarray(coef) >= -1e-12)
        assert np.sum(coef) == pytest.approx(1.0)
        rebuilt = sum(c * g for c, g in zip(coef, gens))
        np.testing.assert_allclose(rebuilt, [0.25, 0.25], atol=1e-9)

    def test_outside_returns_none(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        assert convex_coefficients(np.array([0.5, 0.5]), gens) is None
        assert convex_coefficients(np.array([2.0, 0.0]), gens) is None

    def test_vertex_and_edge_points(self):
        gens = [np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 2.0])]
        assert convex_coefficients(np.array([0.0, 0.0]), gens) is not None
        assert convex_coefficients(np.array([1.0, 1.0]), gens) is not None

    def test_redundant_generators(self):
        gens = [
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([0.5, 0.0]),
            np.array([0.0, 1.0]),
        ]
        coef = convex_coefficients(np.array([0.4, 0.2]), gens)
        assert coef is not None
        assert len(coef) == len(gens)


class TestRelativeInterior:
    def test_interior_of_triangle(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert relative_interior_check(np.array([0.2, 0.2]), gens)

    def test_vertex_is_not_interior(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert not relative_interior_check(np.array([0.0, 0.0]), gens)

    def test_edge_midpoint_is_not_interior(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert not relative_interior_check(np.array([0.5, 0.0]), gens)

    def test_single_generator(self):
        gens = [np.array([3.0, 3.0])]
        assert relative_interior_check(np.array([3.0, 3.0]), gens)

    def test_outside_raises(self):
        gens = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        with pytest.raises(NotInConvexHull):
            relative_interior_check(np.array([0.0, 1.0]), gens)

    def test_segment_interior_in_higher_dimension(self):
        gens = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])]
        assert relative_interior_check(np.array([0.5, 0.5, 0.5]), gens)
        assert not relative_interior_check(np.array([1.0, 1.0, 1.0]), gens)

    def test_small_menu_far_from_the_origin(self):
        # The stretch that tells a face from the interior is far below the
        # membership gate at this distance from the origin, and below the
        # absolute gate too, yet the menu is 1e5 tolerances across.
        offset = np.array([1e3, -2e3])
        gens = [offset, offset + [1e-4, 0.0], offset + [0.0, 1e-4]]
        assert not relative_interior_check(gens[0], gens)
        assert not relative_interior_check(0.5 * (gens[0] + gens[1]), gens)
        assert relative_interior_check(np.mean(gens, axis=0), gens)

    def test_gate_scales_with_the_menu_not_its_position(self):
        # A menu 1e-3 across at (1e6, 0): the point lies 7e-4 outside it,
        # far beyond any gate measured from the menu, but within a gate
        # measured from the origin (1e-9 * 1e6).
        offset = np.array([1e6, 0.0])
        gens = [offset, offset + [1e-3, 0.0], offset + [0.0, 1e-3]]
        outside = np.array([1e6 - 5e-4, -5e-4])
        assert convex_coefficients(outside, gens) is None
        with pytest.raises(NotInConvexHull):
            relative_interior_check(outside, gens)
        inside = offset + [3e-4, 3e-4]
        assert convex_coefficients(inside, gens) is not None
        assert relative_interior_check(inside, gens)

    def test_random_interior_points(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            gens = [rng.normal(size=3) for _ in range(4)]
            coef = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
            coef = coef / coef.sum()
            p = sum(c * g for c, g in zip(coef, gens))
            assert relative_interior_check(p, gens)
