"""Projectable sets and the lazy operator family.

The load-bearing oracle is the variational characterization of the
nearest point: p = P_C(x) iff p is in C and <x - p, c - p> <= 0 for all
c in C.  Each set type is probed against it with sampled feasible points.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.fixtures import axis_halfspace_family, random_halfspace_family, two_halfspace_family
from strav.numeric import _within, norm
from strav.operators import Identity, Primitive, Relaxation
from strav.sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    OperatorFamily,
)

RNG = np.random.default_rng(31)


def _orthonormal_rows(rows, dim, rng=RNG):
    q, _ = np.linalg.qr(rng.standard_normal((dim, rows)))
    return q.T[:rows]


def _sample_sets():
    basis = _orthonormal_rows(2, 4)
    return [
        Halfspace(RNG.standard_normal(4), 0.3),
        Hyperplane(RNG.standard_normal(4), -0.7),
        Ball(RNG.standard_normal(4), 1.5),
        Box(-np.ones(4), np.ones(4) * 2.0),
        AffineSubspace(basis, RNG.standard_normal(4)),
    ]


def _feasible_points(s, count=40):
    # projections of random points are feasible and spread over the boundary
    # region; mixing in midpoints reaches the interior
    pts = s.project(RNG.standard_normal((count, s.dim)) * 3.0)
    mids = 0.5 * (pts[: count // 2] + pts[count // 2 : 2 * (count // 2)])
    return np.vstack([pts, mids])


class TestVariationalCharacterization:
    @pytest.mark.parametrize("s", _sample_sets(), ids=lambda s: type(s).__name__)
    def test_projection_is_nearest(self, s):
        xs = RNG.standard_normal((30, s.dim)) * 3.0
        ps = s.project(xs)
        feas = _feasible_points(s)
        for x, p in zip(xs, ps):
            gaps = (feas - p) @ (x - p)
            assert gaps.max() <= 1e-9

    @pytest.mark.parametrize("s", _sample_sets(), ids=lambda s: type(s).__name__)
    def test_idempotent(self, s):
        xs = RNG.standard_normal((20, s.dim)) * 3.0
        ps = s.project(xs)
        assert_allclose(s.project(ps), ps, atol=1e-12)

    @pytest.mark.parametrize("s", _sample_sets(), ids=lambda s: type(s).__name__)
    def test_distance_matches_projection_gap(self, s):
        xs = RNG.standard_normal((20, s.dim)) * 3.0
        want = np.linalg.norm(s.project(xs) - xs, axis=1)
        assert_allclose(s.distance(xs), want, atol=1e-12)

    @pytest.mark.parametrize("s", _sample_sets(), ids=lambda s: type(s).__name__)
    def test_members_untouched(self, s):
        feas = _feasible_points(s)
        moved = np.linalg.norm(s.project(feas) - feas, axis=1)
        assert moved.max() <= 1e-9


class TestHalfspace:
    def test_projection_formula(self):
        a = np.array([3.0, 4.0])
        s = Halfspace(a, 5.0)
        x = np.array([4.0, 3.0])  # <a, x> = 24, excess 19
        assert_allclose(s.project(x), x - 19.0 / 25.0 * a, rtol=1e-15)

    def test_interior_point_bitwise_unchanged(self):
        s = Halfspace([1.0, 0.0], 1.0)
        x = np.array([0.123456789, 7.89])
        assert_array_equal(s.project(x), x)
        assert s.distance(x) == 0.0

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    def test_overflowing_normal_rejected_without_warning(self, cls):
        # |a|^2 = 1e616 overflows; the set used to build and project to NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                cls([1e308, 0.0], 0.0)

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected_without_warning(self, cls, b):
        # a NaN offset projected every point to NaN; an infinite one is an empty set or
        # the whole space, and projected [5, 1] to [+-inf, nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{cls.__name__.lower()} offset must be finite, got {b}"):
                cls([1.0, 0.0], b)

    def test_inactive_point_returns_its_values(self):
        s = Halfspace([1.0, -2.0, 0.5], 0.25)
        x = np.array([-3.0, 1.5, 0.7])
        p = s.project(x)
        assert_array_equal(p, x)
        assert Primitive(s, gamma=0.6).apply(x).tobytes() == x.tobytes()


def _row_formula(s, x):
    """``project``'s formula for a row of a batch, applied to one point."""
    offset = x @ s.a - s.b
    if isinstance(s, Halfspace):
        offset = np.maximum(offset, 0.0)
    return x - ((offset / s._asq)[..., None] * s.a + 0.0)


class TestSinglePointProjection:
    """One point takes one dot product, with the batch rows' IEEE arithmetic."""

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_the_row_formula(self, cls, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 30))
        s = cls(rng.standard_normal(dim), float(rng.standard_normal()))
        # an axis-aligned set has exact boundary points: <a, x> = b exactly
        axis = cls(np.eye(dim)[0] * 2.0, 1.0)
        points = [(s, x) for x in rng.standard_normal((40, dim)) * 3.0]
        points += [(axis, np.concatenate(([v], rng.standard_normal(dim - 1))))
                   for v in (-1.5, 0.5, 2.5)]  # inside, on the boundary, outside
        for t, x in points:
            assert t.project(x).tobytes() == _row_formula(t, x).tobytes()

    def test_hyperplane_moves_points_on_both_sides(self):
        s = Hyperplane([0.0, 2.0], 1.0)
        for x in ([3.0, -1.0], [3.0, 4.0]):
            p = s.project(np.array(x))
            assert p[1] == 0.5 and p[0] == 3.0


class TestSignedZeros:
    """A batch row already in the set comes back bitwise, -0.0 coordinates included."""

    @staticmethod
    def _check(s, x):
        assert s.project(x).tobytes() == x.tobytes()
        for row, projected in zip(x, s.project(x)):
            assert s.project(row).tobytes() == projected.tobytes()

    def test_halfspace_inactive_rows(self):
        # a_1 < 0: the zero offset of an inactive row times a_1 is -0.0
        s = Halfspace([1.0, -2.0, 0.5], 0.25)
        x = np.array([[-0.0, -0.0, -0.0], [-3.0, -0.0, 1.5], [-0.0, 1.5, -0.0]])
        self._check(s, x)

    def test_hyperplane_rows_at_zero_offset(self):
        # <a, x> = b = 0 exactly on every row
        s = Hyperplane([1.0, -2.0, 0.5], 0.0)
        x = np.array([[-0.0, -0.0, -0.0], [2.0, 1.0, -0.0], [-1.0, -0.0, 2.0], [-0.0, 0.25, 1.0]])
        self._check(s, x)


class TestHyperplane:
    def test_lands_on_plane(self):
        a = RNG.standard_normal(3)
        s = Hyperplane(a, 2.0)
        xs = RNG.standard_normal((10, 3)) * 4.0
        assert_allclose(s.project(xs) @ a, 2.0, atol=1e-12)

    def test_two_sided(self):
        s = Hyperplane([0.0, 1.0], 0.0)
        assert s.distance(np.array([0.0, 3.0])) == 3.0
        assert s.distance(np.array([0.0, -3.0])) == 3.0


class TestBall:
    def test_outside_lands_on_sphere(self):
        s = Ball(np.zeros(2), 2.0)
        p = s.project(np.array([6.0, 8.0]))
        assert_allclose(p, [1.2, 1.6], rtol=1e-15)

    def test_inside_bitwise_unchanged(self):
        s = Ball(np.ones(2), 1.0)
        x = np.array([1.25, 0.75])
        assert_array_equal(s.project(x), x)

    def test_center_fixed(self):
        c = np.array([1.0, -2.0])
        assert_array_equal(Ball(c, 0.5).project(c.copy()), c)

    def test_a_point_near_the_center_of_a_huge_ball_is_kept_without_overflow(self):
        # radius / distance overflows there; the pull factor is formed only outside
        s = Ball(np.zeros(2), 1e308)
        xs = np.array([[1e-10, 0.0], [0.0, 0.0], [3.0, -4.0]])
        assert_array_equal(s.project(xs), xs)
        assert_array_equal(s.project(xs[0]), xs[0])
        assert_array_equal(s.distance(xs), np.zeros(3))

    def test_a_far_point_projects_to_the_sphere_without_overflow(self):
        # ||x - center||^2 overflows there: the row pulls along x - center over its largest entry
        s = Ball([0.0, 0.0, 0.2], 1.0)
        assert_allclose(s.project([1e308, 1e308, 0.0]), [0.5**0.5, 0.5**0.5, 0.2], rtol=1e-15)
        assert_allclose(Ball(np.zeros(2), 10.0).project([-1e308, 3e307]), [-10.0, 3.0] / np.hypot(1.0, 0.3), rtol=1e-15)

    def test_a_far_row_leaves_the_other_rows_their_bits(self):
        s = Ball([0.0, 0.0, 0.2], 1.0)
        near = np.random.default_rng(4).standard_normal((5, 3)) * [[1.0], [0.1], [1e150], [3.0], [0.5]]
        got = s.project(np.vstack([near[:2], [[1e308, 1e308, 0.0]], near[2:]]))
        assert_allclose(got[2], [0.5**0.5, 0.5**0.5, 0.2], rtol=1e-15)
        kept = np.delete(got, 2, axis=0)
        assert kept.tobytes() == s.project(near).tobytes()
        assert kept.tobytes() == np.array([s.project(x) for x in near]).tobytes()

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):  # a NaN radius projected nothing: the whole space
            Ball(np.zeros(2), np.nan)
        # an infinite radius is the whole space, a closed convex set
        assert Ball(np.zeros(2), np.inf).project(np.array([5.0, 5.0])).tolist() == [5.0, 5.0]


class TestBox:
    def test_clip_oracle(self):
        lo, hi = -np.ones(3), np.array([1.0, 2.0, 3.0])
        s = Box(lo, hi)
        xs = RNG.standard_normal((25, 3)) * 4.0
        assert_array_equal(s.project(xs), np.clip(xs, lo, hi))

    def test_bounds_ordered(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0, -1.0])


class TestAffineSubspace:
    def test_residual_orthogonal_to_basis(self):
        basis = _orthonormal_rows(2, 5)
        off = RNG.standard_normal(5)
        s = AffineSubspace(basis, off)
        x = RNG.standard_normal(5) * 3.0
        p = s.project(x)
        assert_allclose(basis @ (x - p), 0.0, atol=1e-10)

    def test_offset_fixed(self):
        basis = _orthonormal_rows(1, 3)
        off = RNG.standard_normal(3)
        s = AffineSubspace(basis, off)
        assert_allclose(s.project(off), off, atol=1e-12)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            AffineSubspace([[1.0, 1.0, 0.0]], np.zeros(3))

    @pytest.mark.parametrize("basis", [[1.0, 0.0, 0.0], np.zeros((0, 3))])
    def test_basis_not_a_nonempty_matrix_rejected(self, basis):
        with pytest.raises(ValueError, match="nonempty 2-D array"):
            AffineSubspace(basis, np.zeros(3))


class TestDimChecks:
    def test_projection_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            Halfspace([1.0, 0.0], 0.0).project(np.zeros(3))

    def test_distance_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            Ball(np.zeros(2), 1.0).distance(np.zeros(4))


class TestOperatorFamily:
    def _family(self, gamma=None):
        def generator(n):
            a = np.zeros(3)
            a[n % 3] = 1.0
            h = Halfspace(a, float(n + 1))
            return h if gamma is None else Primitive(h, gamma(n))

        return OperatorFamily(generator, np.zeros(3))

    def test_memoization(self):
        fam = self._family()
        assert fam.operator(2) is fam.operator(2)
        assert fam.materialized == [2]

    def test_wraps_sets_as_projections(self):
        fam = self._family()
        op = fam.operator(0)
        assert isinstance(op, Primitive)
        assert op.gamma == 1.0

    def test_generator_relaxes_its_own_leaves(self):
        fam = self._family(gamma=lambda n: 0.5 + 0.1 * n)
        assert fam.operator(1).gamma == 0.6

    def test_size_of_a_finite_family_only(self):
        assert self._family().size is None
        assert OperatorFamily.from_sets([Halfspace([1.0, 0.0], 0.0)] * 3, np.zeros(2)).size == 3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="family-error"):
            self._family().operator(-1)

    def test_witness_violation_is_construction_error(self):
        fam = OperatorFamily(lambda n: Halfspace([1.0, 0.0], -1.0), np.zeros(2))
        with pytest.raises(ValueError, match="family-error"):
            fam.operator(0)

    def test_generator_junk_rejected(self):
        fam = OperatorFamily(lambda n: "nope", np.zeros(2))
        with pytest.raises(ValueError, match="family-error"):
            fam.operator(0)

    def test_generator_exception_wrapped(self):
        def generator(n):
            raise KeyError(n)

        fam = OperatorFamily(generator, np.zeros(2))
        with pytest.raises(ValueError, match="family-error"):
            fam.operator(5)

    def test_dimension_mismatch_across_family(self):
        fam = OperatorFamily(lambda n: Halfspace(np.ones(n + 1), 1.0), np.zeros(2))
        fam.operator(1)
        with pytest.raises(ValueError, match="family-error"):
            fam.operator(2)

    def test_identity_pad_distance_zero(self):
        fam = OperatorFamily(lambda n: Identity(), np.zeros(2))
        assert fam.distance(0, np.array([5.0, 5.0])) == 0.0

    def test_check_common_point(self):
        fam = self._family()
        fam.operator(0)
        fam.operator(1)
        assert fam.check_common_point(np.zeros(3))
        assert not fam.check_common_point(np.array([9.0, 9.0, 9.0]))

    def test_a_nan_residual_fails_the_common_point(self):
        # the node fixes the origin and maps every other point to NaN, so it does not fix
        # (-1, 0), which x_1 <= 0 holds; a fold by max() once dropped its NaN residual
        class NaNAway(Identity):
            def apply(self, x):
                x = np.asarray(x, dtype=float)
                return x if not x.any() else np.full_like(x, np.nan)

        for members in ([Halfspace([1.0, 0.0], 0.0), NaNAway()], [NaNAway()]):
            fam = OperatorFamily.from_sets(members, np.zeros(2))
            for n in range(len(members)):
                fam.operator(n)
            assert np.isnan(fam.operator(len(members) - 1).residual([-1.0, 0.0]))
            assert fam.check_common_point(np.zeros(2))
            assert not fam.check_common_point([-1.0, 0.0])

    def test_a_residual_that_overflows_fails_the_common_point_without_warning(self):
        # x_1 <= -1e154 moves (1e154, 0) by 2e154, whose square overflows in the residual's norm
        fam = OperatorFamily.from_sets([Halfspace([1.0, 0.0], -1e154)], [-1e154, 0.0])
        fam.operator(0)
        assert not fam.check_common_point([1e154, 0.0])
        assert fam.check_common_point([-1e154, 0.0])

    def test_a_point_whose_norm_overflows_is_refused_by_name(self):
        # x_1 <= 0 fixes (-1e160, 0), but no scale judges it: refused, with no numpy warning
        fam = OperatorFamily.from_sets([Halfspace([1.0, 0.0], 0.0)], np.zeros(2))
        fam.operator(0)
        with pytest.raises(ValueError, match="^witness-not-fixed: the norm of z overflows$"):
            fam.check_common_point([-1e160, 0.0])
        assert fam.check_common_point([-1e150, 0.0])

    def test_overflowing_witness_is_a_family_error(self):
        # ||(1e308, 1e308)|| overflows: every audit at that scale used to pass,
        # so operator 0 materialized and the witness counted as a common point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="family-error"):
                OperatorFamily.from_sets([Halfspace([1.0, 0.0], 0.0)], [1e308, 1e308])

    def test_from_sets_size_and_bounds(self):
        fam = OperatorFamily.from_sets(
            [Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)], np.zeros(2)
        )
        assert fam.size == 2
        fam.operator(1)
        with pytest.raises(ValueError, match="family-error"):
            fam.operator(2)


class TestFamilyDistances:
    """``distances`` against the per-set oracle ``[family.distance(n, x)]``."""

    @staticmethod
    def _oracle(fam, indices, x):
        return np.array([fam.distance(n, x) for n in indices])

    def test_axis_family_bitwise(self):
        fam = axis_halfspace_family(5)
        indices = tuple(range(21))
        for x in np.random.default_rng(40).standard_normal((50, 5)) * 3.0:
            assert_array_equal(fam.distances(indices, x), self._oracle(fam, indices, x))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_general_normals_agree_to_rounding(self, seed):
        fam = random_halfspace_family(20, 60, seed)
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-3, 7, size=(30, 1))
        for x in rng.standard_normal((30, 20)) * scales:
            got = fam.distances(range(60), x)
            assert np.all(_within(np.abs(got - self._oracle(fam, range(60), x)), norm(x)))

    @staticmethod
    def _mixed_family():
        sets = [
            Ball([0.0, 0.0, 0.2], 1.0),
            Halfspace([1.0, 1.0, 0.0], 1.0),
            Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
            Hyperplane([0.0, 0.0, 1.0], 0.0),
            Identity(),
            Halfspace([0.0, 2.0, 0.0], 0.5),
            Box([-0.5, -2.0, -0.5], [0.5, 2.0, 0.5]),
            AffineSubspace([[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0]),
        ]
        return OperatorFamily.from_sets(sets, np.zeros(3)), (4, 3, 0, 6, 2, 1, 7, 5, 3)

    def test_mixed_family_keeps_order(self):
        fam, indices = self._mixed_family()
        for x in np.random.default_rng(41).standard_normal((40, 3)) * 2.0:
            got = fam.distances(indices, x)
            assert got.shape == (len(indices),)
            assert_array_equal(got, self._oracle(fam, indices, x))

    def test_non_projection_node_raises_family_error(self):
        fam = OperatorFamily.from_sets(
            [Halfspace([1.0, 0.0], 0.0), Relaxation(Primitive(Box([-1.0, -1.0], [1.0, 1.0])), 0.5)],
            np.zeros(2),
        )
        x = np.array([2.0, 3.0])
        with pytest.raises(ValueError, match="family-error: no set distance") as oracle:
            fam.distance(1, x)
        with pytest.raises(ValueError, match="family-error: no set distance") as stacked:
            fam.distances((0, 1), x)
        assert str(stacked.value) == str(oracle.value)

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            axis_halfspace_family(3).distances((0, 1), np.zeros(4))

    @pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
    def test_index_refused_after_a_stack_exists(self, index):
        # 1.0 and True hash as 1: the indices are read before the stack memo is
        fam, x = two_halfspace_family(), np.array([3.0, 4.0])
        assert_array_equal(fam.distances((1,), x), [4.0])
        with pytest.raises(ValueError, match=f"^family-error: operator index must be an integer >= 0, got {index!r}$"):
            fam.distances((index,), x)

    def test_numpy_integer_shares_the_int_stack(self):
        # whichever comes first, one stack under a key of plain ints serves both
        x = np.array([3.0, 4.0])
        for first in ((0, 1), (np.int64(0), np.int64(1))):
            fam = two_halfspace_family()
            want = fam.distances(first, x)
            assert fam.distances((np.int64(0), 1), x).tobytes() == want.tobytes()
            assert [[type(n) for n in key] for key in fam._stacks] == [[int, int]]

    @pytest.mark.parametrize("points", [np.zeros((4, 4)), np.zeros((2, 4, 3))], ids=["wide", "3-D"])
    def test_block_shape_checked(self, points):
        with pytest.raises(ValueError, match="dim-mismatch"):
            axis_halfspace_family(3).distances((0, 1), points)

    @pytest.mark.parametrize("m, d, rows", [(15, 5, 54), (21, 5, 39), (60, 20, 3), (60, 200, 1)])
    def test_scratch_is_two_block_arrays(self, m, d, rows):
        # a call on B rows holds the (B, m, d) steps, the points broadcast to that shape, the
        # (B, m) coefficients and the (B, m) result, and a few KB of interpreter objects: numpy
        # buffers no broadcast operand, which would add a copy of the block per operand
        fam = random_halfspace_family(d, m, 0)
        x = np.random.default_rng(3).standard_normal((rows, d))
        fam.distances(range(m), x)  # the first call builds the stack
        tracemalloc.start()
        try:
            fam.distances(range(m), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * rows * m * d + 2 * rows * m) + 8192

    @pytest.mark.parametrize("case", ["axis", "random-0", "random-1", "random-2", "mixed"])
    def test_block_rows_keep_one_point_bits(self, case):
        # a (B, d) block gives (B, m), each row bitwise the one-point call at its point
        if case == "axis":
            fam, indices = axis_halfspace_family(5), tuple(range(21))
        elif case == "mixed":
            fam, indices = self._mixed_family()
        else:
            fam, indices = random_halfspace_family(20, 60, int(case[-1])), tuple(range(60))
        rng = np.random.default_rng(42)
        points = rng.standard_normal((37, fam.dim)) * 10.0 ** rng.integers(-3, 7, size=(37, 1))
        got = fam.distances(indices, points)
        assert got.shape == (37, len(indices))
        want = np.array([fam.distances(indices, x) for x in points])
        assert got.tobytes() == want.tobytes()
        if case.startswith("random"):
            # the halfspace arithmetic spelled out for one point, with one matrix-vector product
            sets = [fam.operator(n).set for n in indices]
            normals = np.array([h.a for h in sets])
            for x, row in zip(points, got):
                offset = np.maximum(normals @ x - [h.b for h in sets], 0.0) / [h._asq for h in sets]
                assert row.tobytes() == norm(x - (x - offset[:, None] * normals)).tobytes()
        for rows in (points[:1], points[:0]):
            assert fam.distances(indices, rows).tobytes() == want[: len(rows)].tobytes()


def _dense_distances(sets, x):
    # the whole-block formula for a (B, d) block and m halfspaces or hyperplanes: each pair's
    # clamped offset times its normal, written over (B, m, d) arrays, then the norm of x - (x - step)
    normals = np.array([s.a for s in sets])
    floor = np.array([0.0 if isinstance(s, Halfspace) else -np.inf for s in sets])
    coef = np.matmul(normals, x[:, :, None])[:, :, 0] - [s.b for s in sets]
    coef = np.maximum(coef, floor) / [s._asq for s in sets]
    step, xs = np.empty((2, len(x)) + normals.shape)
    step[...], xs[...] = coef[:, :, None], normals
    step *= xs
    xs[...] = x[:, None, :]
    step = xs - (xs - step)
    return np.sqrt(np.add.reduce(step * step, axis=-1))


class TestSparseDistances:
    """A block's halfspace and hyperplane distances run their arithmetic on the active pairs only.

    A pair whose clamped offset is zero gets +0.0, which the whole-block formula gives it at a
    finite point; a block with a row holding inf or NaN takes that formula whole.
    """

    @staticmethod
    def _family(rng, x, m, active):
        # m sets through the witness 0 over the block x, a halfspace holding about a share
        # 1 - active of its rows; a hyperplane holds a row only where it passes through it
        sets = []
        for a in rng.standard_normal((m, x.shape[1])):
            if rng.random() < 0.2:
                sets.append(Hyperplane(a, 0.0))
            else:
                sets.append(Halfspace(a, max(0.0, float(np.quantile(np.matmul(x, a), 1.0 - active)))))
        return OperatorFamily.from_sets(sets, np.zeros(x.shape[1])), sets

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 64])
    @pytest.mark.parametrize("active", [0.0, 0.05, 0.3, 0.9])
    def test_the_bits_of_the_whole_block_formula(self, d, active):
        rng = np.random.default_rng(int(100 * d + 100 * active))
        for trial in range(6):
            x = rng.standard_normal((int(rng.integers(1, 40)), d)) * 10.0 ** rng.integers(-3, 4)
            x[rng.random(x.shape) < 0.2] = -0.0
            fam, sets = self._family(rng, x, int(rng.integers(1, 30)), active)
            if trial % 3 == 2:  # a row holding an inf or a NaN
                x[rng.integers(len(x)), rng.integers(d)] = rng.choice([math.inf, -math.inf, math.nan])
            with np.errstate(all="ignore"):
                got, want = fam.distances(range(len(sets)), x), _dense_distances(sets, x)
            assert got.tobytes() == want.tobytes()

    def test_an_inactive_pair_at_a_negative_zero_is_positive_zero(self):
        x = np.array([[-0.0, -0.0], [-0.0, 3.0]])
        sets = [Halfspace([1.0, -1.0], 5.0), Hyperplane([-2.0, 1.0], 0.0), Halfspace([0.0, 1.0], 1.0)]
        got = OperatorFamily.from_sets(sets, np.zeros(2)).distances(range(3), x)
        assert got.tobytes() == _dense_distances(sets, x).tobytes()
        assert got[0].tolist() == [0.0, 0.0, 0.0] and not np.signbit(got[0]).any()

    def test_an_offset_that_underflows_to_negative_zero_gives_positive_zero(self):
        # t = -5e-324 over a @ a = 4 is -0.0: no pair is active, and each distance is +0.0
        x, sets = np.zeros((8, 1)), [Hyperplane([2.0], 5e-324)]
        got = OperatorFamily.from_sets(sets, np.zeros(1)).distances((0,), x)
        assert got.tobytes() == _dense_distances(sets, x).tobytes() == np.zeros((8, 1)).tobytes()

    @pytest.mark.parametrize("active_sets", [0, 1, 3])
    def test_the_scratch_grows_with_the_active_pairs(self, active_sets):
        # a block inside every set of an all-linear stack allocates its (rows, m) offsets, in the
        # result; each active pair adds its step, its point, its distance and its index, with one
        # index in the making: at most 2 d + 5 floats
        rows, m, d = 50, 40, 20
        rng = np.random.default_rng(9)
        x = rng.standard_normal((rows, d)) + 10.0 * np.eye(d)[0]
        normals = rng.standard_normal((m, d))
        normals[:active_sets] = np.eye(d)[0] + 0.1 * normals[:active_sets]  # 1 >= <a, 0>, below every <a, x>
        offsets = np.maximum((x @ normals.T).max(axis=0), 0.0) + 1.0
        offsets[:active_sets] = 1.0
        fam = OperatorFamily.from_sets([Halfspace(a, b) for a, b in zip(normals, offsets)], np.zeros(d))
        fam.distances(range(m), x)  # the first call builds the stack
        tracemalloc.start()
        try:
            got = fam.distances(range(m), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(got) == rows * active_sets
        # the result, which holds the offsets, with numpy's buffer for their broadcast operands (one
        # more (rows, m) block) before any pair is taken; never the whole-block (rows, m, d) arrays
        assert peak <= 8 * (rows * m + max(rows * m, (2 * d + 5) * rows * active_sets)) + 8192
