"""Projectable sets and the lazy operator family.

The load-bearing oracle is the variational characterization of the
nearest point: p = P_C(x) iff p is in C and <x - p, c - p> <= 0 for all
c in C.  Each set type is probed against it with sampled feasible points.
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.fixtures import axis_halfspace_family, random_halfspace_family
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

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)


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


class TestDimChecks:
    def test_projection_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            Halfspace([1.0, 0.0], 0.0).project(np.zeros(3))

    def test_distance_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            Ball(np.zeros(2), 1.0).distance(np.zeros(4))


class TestOperatorFamily:
    def _family(self, **kw):
        def generator(n):
            a = np.zeros(3)
            a[n % 3] = 1.0
            return Halfspace(a, float(n + 1))

        return OperatorFamily(generator, np.zeros(3), **kw)

    def test_memoization(self):
        fam = self._family()
        assert fam.operator(2) is fam.operator(2)
        assert fam.materialized == [2]

    def test_wraps_sets_as_projections(self):
        fam = self._family()
        op = fam.operator(0)
        assert isinstance(op, Primitive)
        assert op.gamma == 1.0

    def test_gammas_callable(self):
        fam = self._family(gammas=lambda n: 0.5 + 0.1 * n)
        assert fam.operator(1).gamma == 0.6

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

    def test_mixed_family_keeps_order(self):
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
        fam = OperatorFamily.from_sets(sets, np.zeros(3))
        indices = (4, 3, 0, 6, 2, 1, 7, 5, 3)
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
