"""Operator trees: the derived constants, the single-point string loop and the sampling checkers.

Every derived constant asserted here is recomputed in the test from the
construction rules, so a regression in the calculus cannot hide behind a
matching regression in the expectation.
"""

import gc
import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import strav.operators
from strav.fixtures import random_halfspace_family, random_plan_corpus
from strav.gmsa import fne_bound, output_operator, sqne_bound
from strav.numeric import as_vector, norm
from strav.operators import (
    Composition,
    ConvexComb,
    Identity,
    OperatorNode,
    Primitive,
    Relaxation,
    SampleBudget,
    _draw,
    _pairs,
    _probe,
    _report,
    check_fne,
    check_nonexpansive,
    check_sqne,
)
from strav.sets import Ball, Box, Halfspace, Hyperplane, OperatorFamily


def _halfspace_proj(dim=3, gamma=1.0, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    p = Primitive(Halfspace(a, 0.0))
    return p if gamma == 1.0 else Relaxation(p, gamma)


class TestPrimitiveConstants:
    def test_plain_projection(self):
        p = _halfspace_proj(gamma=1.0)
        assert p.sqne_rho == 1.0
        assert p.fne_rho == 1.0
        assert p.sqne_rho >= 1

    def test_underrelaxed_two_thirds(self):
        # (2 - 2/3) / (2/3) = 2, the underrelaxed projection is twice as strong
        p = _halfspace_proj(gamma=2.0 / 3.0)
        assert_allclose(p.sqne_rho, 2.0, rtol=1e-15)
        assert_allclose(p.fne_rho, 2.0, rtol=1e-15)
        assert p.sqne_rho >= 1

    def test_overrelaxed_loses_cutter(self):
        p = _halfspace_proj(gamma=4.0 / 3.0)
        assert_allclose(p.sqne_rho, (2.0 - 4.0 / 3.0) / (4.0 / 3.0), rtol=1e-15)
        assert not p.sqne_rho >= 1

    def test_apply_is_relaxed_projection(self):
        rng = np.random.default_rng(4)
        s = Halfspace(np.array([1.0, 0.0]), 0.0)
        p = Relaxation(Primitive(s), 0.5)
        x = rng.standard_normal(2) + np.array([2.0, 0.0])
        assert_allclose(p.apply(x), x + 0.5 * (s.project(x) - x), rtol=1e-15)


class TestIdentity:
    def test_infinite_constants(self):
        i = Identity()
        assert i.sqne_rho == np.inf
        assert i.fne_rho == np.inf

    def test_apply_noop(self):
        x = np.array([1.0, -2.0, 3.0])
        assert_array_equal(Identity().apply(x), x)


class TestRelaxationConstants:
    def test_rule_against_hand_value(self):
        child = _halfspace_proj(gamma=1.0)  # rho = 1
        for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
            r = Relaxation(child, alpha)
            assert_allclose(r.sqne_rho, (1.0 + 1.0 - alpha) / alpha, rtol=1e-15)

    def test_reflection_has_zero_modulus(self):
        r = Relaxation(_halfspace_proj(), 2.0)
        assert r.sqne_rho == 0.0
        assert r.fne_rho == 0.0

    def test_beyond_validity_gives_no_guarantee(self):
        # child rho = 1/2, rule valid only up to alpha = 1.5
        child = Relaxation(_halfspace_proj(), 4.0 / 3.0)
        r = Relaxation(child, 1.8)
        assert r.sqne_rho is None
        assert r.fne_rho is None

    def test_alpha_interval_enforced(self):
        with pytest.raises(ValueError, match="relaxation parameter"):
            Relaxation(_halfspace_proj(), 2.5)
        with pytest.raises(ValueError, match="relaxation parameter"):
            Relaxation(_halfspace_proj(), -0.1)
        with pytest.raises(ValueError, match="relaxation parameter"):
            Relaxation(_halfspace_proj(), 2.0 + 1e-11)
        # the top of the interval is judged as a plan judges it: up to the slack
        assert Relaxation(_halfspace_proj(), 2.0 + 5e-13).alpha == 2.0 + 5e-13

    def test_fixed_points_preserved(self):
        p = _halfspace_proj(seed=5)
        r = Relaxation(p, 1.7)
        z = np.zeros(3)  # on the boundary, fixed by the projection
        assert_allclose(r.apply(z), z, atol=1e-15)

    def test_apply_formula(self):
        p = _halfspace_proj(seed=6)
        x = np.random.default_rng(6).standard_normal(3) * 3.0
        assert_allclose(Relaxation(p, 0.7).apply(x), x + 0.7 * (p.apply(x) - x), rtol=1e-15)


class TestPassThroughNodes:
    """A projection and a relaxation at alpha 1 add no frame of their own."""

    H = Halfspace(np.array([1.0, -2.0, 0.5]), 0.25)

    def _nodes(self):
        p = Primitive(self.H)
        r = Relaxation(p, 1.0)
        return [p, r, Relaxation(r, 1.0), Composition([r, Primitive(self.H), Relaxation(p, 1.0)])]

    def test_a_fixed_point_comes_back_as_the_array_passed_in(self):
        u = np.array([-1.0, 0.5, -0.0])  # <a, u> = -2 < 0.25
        for node in self._nodes():
            assert node.apply(u) is u, node

    def test_apply_is_chosen_at_construction(self):
        p = Primitive(self.H)
        assert p.apply == self.H.project and Relaxation(p, 1.0).apply == self.H.project
        assert Primitive.apply is OperatorNode.apply  # a projection has no formula of its own
        assert Relaxation(p, 0.5).apply.__func__ is Relaxation.apply

    @pytest.mark.parametrize("point", [[-1.0, -0.0], [-math.inf, 0.0]], ids=["negative zero", "infinite"])
    def test_a_relaxation_hands_back_a_point_its_child_fixes(self, point):
        # x + alpha * (x - x) would turn -0.0 into +0.0, and -inf into NaN with a warning
        u = np.array(point)
        for alpha in (0.5, 4.0 / 3.0, 2.0):
            assert Relaxation(Primitive(Halfspace([1.0, 0.0], 0.0)), alpha).apply(u) is u

    @pytest.mark.parametrize("point", [[2.0, -1.0, 3.0], [-1.0, 0.5, -0.0], [[2.0, 1.0, 0.0]] * 2])
    def test_a_list_gives_the_bits_of_an_array(self, point):
        nodes = self._nodes() + [Relaxation(Primitive(self.H), 0.5), Relaxation(Primitive(self.H), 1.5)]
        for node in nodes:
            want = node.apply(np.array(point))
            assert node.apply(point).tobytes() == want.tobytes(), node

    def test_constants_keep_their_values(self):
        for gamma in (1.0, 0.5, 4.0 / 3.0):
            child = Relaxation(Primitive(self.H), gamma)
            rho = (2.0 - gamma) / gamma
            assert child.sqne_rho == child.fne_rho == rho
            r = Relaxation(child, 1.0)  # (1 + rho - 1) / 1, which need not be rho bitwise
            assert r.sqne_rho == r.fne_rho == (1.0 + rho - 1.0) / 1.0


class TestConvexCombConstants:
    def test_min_over_children(self):
        a = _halfspace_proj(gamma=1.0)        # rho = 1
        b = _halfspace_proj(gamma=2.0 / 3.0)  # rho = 2
        node = ConvexComb([a, b], [0.5, 0.5])
        assert node.sqne_rho == 1.0
        assert node.fne_rho == 1.0

    def test_identity_children_skipped(self):
        a = _halfspace_proj(gamma=2.0 / 3.0)
        node = ConvexComb([a, Identity()], [0.5, 0.5])
        assert_allclose(node.sqne_rho, 2.0, rtol=1e-15)

    def test_unknown_child_voids_guarantee(self):
        good = _halfspace_proj()
        bad = Relaxation(Relaxation(good, 4.0 / 3.0), 1.8)  # None constants
        node = ConvexComb([good, bad], [0.5, 0.5])
        assert node.sqne_rho is None

    def test_weight_validation(self):
        a, b = _halfspace_proj(seed=7), _halfspace_proj(seed=8)
        with pytest.raises(ValueError, match="weights must sum to 1"):
            ConvexComb([a, b], [0.7, 0.6])
        for weights in ([1.2, -0.2], [1.0, 0.0], [1.0 + 1e-11]):
            with pytest.raises(ValueError, match=r"weights must lie in \(0, 1\]"):
                ConvexComb([a, b][: len(weights)], weights)
        with pytest.raises(ValueError, match="one weight per child"):
            ConvexComb([a, b], [1.0])
        with pytest.raises(ValueError, match="at least one child"):
            ConvexComb([], [])
        # the top of the interval is judged as a plan judges it: up to the slack
        assert ConvexComb([a], [1.0 + 1e-13]).weights == (1.0 + 1e-13,)

    def test_apply_is_weighted_sum(self):
        a, b = _halfspace_proj(seed=9), _halfspace_proj(seed=10)
        x = np.random.default_rng(11).standard_normal(3) * 2.0
        node = ConvexComb([a, b], [0.3, 0.7])
        assert_allclose(node.apply(x), 0.3 * a.apply(x) + 0.7 * b.apply(x), rtol=1e-15)


class TestCompositionConstants:
    def test_two_projections(self):
        # each child rho = 1/2 after relaxation: alpha = 4/3 of a projection
        child = lambda s: Relaxation(_halfspace_proj(seed=s), 4.0 / 3.0)
        a, b = child(12), child(13)
        assert_allclose(a.sqne_rho, 0.5, rtol=1e-15)
        node = Composition([a, b])
        assert_allclose(node.sqne_rho, 0.25, rtol=1e-15)

    def test_three_half_fne_children(self):
        # min(1/2) / 3 = 1/6
        kids = [Relaxation(_halfspace_proj(seed=s), 4.0 / 3.0) for s in (14, 15, 16)]
        node = Composition(kids)
        assert_allclose(node.fne_rho, 1.0 / 6.0, rtol=1e-15)

    def test_empty_or_mixed_dimensions_refused(self):
        with pytest.raises(ValueError, match="at least one child"):
            Composition([])
        with pytest.raises(ValueError, match=r"dim-mismatch: children of dimensions \[2, 3\]"):
            Composition([_halfspace_proj(dim=3), Identity(), _halfspace_proj(dim=2)])

    def test_identity_padding_is_free(self):
        a, b = _halfspace_proj(seed=17), _halfspace_proj(seed=18)
        plain = Composition([a, b])
        padded = Composition([a, Identity(), b, Identity()])
        assert padded.sqne_rho == plain.sqne_rho
        assert padded.fne_rho == plain.fne_rho

    def test_apply_order_first_listed_first(self):
        a, b = _halfspace_proj(seed=19), _halfspace_proj(seed=20)
        x = np.random.default_rng(21).standard_normal(3) * 2.0
        assert_allclose(Composition([a, b]).apply(x), b.apply(a.apply(x)), rtol=1e-15)

    def test_sqne_at_least_fne(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            kids = [_halfspace_proj(gamma=rng.uniform(0.1, 4.0 / 3.0), seed=rng.integers(1000))
                    for _ in range(rng.integers(1, 4))]
            node = Composition(kids)
            if node.fne_rho is not None:
                assert node.sqne_rho is not None
                assert node.sqne_rho >= node.fne_rho


def _nodes(node):
    yield node
    for c in node.children():
        yield from _nodes(c)


class TestTwoPointConstantIsNonnegative:
    """The calculus never derives a negative ``fne_rho``, so a tree with a two-point
    constant is nonexpansive: ``strav verify``'s FNE check at that constant implies
    ``||T(x) - T(y)|| <= ||x - y||`` on the pairs it samples."""

    def _check(self, trees):
        verdicts = set()
        for tree in trees:
            for node in _nodes(tree):
                assert node.fne_rho is None or node.fne_rho >= 0.0, node
                verdicts.add(node.fne_rho is None)
        assert verdicts == {True, False}

    def test_plan_corpora_over_plain_and_relaxed_leaves(self):
        trees = []
        for seed in (13, 14, 15):
            gammas = np.random.default_rng(seed).uniform(0.05, 4.0 / 3.0, 8)
            families = [
                random_halfspace_family(5, 8, seed=7),
                random_halfspace_family(5, 8, seed=7, gammas=gammas.__getitem__),
            ]
            plans = random_plan_corpus(500, seed, n_inputs=8)
            trees += [output_operator(p, fam) for p in plans for fam in families]
        self._check(trees)

    def test_relaxation_chains(self):
        alphas = np.linspace(0.0, 2.0, 9)
        trees = []
        for gamma in (0.5, 1.0, 4.0 / 3.0):
            for a in alphas:
                for b in alphas:
                    inner = Relaxation(_halfspace_proj(gamma=gamma), a)
                    trees.append(Relaxation(Composition([inner, Identity()]), b))
                    trees.append(Relaxation(ConvexComb([inner, Identity()], [0.5, 0.5]), b))
        self._check(trees)

    def test_fne_pass_at_the_tree_constant_comes_with_nonexpansiveness(self):
        # on the pairs one probe samples, over leaves relaxed up to gamma 4/3
        gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
        family = random_halfspace_family(5, 8, seed=7, gammas=gammas.__getitem__)
        checked = 0
        for plan in random_plan_corpus(60, seed=16, n_inputs=8):
            T = output_operator(plan, family)
            if T.fne_rho is None:
                continue
            budget = SampleBudget(count=100, seed=plan.k)
            assert check_fne(T, T.fne_rho, budget, center=family.witness).passed
            assert check_nonexpansive(T, budget, center=family.witness).passed
            checked += 1
        assert checked > 30


class TestSamplingCheckers:
    budget = SampleBudget(count=300, seed=42)

    def test_projection_passes_at_one(self):
        p = _halfspace_proj(seed=26)
        rep = check_sqne(p, 1.0, np.zeros(3), self.budget)
        assert rep.passed
        assert rep.max_violation <= 1e-9

    def test_witness_not_fixed_refused(self):
        with pytest.raises(ValueError, match="witness-not-fixed"):
            check_sqne(Primitive(Halfspace([1.0, 0.0, 0.0], -1.0)), 1.0, np.zeros(3), self.budget)

    def test_a_witness_whose_norm_overflows_is_refused_by_name(self):
        # no scale judges the fixed-point test there; numpy warns of nothing, and no
        # "residual 0.000e+00" is reported for a point the identity fixes
        budget = SampleBudget(count=20, radius=1e150)
        with pytest.raises(ValueError, match="^witness-not-fixed: the norm of the declared fixed point overflows$"):
            check_sqne(Identity(), 1.0, [1e160, -3e155], budget)
        assert check_sqne(Identity(), 1.0, [1e150, -3e145], budget).passed  # ||z|| is finite

    def test_a_residual_that_overflows_refuses_the_witness_without_warning(self):
        # x_1 <= -1e154 moves (1e154, 0) by 2e154, whose square overflows: the residual is inf
        node = Primitive(Halfspace([1.0, 0.0], -1e154))
        assert node.residual([-1e154, 0.0]) == 0.0 and node.residual([1e154, 0.0]) == math.inf
        with pytest.raises(ValueError, match="^witness-not-fixed: residual inf at the declared fixed point$"):
            check_sqne(node, 1.0, [1e154, 0.0], SampleBudget(count=5))

    def test_projection_fails_at_overreaching_rho(self):
        p = _halfspace_proj(seed=27)
        rep = check_sqne(p, 10.0, np.zeros(3), self.budget)
        assert not rep.passed
        assert rep.max_violation > 1e-6

    def test_reflection_passes_at_zero_only(self):
        # the reflection is an isometry toward fixed points: slack is exactly
        # -rho * ||T(x) - x||^2, so rho = 0 passes and any positive rho fails
        r = Relaxation(Primitive(Hyperplane([1.0, 0.0], 0.0)), 2.0)
        z = np.array([0.0, 0.5])
        assert check_sqne(r, 0.0, z, self.budget).passed
        assert not check_sqne(r, 0.5, z, self.budget).passed

    def test_fne_check(self):
        p = _halfspace_proj(seed=28)
        assert check_fne(p, 1.0, self.budget, center=np.zeros(3)).passed
        assert not check_fne(p, 5.0, self.budget, center=np.zeros(3)).passed

    def test_nonexpansive_check(self):
        assert check_nonexpansive(_halfspace_proj(seed=29), self.budget, center=np.zeros(3)).passed

    def test_nonexpansive_detects_expansion(self):
        class Doubler(Identity):
            def apply(self, x):
                return 2.0 * np.asarray(x, dtype=float)

        rep = check_nonexpansive(Doubler(), SampleBudget(count=50, seed=1), center=np.zeros(2))
        assert not rep.passed

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SampleBudget(count=0)
        with pytest.raises(ValueError):
            SampleBudget(radius=-1.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, 1e160])
    def test_budget_refuses_a_radius_not_finite_and_positive(self, radius):
        # a NaN or infinite ball, or one whose squares overflow, would fail
        # the checks of an exact projection
        with pytest.raises(ValueError, match="finite and positive"):
            SampleBudget(radius=radius)

    def test_exact_projection_passes_at_the_largest_radius(self):
        proj, budget = Primitive(Halfspace([1.0, 0.0], 0.0)), SampleBudget(radius=1e150)
        assert check_sqne(proj, 1.0, np.zeros(2), budget).passed
        assert check_fne(proj, 1.0, budget, center=np.zeros(2)).passed
        assert check_nonexpansive(proj, budget, center=np.zeros(2)).passed

    @pytest.mark.parametrize("count", [2.5, True, False, 3.0, "3"])
    def test_budget_refuses_a_count_not_an_integer(self, count):
        with pytest.raises(ValueError, match="sample count must be an integer >= 1"):
            SampleBudget(count=count)

    def test_budget_takes_a_numpy_integer_count(self):
        rep = check_sqne(_halfspace_proj(seed=30), 1.0, np.zeros(3), SampleBudget(count=np.int64(7)))
        assert rep.passed and rep.samples == 7

    def test_report_counts_samples(self):
        p = _halfspace_proj(seed=30)
        rep = check_sqne(p, 1.0, np.zeros(3), SampleBudget(count=123, seed=2))
        assert rep.samples == 123

    def test_identity_passes_at_an_infinite_modulus(self):
        # Identity().sqne_rho is inf: a sample the node fixes never violates
        for rep in (
            check_sqne(Identity(), math.inf, np.zeros(2), self.budget),
            check_fne(Identity(), math.inf, self.budget, center=np.zeros(2)),
        ):
            assert rep.passed and rep.max_violation == 0.0

    def test_a_moving_node_fails_at_an_infinite_modulus(self):
        node = Relaxation(Primitive(Halfspace([1.0, 0.0], 0.0)), 0.5)
        for rep in (
            check_sqne(node, math.inf, np.zeros(2), self.budget),
            check_fne(node, math.inf, self.budget, center=np.zeros(2)),
        ):
            assert not rep.passed and rep.max_violation == math.inf

    def test_strict_tolerance_still_passes_exact_identity(self):
        # identity satisfies the inequality with equality at every rho
        rep = check_sqne(Identity(), 3.0, np.zeros(2), self.budget)
        assert rep.passed
        assert rep.max_violation == 0.0


class TestCheckerScale:
    """Rounding grows with the size of the terms; genuine violations grow faster."""

    proj = Primitive(Halfspace([0.6, 0.8, 0.0], 0.0))

    @pytest.mark.parametrize("radius", [1e4, 1e6])
    def test_exact_modulus_passes_at_large_radius(self, radius):
        budget = SampleBudget(count=300, seed=42, radius=radius)
        assert check_sqne(self.proj, 1.0, np.zeros(3), budget).passed
        assert check_fne(self.proj, 1.0, budget, center=np.zeros(3)).passed

    @pytest.mark.parametrize("radius", [2.0, 1e4, 1e6])
    def test_tight_overreach_is_caught_at_every_radius(self, radius):
        budget = SampleBudget(count=300, seed=42, radius=radius)
        rep = check_sqne(self.proj, 1.0 + 1e-6, np.zeros(3), budget)
        assert not rep.passed
        assert rep.worst is not None
        assert not check_fne(self.proj, 1.001, budget, center=np.zeros(3)).passed

    def test_worst_is_a_failing_sample(self):
        # the largest raw excess lies within its own slack while a smaller
        # one exceeds its; the report keeps the failing sample
        xs = np.arange(6.0).reshape(3, 2)
        excess, slack = np.array([1e-6, 1e-8, -1.0]), np.array([1e-6, 1e-9, 0.0])
        rep = _report("probe", excess, slack, (xs,))
        assert not rep.passed
        assert rep.samples == 3
        assert rep.max_violation == 1e-6
        assert_array_equal(rep.worst[0], xs[1])

    def test_corpus_raises_no_false_alarm_at_large_radius(self):
        family = random_halfspace_family(5, 8, seed=7)
        gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
        relaxed = random_halfspace_family(5, 8, seed=7, gammas=lambda n: gammas[n])
        for radius in (1e4, 1e6):
            for plan in random_plan_corpus(50, 3):
                T = output_operator(plan, family)
                budget = SampleBudget(count=200, seed=plan.k, radius=radius)
                rep = check_sqne(T, sqne_bound(plan), family.witness, budget)
                assert rep.passed, f"plan {plan.k}: {rep}"
            # the criterion 04 corpus at its two-point bound
            for plan in random_plan_corpus(50, seed=13, n_inputs=8, c0_alpha_one=True):
                T = output_operator(plan, relaxed)
                budget = SampleBudget(count=200, seed=plan.k, radius=radius)
                rep = check_fne(T, fne_bound(plan), budget, center=relaxed.witness)
                assert rep.passed, f"plan {plan.k}: {rep}"


class Overshoot(Halfspace):
    """A broken projection: the step toward the halfspace is 2.5 times too long."""

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x + 2.5 * (super().project(x) - x)


class CountingComposition(Composition):
    """Records the number of points of every apply."""

    def __init__(self, children):
        super().__init__(children)
        self.applied = []

    def apply(self, x):
        self.applied.append(np.asarray(x).shape[:-1])
        return super().apply(x)


def _slack_reference(h, g, center, budget):
    # 1e-12 ||h||^2 + 1e-15 m (||h|| + ||g||), m the center's largest |coordinate| plus the radius
    return 1e-12 * norm(h) ** 2 + 1e-15 * (np.abs(center).max() + budget.radius) * (norm(h) + norm(g))


def _pairs_reference(node, budget, center):
    # the seeded draw around center and the count pairs (x_i, x_{i+1 mod
    # count}) as check_fne and check_nonexpansive form them, each half
    # applied on its own
    center, rng = as_vector(center), np.random.default_rng(budget.seed)
    g = rng.standard_normal((budget.count, center.size))
    lengths = np.linalg.norm(g, axis=1)
    lengths[lengths == 0.0] = 1.0
    radii = budget.radius * rng.random(budget.count) ** (1.0 / center.size)
    xs = center + (g / lengths[:, None]) * radii[:, None]
    ys = np.roll(xs, -1, axis=0)
    return xs, ys, node.apply(xs), node.apply(ys)


def _far_projection():
    # a halfspace projection in R^5 through a witness of size 1e8, and that witness
    rng = np.random.default_rng(9)
    w = rng.standard_normal(5) * 1e8
    a = rng.standard_normal(5)
    return Primitive(Halfspace(a, float(a @ w))), w


class TestPairSample:
    """A two-point checker judges ``count`` pairs of successive probe points,
    drawn and applied once."""

    def test_each_check_applies_the_node_once(self):
        node = CountingComposition([_halfspace_proj(seed=5), _halfspace_proj(seed=6)])
        budget = SampleBudget(count=40, seed=3)
        assert check_fne(node, 0.5, budget, center=np.zeros(3)).passed
        _probe.cache_clear()
        assert check_nonexpansive(node, budget, center=np.zeros(3)).passed
        assert node.applied == [(40,), (40,)]

    @pytest.mark.parametrize("corpus", ["criterion 03", "criterion 04"])
    def test_verdicts_match_separate_applies(self, corpus):
        if corpus == "criterion 03":
            family = random_halfspace_family(5, 8, seed=7)
            plans = random_plan_corpus(60, seed=13, n_inputs=8)
        else:
            gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
            family = random_halfspace_family(5, 8, seed=7, gammas=lambda n: gammas[n])
            plans = random_plan_corpus(60, seed=13, n_inputs=8, c0_alpha_one=True)
        z = family.witness
        for plan in plans:
            T = output_operator(plan, family)
            budget = SampleBudget(count=200, seed=plan.k)
            xs, ys, tx, ty = _pairs_reference(T, budget, z)
            # the probe is the reference draw, and the partners are its roll
            px, py, h, g = _pairs(T, budget, z)
            assert px.tobytes() == xs.tobytes()
            assert py.tobytes() == np.roll(px, -1, axis=0).tobytes()
            assert h.tobytes() == (xs - ys).tobytes()
            assert g.tobytes() == (tx - ty).tobytes()
            if corpus == "criterion 03":
                rho = sqne_bound(plan)
                viol = norm(tx - z) ** 2 - norm(xs - z) ** 2 + rho * norm(tx - xs) ** 2
                rep = check_sqne(T, rho, z, budget)
                assert rep.passed == bool((viol <= _slack_reference(xs - z, tx - z, z, budget)).all())
                assert rep.max_violation == pytest.approx(float(viol.max()), abs=1e-12)
                assert rep.passed
            slack = _slack_reference(xs - ys, tx - ty, z, budget)
            viol = norm(tx - ty) ** 2 - norm(xs - ys) ** 2  # the two-point excess at rho 0
            rep = check_nonexpansive(T, budget, center=z)
            assert rep.passed == bool((viol <= slack).all())
            assert rep.max_violation == pytest.approx(float(viol.max()), abs=1e-12)
            if corpus == "criterion 04":
                rho = fne_bound(plan)
                viol = viol + rho * norm((xs - tx) - (ys - ty)) ** 2
                rep = check_fne(T, rho, budget, center=z)
                assert rep.passed == bool((viol <= slack).all())
                assert rep.max_violation == pytest.approx(float(viol.max()), abs=1e-12)
                assert rep.passed

    def test_an_expansion_at_a_small_radius_fails_the_nonexpansive_check(self):
        # x -> 10x has the squared excess 99 ||x - y||^2, below 4e-10 at ||x - y|| <= 2e-6, but its
        # slack is sized from those very terms: about 1e-12 ||x - y||^2, with m = radius
        rep = check_nonexpansive(Scaled(10.0), SampleBudget(count=200, seed=0, radius=1e-6), center=np.zeros(3))
        assert not rep.passed and 0.0 < rep.max_violation <= 4e-10

    def test_a_projection_around_a_far_witness_is_nonexpansive(self):
        # T(x) is rounded at magnitude 1e8, about 1e-8 per coordinate: the squared excess 3.4e-11
        # of a halfspace projection at radius 1e-3 lies within the slack's 1e-15 m (||h|| + ||g||)
        (node, w), budget = _far_projection(), SampleBudget(count=200, seed=0, radius=1e-3)
        rep = check_nonexpansive(node, budget, center=w)
        assert rep.passed and 1e-11 < rep.max_violation < 1e-10
        _assert_same_report(check_fne(node, 0.0, budget, center=w), replace(rep, name="fne(rho=0.0)"))

    def test_overshooting_halfspace_flagged_by_every_checker(self):
        # x - 2.5 (x - P(x)) claims rho = 1 as a projection, but it is no
        # cutter and expands distances across the boundary
        node = Primitive(Overshoot([0.6, 0.8, 0.0], 0.0))
        budget = SampleBudget(count=300, seed=11)
        assert not check_sqne(node, 1.0, np.zeros(3), budget).passed
        assert not check_fne(node, 1.0, budget, center=np.zeros(3)).passed
        assert not check_nonexpansive(node, budget, center=np.zeros(3)).passed
        # its single points take the same broken step
        x = np.array([1.0, 1.0, 0.0])
        assert_allclose(node.apply(x), x - 2.5 * 1.4 * np.array([0.6, 0.8, 0.0]))

    def test_a_single_point_refused(self):
        # one point would be paired with itself and pass vacuously
        node = _halfspace_proj(seed=4)
        budget = SampleBudget(count=1)
        for check in (
            lambda: check_fne(node, 1.0, budget, center=np.zeros(3)),
            lambda: check_nonexpansive(node, budget, center=np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="at least 2"):
                check()
        assert check_sqne(node, 1.0, np.zeros(3), budget).samples == 1


def _assert_same_report(shared, alone):
    assert (shared.name, shared.passed, shared.samples) == (alone.name, alone.passed, alone.samples)
    assert shared.max_violation == alone.max_violation
    assert (shared.worst is None) == (alone.worst is None)
    for a, b in zip(shared.worst or (), alone.worst or ()):
        assert a.tobytes() == b.tobytes()


class TestSharedSample:
    """Checks of one node with one budget and center share one memoised probe."""

    def test_three_checks_apply_the_node_once(self):
        node = CountingComposition([_halfspace_proj(seed=5), _halfspace_proj(seed=6)])
        budget = SampleBudget(count=40, seed=3)
        assert check_sqne(node, 0.5, np.zeros(3), budget).passed
        assert check_fne(node, 0.5, budget, center=np.zeros(3)).passed
        assert check_nonexpansive(node, budget, center=np.zeros(3)).passed
        # one apply to the witness (the fixed-point check), one to the 40 points
        assert node.applied == [(), (40,)]

    @pytest.mark.parametrize("inflate", [1.0, 50.0])
    def test_two_point_reports_equal_the_ones_drawn_alone(self, inflate):
        # each report judged on the memoised probe equals the one from a
        # fresh draw, field for field
        gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
        family = random_halfspace_family(5, 8, seed=7, gammas=lambda n: gammas[n])
        plans = random_plan_corpus(40, seed=13, n_inputs=8, c0_alpha_one=True)
        nodes = [(output_operator(p, family), inflate * fne_bound(p)) for p in plans]
        nodes.append((Primitive(Overshoot([0.6, 0.8, 0.0, 0.0, 0.0], 0.0)), 1.0))
        passed = []  # the fne and nonexpansive verdicts of each node in turn
        for i, (T, rho) in enumerate(nodes):
            budget = SampleBudget(count=150, seed=i)
            check_sqne(T, 0.0, family.witness, budget)  # draws the probe
            for check in (
                lambda: check_fne(T, rho, budget, center=family.witness),
                lambda: check_nonexpansive(T, budget, center=family.witness),
            ):
                hit = check()
                _probe.cache_clear()
                _assert_same_report(hit, check())
                passed.append(hit.passed)
        fne = passed[:-2:2]  # the corpus trees at inflate times their bound
        if inflate == 1.0:
            assert all(fne)
        else:
            assert 0 < fne.count(False) < len(fne)
        assert passed[-2:] == [False, False]  # the overshooting halfspace

    def test_sqne_flags_the_inflated_corpus_modulus(self):
        # the certify_corpus negative control: plain corpus plans at 1e3
        family = random_halfspace_family(5, 8, 7)
        for plan in random_plan_corpus(20, seed=5, n_inputs=8):
            T = output_operator(plan, family)
            budget = SampleBudget(count=500, seed=plan.k)
            assert check_sqne(T, sqne_bound(plan), family.witness, budget).passed
            rep = check_sqne(T, 1e3, family.witness, budget)
            assert not rep.passed, f"plan {plan.k}"
            assert rep.samples == 500

    def test_sqne_flags_a_node_beyond_its_modulus(self):
        budget = SampleBudget(count=300, seed=11)
        for node, rho in [
            (_halfspace_proj(seed=27), 10.0),
            (Primitive(Overshoot([0.6, 0.8, 0.0], 0.0)), 1.0),
            (Relaxation(Primitive(Hyperplane([1.0, 0.0, 0.0], 0.0)), 2.0), 0.5),
        ]:
            check_nonexpansive(node, budget, center=np.zeros(3))  # draws the probe the SQNE check judges
            rep = check_sqne(node, rho, np.zeros(3), budget)
            assert not rep.passed
            assert rep.worst is not None

    def test_sample_around_another_center_refused(self):
        # a check around z never judges the probe memoised around another
        # center: it draws its own around z
        node = CountingComposition([_halfspace_proj(seed=4)])
        budget = SampleBudget(count=10)
        check_nonexpansive(node, budget, center=np.ones(3))
        rep = check_sqne(node, 1.0, np.zeros(3), budget)
        assert node.applied == [(10,), (), (10,)]
        xs, _, _ = _probe(node, budget, np.zeros(3).tobytes())
        assert (norm(xs) <= budget.radius).all()
        assert not np.array_equal(xs, _probe(node, budget, np.ones(3).tobytes())[0])
        _probe.cache_clear()
        _assert_same_report(rep, check_sqne(node, 1.0, np.zeros(3), budget))

    def test_sample_of_another_node_refused(self):
        # an equal tree that is another object never judges the memoised
        # probe of the first: each checker applies its own node
        node = CountingComposition([_halfspace_proj(seed=4)])
        budget = SampleBudget(count=10)
        for check in (
            lambda n: check_sqne(n, 1.0, np.zeros(3), budget),
            lambda n: check_fne(n, 1.0, budget, center=np.zeros(3)),
            lambda n: check_nonexpansive(n, budget, center=np.zeros(3)),
        ):
            check(node)
            other = CountingComposition([_halfspace_proj(seed=4)])
            rep = check(other)
            assert (10,) in other.applied
            _probe.cache_clear()
            _assert_same_report(rep, check(other))
        assert node.applied.count((10,)) == 3

    def test_another_seed_draws_anew(self):
        node = CountingComposition([_halfspace_proj(seed=5)])
        ones = np.ones(3).tobytes()
        xs, _, _ = _probe(node, SampleBudget(count=10), ones)
        ys, ty, _ = _probe(node, SampleBudget(count=10, seed=1), ones)
        assert node.applied == [(10,)] * 2
        assert not np.array_equal(xs, ys)
        assert not ys.flags.writeable and not ty.flags.writeable

    def test_pair_differences_built_once_per_probe(self):
        # check_fne derives the partners and h, g from the probe; check_nonexpansive on the
        # same probe reads those very arrays instead of building its own
        node, budget, center = _halfspace_proj(seed=5), SampleBudget(count=20), np.ones(3)
        assert check_fne(node, 0.5, budget, center=center).passed
        first = list(_pairs(node, budget, center))
        assert check_nonexpansive(node, budget, center=center).passed
        second = _pairs(node, budget, center)
        assert len(second) == 4
        assert all(a is b for a, b in zip(first, second))
        assert not any(a.flags.writeable for a in second)
        xs, tx, held = _probe(node, budget, center.tobytes())
        assert held is second and first[0] is xs
        assert first[1].tobytes() == np.roll(xs, -1, axis=0).tobytes()
        assert first[3].tobytes() == (tx - np.roll(tx, -1, axis=0)).tobytes()

    def test_cache_clear_drops_the_pair_differences(self):
        node, budget, center = _halfspace_proj(seed=5), SampleBudget(count=20), np.ones(3)
        check_nonexpansive(node, budget, center=center)
        refs = [weakref.ref(a) for a in _pairs(node, budget, center)]
        _probe.cache_clear()
        gc.collect()
        # the draw's own memo still holds the points; the pairs went with the probe
        assert refs[0]() is _draw(budget, center.tobytes())
        assert [r() for r in refs[1:]] == [None] * 3
        _draw.cache_clear()
        gc.collect()
        assert [r() for r in refs] == [None] * 4
        # the next check draws and derives them anew, bitwise as before
        check_fne(node, 0.5, budget, center=center)
        fresh = _pairs(node, budget, center)
        _probe.cache_clear()
        _draw.cache_clear()
        assert [a.tobytes() for a in fresh] == [a.tobytes() for a in _pairs(node, budget, center)]


# SHA-256 over every field of the 2,000 reports of _report_corpus, each worst sample's bytes included
_REPORT_CORPUS_SHA256 = "d997aa417627ce5064ff930b535e6f785046eb568c152ddca37ecac1f3c3aa75"
_FNE_REPORTS_SHA256 = "12d2b063242c866d250e71303d38cebd7c17a2f7e3c827957756886eb54232f5"


def _report_corpus():
    # the five checks of each of 200 corpus plans, on plain leaves and on gamma-relaxed leaves
    gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
    plans = random_plan_corpus(200, seed=13)
    for family in (random_halfspace_family(5, 8, 7), random_halfspace_family(5, 8, 7, gammas=lambda n: gammas[n])):
        z = family.witness
        for plan in plans:
            T = output_operator(plan, family)
            budget = SampleBudget(count=200, seed=plan.k)
            yield check_sqne(T, sqne_bound(plan), z, budget)
            yield check_sqne(T, 1e3, z, budget)
            yield check_fne(T, fne_bound(plan), budget, center=z)
            yield check_fne(T, 50 * fne_bound(plan), budget, center=z)
            yield check_nonexpansive(T, budget, center=z)


def _report_digest(reports):
    digest = hashlib.sha256()
    for r in reports:
        digest.update(repr((r.name, r.passed, r.max_violation.hex(), r.samples)).encode())
        for p in r.worst or ():
            digest.update(p.tobytes())
    return digest.hexdigest()


class TestReportBits:
    """The sampling checkers' reports keep their bits: a pinned hash over every field."""

    def test_report_corpus_hash_pinned(self):
        reports = list(_report_corpus())
        # failing reports (the 1e3 and 50x moduli) pin their worst samples too
        assert len(reports) == 2000 and sum(not r.passed for r in reports) == 690
        assert _report_digest(reports) == _REPORT_CORPUS_SHA256
        # the 800 fne reports alone keep the bits of the two-point form they have always had
        fne = [r for r in reports if r.name.startswith("fne")]
        assert len(fne) == 800 and _report_digest(fne) == _FNE_REPORTS_SHA256


# SHA-256 over float(v).hex() ("N" for None) of sqne_rho, then fne_rho, of every tree of _constant_corpus
_TREE_CONSTANTS_SHA256 = "cc3209dde66fb137d9c5624dd9ed106c7bd56c13d96b1ad93147a24de05ea576"


def _constant_corpus():
    # 4,800 plans, each built on plain, graded, overrelaxed and identity-padded leaves
    families = [
        random_halfspace_family(5, 8, seed=7),
        random_halfspace_family(5, 8, seed=7, gammas=lambda n: 0.3 + 0.12 * n),
        random_halfspace_family(5, 8, seed=7, gammas=lambda n: 4 / 3),
        OperatorFamily(lambda n: Identity() if n % 3 == 0 else Halfspace(np.eye(5)[n % 5], 1.0), np.zeros(5)),
    ]
    for seed in range(6):
        for c0_alpha_one in (False, True):
            for plan in random_plan_corpus(400, seed=seed, c0_alpha_one=c0_alpha_one):
                for family in families:
                    yield output_operator(plan, family)


class TestConstantBits:
    """The certified constants keep their values: a pinned hash over every tree's two constants."""

    def test_tree_constants_hash_pinned(self):
        digest, count = hashlib.sha256(), 0
        for T in _constant_corpus():
            for v in (T.sqne_rho, T.fne_rho):
                digest.update(("N" if v is None else float(v).hex()).encode())
                count += 1
        assert count == 38_400
        assert digest.hexdigest() == _TREE_CONSTANTS_SHA256


class NaNAway(Identity):
    """Fixes the origin and maps every other point to NaN."""

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x == 0.0).all(axis=-1, keepdims=True), x, np.nan)


class Scaled(Identity):
    """``x -> c * x``: expands every pair by the factor c."""

    def __init__(self, c):
        self.c = c

    def apply(self, x):
        return self.c * np.asarray(x, dtype=float)


_CHECKS = {
    "sqne": lambda node, rho, budget, c: check_sqne(node, rho, c, budget),
    "fne": lambda node, rho, budget, c: check_fne(node, rho, budget, center=c),
    "nonexpansive": lambda node, rho, budget, c: check_nonexpansive(node, budget, center=c),
}


class TestLazyJudgement:
    """A sampling check whose largest excess is at most 0 passes with no slack formed; every other
    is judged sample by sample against its own slack, and a failure keeps its worst."""

    @staticmethod
    def _lazy_and_full(monkeypatch, check):
        # the check's report, and the one _report makes, under the check's name, from the same
        # excesses with every slack formed first; also those slacks
        seen, real = [], strav.operators._report
        monkeypatch.setattr(strav.operators, "_report", lambda *a: seen.append(a) or real(*a))
        lazy = check()
        ((_, excess, slack, points),) = seen
        slacks = slack()
        return lazy, real(lazy.name, excess, slacks, points), slacks

    @staticmethod
    def _same(a, b):
        assert (a.name, a.passed, a.samples) == (b.name, b.passed, b.samples)
        assert a.max_violation.hex() == b.max_violation.hex()
        assert [p.tobytes() for p in a.worst or ()] == [p.tobytes() for p in b.worst or ()]

    @pytest.mark.parametrize("kind", sorted(_CHECKS))
    @pytest.mark.parametrize(
        "center",
        [[0.0, 0.0], [1e154, -3e150], [2.0**510, 1.0], [1e160, -3e155], [1e300, -1e300],
         [1.7976931348623157e308, -1e308]],
    )
    def test_a_center_of_any_size_reports_what_the_full_judgement_reports(self, monkeypatch, kind, center):
        # far beyond 1e150 (where a sample rounds to the center's grid) every slack stays finite
        # and the report is the full judgement's, whichever path it took
        budget, center = SampleBudget(count=200, seed=8, radius=1e150), np.array(center)
        if kind == "sqne" and np.abs(center).max() > 1e154:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="witness-not-fixed"):
                check_sqne(Identity(), 1.0, center, budget)  # the witness check's scale ||z|| overflows
            return
        nodes = [(Identity(), 1.0), (Primitive(Halfspace([0.0, 1.0], center[1])), 1.0)]
        nodes += [(Primitive(Halfspace([0.0, 1.0], center[1])), 1e3), (Relaxation(Identity(), 0.5), 0.0)]
        if kind != "sqne" and np.abs(center).max() < 1e300:
            nodes.append((Scaled(1.5), 0.0))  # it fixes no far center, and 1.5 * center must be finite
        for node, rho in nodes:
            lazy, full, slacks = self._lazy_and_full(monkeypatch, lambda: _CHECKS[kind](node, rho, budget, center))
            assert np.isfinite(slacks).all() and slacks.max() < 1.7e301
            self._same(lazy, full)
            monkeypatch.undo()

    def test_a_slack_that_overflows_fails_its_sample_unwarned(self, monkeypatch):
        # at (1e300, 1) the second coordinate of a sample moves: 1e-15 m ||h|| passes the float
        # range, and x -> 1.5 x, which expands that coordinate, fails there with no numpy warning
        budget, center = SampleBudget(count=50, seed=8, radius=1e150), np.array([1e300, 1.0])
        lazy, full, slacks = self._lazy_and_full(monkeypatch, lambda: check_nonexpansive(Scaled(1.5), budget, center=center))
        assert np.isinf(slacks).any() and not lazy.passed
        self._same(lazy, full)

    def test_the_far_centers_meet_both_paths(self):
        budget = SampleBudget(count=200, seed=8, radius=1e150)
        center = np.array([1e160, -3e155])
        node = Primitive(Halfspace([0.0, 1.0], center[1]))
        assert check_fne(node, 1.0, budget, center=center).passed
        rep = check_fne(Scaled(1.5), 0.0, budget, center=center)
        assert not rep.passed and rep.worst is not None

    @pytest.mark.parametrize("kind", sorted(_CHECKS))
    def test_a_nan_violation_fails(self, kind):
        rep = _CHECKS[kind](NaNAway(), 1.0, SampleBudget(count=30, seed=4), np.zeros(2))
        assert not rep.passed and math.isnan(rep.max_violation)
        assert rep.worst is not None and all(np.isfinite(p).all() for p in rep.worst)

    @pytest.mark.parametrize("kind", sorted(_CHECKS))
    def test_a_failing_check_keeps_its_worst(self, monkeypatch, kind):
        node, budget = Primitive(Overshoot([0.6, 0.8, 0.0], 0.0)), SampleBudget(count=100, seed=5)
        lazy, full, _ = self._lazy_and_full(monkeypatch, lambda: _CHECKS[kind](node, 1.0, budget, np.zeros(3)))
        assert not lazy.passed and len(lazy.worst) == (1 if kind == "sqne" else 2)
        self._same(lazy, full)

    @pytest.mark.parametrize("kind", ["sqne", "fne"])
    def test_each_sample_is_judged_at_the_size_of_its_points(self, kind):
        # x -> 0 at rho = 1 + 1e-13 violates by 1e-13 <h, h> with g = 0: within 1e-12 <h, h>, so it
        # passes at radius 1e6, where a scale of <g, g> = 0 would fail it; 1 + 1e-11 fails
        budget = SampleBudget(count=50, seed=2, radius=1e6)
        rep = _CHECKS[kind](Scaled(0.0), 1.0 + 1e-13, budget, np.zeros(2))
        assert rep.passed and rep.max_violation > 1e-3
        assert not _CHECKS[kind](Scaled(0.0), 1.0 + 1e-11, budget, np.zeros(2)).passed

    @pytest.mark.parametrize("kind", sorted(_CHECKS))
    def test_only_an_excess_above_zero_forms_the_slack(self, monkeypatch, kind):
        # a row-wise inner product for the excess; <h, h> and <g, g> for the slack only past an
        # excess above 0: not for the exact axis projection, whose excess is at most 0, but for a
        # rounded one that passes within its slack, and for a failing one
        calls, real = [], strav.operators._dot
        monkeypatch.setattr(strav.operators, "_dot", lambda a, b: calls.append(1) or real(a, b))
        far, w = _far_projection()
        for node, center, passed, dots in [
            (Primitive(Halfspace([1.0, 0.0, 0.0, 0.0, 0.0], 0.0)), np.zeros(5), True, 1),
            (far, w, True, 3),
            (Primitive(Overshoot([0.6, 0.8, 0.0, 0.0, 0.0], 0.0)), np.zeros(5), False, 3),
        ]:
            calls.clear()
            rep = _CHECKS[kind](node, 1.0, SampleBudget(count=200, seed=0, radius=1e-3), center)
            assert rep.passed == passed and (rep.max_violation > 0.0) == (dots == 3)
            assert len(calls) == dots


def _far_anchor_corpus():
    # 150 trees through a witness w of magnitude 1 to 1e12 in R^2 to R^29: a halfspace, then the
    # average of two relaxed halfspaces and a ball, then a box, each set holding w
    rng = np.random.default_rng(7)
    for trial in range(150):
        d = int(rng.integers(2, 30))
        w = rng.standard_normal(d) * 10.0 ** int(rng.integers(0, 13))
        halves = []
        for _ in range(3):
            a = rng.standard_normal(d)
            halves.append(Relaxation(Primitive(Halfspace(a, float(a @ w))), rng.uniform(0.3, 4 / 3)))
        c = w + rng.standard_normal(d)
        ball = Primitive(Ball(c, 1.5 * np.linalg.norm(w - c)))
        average = ConvexComb([halves[1], halves[2], ball], [0.3, 0.3, 0.4])
        yield trial, Composition([Relaxation(halves[0], 1.0), average, Primitive(Box(w - 1, w + 2))]), w


def _scaled_tree(j):
    # a tree like those of _far_anchor_corpus and its witness, every offset, radius and corner
    # times 2^j and the normals as they are: each apply and each probe point scales exactly
    rng, s = np.random.default_rng(5), 2.0**j
    w = rng.standard_normal(4) * 1e3
    halves = []
    for gamma in (1.0, 0.7, 1.2):
        a = rng.standard_normal(4)
        halves.append(Relaxation(Primitive(Halfspace(a, float(a @ w) * s)), gamma))
    c = w + rng.standard_normal(4)
    ball = Primitive(Ball(c * s, 1.5 * float(np.linalg.norm(w - c)) * s))
    average = ConvexComb([halves[1], halves[2], ball], [0.3, 0.3, 0.4])
    return Composition([halves[0], average, Primitive(Box((w - 1) * s, (w + 2) * s))]), w * s


class TestScaleInvariance:
    """Each check's slack is sized from its own terms, so no scale hides a violation or raises a
    false alarm: small radii catch an overreach, and far anchors pass exact moduli."""

    @pytest.mark.parametrize("radius", [1e-3, 1e-6, 1e-9])
    def test_an_overreach_is_caught_at_a_small_radius(self, radius):
        proj, budget = Primitive(Halfspace([1.0, 0.0, 0.0], 0.0)), SampleBudget(radius=radius)
        assert check_sqne(proj, 1.0, np.zeros(3), budget).passed
        assert not check_sqne(proj, 1.01, np.zeros(3), budget).passed
        assert check_fne(proj, 1.0, budget, center=np.zeros(3)).passed
        assert not check_fne(proj, 1.01, budget, center=np.zeros(3)).passed

    def test_the_far_anchor_corpus_raises_no_false_alarm(self):
        # each tree at its own constants, at radii down to 1e-9 of an anchor up to 1e12
        failed = dict.fromkeys(["sqne", "fne", "nonexpansive", "fne at 0"], 0)
        for trial, T, w in _far_anchor_corpus():
            for radius in (1.0, 1e-3, 1e-6, 1e-9):
                budget = SampleBudget(count=200, seed=trial, radius=radius)
                failed["sqne"] += not check_sqne(T, T.sqne_rho, w, budget).passed
                failed["fne"] += not check_fne(T, T.fne_rho, budget, center=w).passed
                failed["nonexpansive"] += not check_nonexpansive(T, budget, center=w).passed
                failed["fne at 0"] += not check_fne(T, 0.0, budget, center=w).passed
        assert failed == dict.fromkeys(failed, 0)

    def test_a_passing_fne_check_at_nonnegative_rho_passes_the_nonexpansive_check(self):
        # its excess is the nonexpansive one plus rho ||r||^2, term by term in the same rounding,
        # and the slack does not depend on rho
        verdicts = set()
        nodes = [(T, w) for trial, T, w in _far_anchor_corpus() if trial < 40]
        nodes += [(Primitive(Overshoot([0.6, 0.8, 0.0], 0.0)), np.zeros(3)), (Scaled(1.0 + 1e-13), np.ones(3))]
        for i, (T, w) in enumerate(nodes):
            for radius in (1.0, 1e-6):
                budget = SampleBudget(count=100, seed=i, radius=radius)
                ne = check_nonexpansive(T, budget, center=w)
                for rho in (0.0, 0.5, T.fne_rho or 1.0, 3.0):
                    fne = check_fne(T, rho, budget, center=w)
                    assert fne.max_violation >= ne.max_violation
                    assert ne.passed or not fne.passed
                    verdicts.add((fne.passed, ne.passed))
        assert verdicts == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("kind", sorted(_CHECKS))
    def test_a_check_reads_the_same_at_every_power_of_two_scale(self, kind):
        # every term scales by 4^j, the slack too: the verdict and max_violation / 4^j keep their bits
        def reports(j):
            T, w = _scaled_tree(j)
            budget = SampleBudget(count=200, seed=1, radius=1e-3 * 2.0**j)
            return [(r.passed, (r.max_violation / 4.0**j).hex())
                    for r in (_CHECKS[kind](T, rho, budget, w) for rho in (T.fne_rho, 1e3))]

        base = reports(0)
        assert base[0][0] and float.fromhex(base[0][1]) > 0.0  # a pass that formed its slack
        if kind != "nonexpansive":
            assert not base[1][0]
        for j in range(-100, 101):
            assert reports(j) == base, j


class TestReadOnlyBatch:
    """A batched apply writes only to arrays it allocated, never to the batch it was given."""

    @pytest.mark.parametrize("kind", [
        "halfspace", "hyperplane", "relaxed leaf", "relaxation 1.5", "convex comb", "string", "composition",
    ])
    def test_apply_leaves_a_read_only_batch_unchanged(self, kind):
        rng = np.random.default_rng(8)
        hs, hp = Halfspace(rng.standard_normal(4), 0.2), Hyperplane(rng.standard_normal(4), -0.1)
        node = {
            "halfspace": Primitive(hs),
            "hyperplane": Primitive(hp),
            "relaxed leaf": Relaxation(Primitive(hs), 0.7),
            "relaxation 1.5": Relaxation(Primitive(hp), 1.5),
            "convex comb": ConvexComb([Identity(), Primitive(hs), Relaxation(Primitive(hp), 1.2)], [0.25, 0.25, 0.5]),
            "string": Composition([Primitive(hs), Primitive(hp)]),
            "composition": Composition([Primitive(hs), Primitive(Ball(np.zeros(4), 1.0))]),
        }[kind]
        assert bool(node._rows) == (kind in ("halfspace", "hyperplane", "string"))
        x = rng.standard_normal((30, 4))
        x[::3] = 0.0  # inside the halfspace and the ball: rows that some nodes fix
        before = x.tobytes()
        x.flags.writeable = False
        out = node.apply(x)
        assert x.tobytes() == before
        assert out.shape == x.shape and not np.shares_memory(out, x)


def _child_by_child(node, x):
    # the composition's children applied one after another, as a batch is
    for child in node.children():
        x = child.apply(x)
    return x


def _spelled_out(sets, x):
    # the single-point halfspace / hyperplane projection, one set at a time
    for s in sets:
        t = float(x @ s.a) - s.b
        if not (t == 0.0 or (t < 0.0 and isinstance(s, Halfspace))):
            x = x - (t / float(s.a @ s.a)) * s.a
    return x


def _spelled_out_batch(sets, x):
    # each set's batch projection one after another: the offsets, clamped for a halfspace, over
    # a @ a, times a by broadcasting, plus 0.0, subtracted
    for s in sets:
        t = x @ s.a - s.b
        if isinstance(s, Halfspace):
            t = np.maximum(t, 0.0)
        x = x - ((t / float(s.a @ s.a))[..., None] * s.a + 0.0)
    return x


def _linear_sets(rng, dim, count):
    # halfspaces and hyperplanes with seeded normals and offsets, about one in three an equality
    return [
        (Hyperplane if rng.random() < 1 / 3 else Halfspace)(rng.standard_normal(dim), rng.normal())
        for _ in range(count)
    ]


@pytest.fixture
def sweeps(monkeypatch):
    # the row count of each run of a composition's batch loop, which a stacked convex combination never takes
    rows = []
    loop = strav.operators._sweep
    monkeypatch.setattr(strav.operators, "_sweep", lambda x, r: rows.append(len(r)) or loop(x, r))
    return rows


class TestStringLoop:
    """One point, or one batch, takes a string of halfspace and hyperplane projections in one loop."""

    @pytest.fixture
    def loops(self, monkeypatch):
        # counts the composition loop's runs; a set's own project binds the loop by another name
        calls = []
        loop = strav.operators._through
        monkeypatch.setattr(strav.operators, "_through", lambda x, rows: calls.append(1) or loop(x, rows))
        return calls

    @pytest.mark.parametrize("dim", [1, 5, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_point_gets_the_bits_of_the_children(self, loops, dim, seed):
        rng = np.random.default_rng(seed)
        for count in (1, 2, 6, 12):
            sets = _linear_sets(rng, dim, count)
            # gamma-1 projections, some behind a pass-through relaxation
            T = Composition([Relaxation(Primitive(s), 1.0) if i % 3 == 2 else Primitive(s)
                             for i, s in enumerate(sets)])
            for x in rng.standard_normal((8, dim)) * 3.0:
                before = len(loops)
                got = T.apply(x)
                assert len(loops) == before + 1
                assert got.tobytes() == _child_by_child(T, x).tobytes()
                assert got.tobytes() == _spelled_out(sets, x).tobytes()

    def test_a_point_on_a_set_is_handed_on(self, loops):
        # t == 0 exactly on every set: the very array comes back, -0.0 included
        x = np.array([-0.0, 1.5, -2.25])
        sets = [Halfspace([1.0, 0.0, 0.0], 0.0), Hyperplane([0.0, 1.0, 0.0], 1.5),
                Halfspace([0.0, 0.0, 2.0], -4.5), Hyperplane([0.0, 2.0, 1.0], 0.75)]
        T = Composition([Primitive(s) for s in sets])
        assert T.apply(x) is x and loops == [1]
        assert np.signbit(T.apply(x)[0])

    def test_every_set_holding_the_point_hands_back_the_very_array(self, loops):
        rng = np.random.default_rng(7)
        sets = [Halfspace(rng.standard_normal(5), 50.0) for _ in range(6)]
        T = Composition([Primitive(s) for s in sets])
        for x in rng.standard_normal((20, 5)):
            assert T.apply(x) is x
        assert len(loops) == 20

    def test_a_negative_zero_keeps_its_bits(self):
        # the first set holds x; the second (t > 0) subtracts +0.0 from each -0.0, which stays,
        # and the third (t < 0) subtracts -0.0, which turns it into +0.0, as one projection does
        x = np.array([-0.0, 2.0, -0.0, 1.0])
        sets = [Halfspace([1.0, 1.0, 0.0, 0.0], 5.0), Halfspace([0.0, 1.0, 0.0, 1.0], 1.0),
                Hyperplane([0.0, 0.0, 0.0, 1.0], 0.5)]
        for n, signed in ((2, True), (3, False)):
            T = Composition([Primitive(s) for s in sets[:n]])
            got = T.apply(x)
            assert got.tobytes() == _child_by_child(T, x).tobytes() == _spelled_out(sets[:n], x).tobytes()
            assert np.signbit(got[[0, 2]]).tolist() == [signed, signed]

    def test_a_nan_point_projects_to_nan(self):
        # a set refuses a NaN offset, so a NaN reaches a string only through the point
        x = np.array([math.nan, -2.0, 0.5])
        for mid in (Halfspace([1.0, 0.0, 0.0], 1.0), Hyperplane([0.0, 1.0, 1.0], 1.0)):
            sets = [Halfspace([0.0, 0.0, 1.0], 9.0), mid, Halfspace([1.0, 1.0, 0.0], 0.0)]
            T = Composition([Primitive(s) for s in sets])
            got = T.apply(x)
            assert np.isnan(got).all()
            assert got.tobytes() == _child_by_child(T, x).tobytes()

    def _assert_one_sweep(self, sets, x, sweeps):
        # a batch through the string runs one loop over its rows, with the bits of the sets one by one
        T = Composition([Primitive(s) for s in sets])
        sweeps.clear()
        got = T.apply(x)
        assert sweeps == [len(sets)] and got.shape == x.shape
        assert got.tobytes() == _spelled_out_batch(sets, x).tobytes() == _child_by_child(T, x).tobytes()
        return got

    def test_a_batch_runs_one_loop(self, loops, sweeps):
        rng = np.random.default_rng(3)
        sets = _linear_sets(rng, 5, 6)
        self._assert_one_sweep(sets, rng.standard_normal((7, 5)) * 3.0, sweeps)
        assert loops == []

    def test_a_batch_keeps_the_negative_zeros_of_inactive_rows(self, sweeps):
        # every set holds rows 0 and 1, whose zero offsets times a negative a_i are -0.0 as products;
        # rows 2 and 3 step through the last two sets, whose zero a_0 leaves column 0's signs
        sets = [Halfspace([1.0, -2.0, 0.5], 0.25), Halfspace([0.0, 1.0, -1.0], 0.0),
                Hyperplane([0.0, 0.0, -4.0], 0.0)]
        x = np.array([[-0.0, -0.0, -0.0], [-3.0, -0.0, -0.0], [-0.0, 2.0, -0.0], [-1.0, 3.0, -0.0]])
        got = self._assert_one_sweep(sets, x, sweeps)
        assert got[:2].tobytes() == x[:2].tobytes()
        assert np.signbit(got[:, 0]).all()

    def test_a_nan_row_stays_apart(self, sweeps):
        rng = np.random.default_rng(5)
        sets = _linear_sets(rng, 4, 5)
        x = rng.standard_normal((6, 4)) * 3.0
        x[2, 1] = math.nan
        got = self._assert_one_sweep(sets, x, sweeps)
        assert np.isnan(got[2]).all() and not np.isnan(np.delete(got, 2, axis=0)).any()

    def test_hyperplanes_step_at_a_negative_offset(self, sweeps):
        # every row starts with <a, x> - b < 0 for each set: halfspaces hold them all, and the first
        # hyperplane moves every row onto itself
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        x = rng.standard_normal((5, 4))
        b = (x @ a.T).max(axis=0) + 1.0
        got = self._assert_one_sweep([Hyperplane(r, v) for r, v in zip(a, b)], x, sweeps)
        assert not (got == x).all(axis=1).any()
        assert self._assert_one_sweep([Halfspace(r, v) for r, v in zip(a, b)], x, sweeps).tobytes() == x.tobytes()

    def test_a_stacked_batch_of_batches(self, sweeps):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 5)) * 3.0
        self._assert_one_sweep(_linear_sets(rng, 5, 6), x, sweeps)

    def test_a_one_row_batch(self, loops, sweeps):
        rng = np.random.default_rng(8)
        sets = _linear_sets(rng, 5, 6)
        x = rng.standard_normal((1, 5)) * 3.0
        self._assert_one_sweep(sets, x, sweeps)
        assert loops == []

    def test_a_point_of_another_dimension_is_refused_by_the_sets(self):
        T = Composition([Primitive(Halfspace([1.0, 0.0], 0.0)), Primitive(Hyperplane([0.0, 1.0], 0.0))])
        with pytest.raises(ValueError, match="dim-mismatch"):
            T.apply(np.ones(3))

    def test_a_batch_of_another_dimension_is_refused_by_the_sets(self, sweeps):
        T = Composition([Primitive(Halfspace([1.0, 0.0], 0.0)), Primitive(Hyperplane([0.0, 1.0], 0.0))])
        with pytest.raises(ValueError, match="dim-mismatch"):
            T.apply(np.ones((4, 3)))
        assert sweeps == []

    @pytest.mark.parametrize(
        "other",
        [
            lambda: Relaxation(Primitive(Halfspace([0.3, -1.0, 0.2], 0.1)), 0.5),
            lambda: Relaxation(Primitive(Hyperplane([1.0, 1.0, 0.0], 0.4)), 1.5),
            lambda: Primitive(Ball([0.0, 0.0, 0.0], 1.0)),
            lambda: Identity(),
            lambda: Primitive(Overshoot([0.6, 0.8, 0.0], 0.0)),
        ],
        ids=["relaxed-leaf", "relaxation", "ball", "identity", "subclass"],
    )
    def test_any_other_child_sends_a_point_child_by_child(self, loops, other):
        rng = np.random.default_rng(11)
        sets = _linear_sets(rng, 3, 4)
        T = Composition([Primitive(sets[0]), Primitive(sets[1]), other(), Primitive(sets[2]),
                         Primitive(sets[3])])
        assert T._rows == ()
        for x in rng.standard_normal((10, 3)) * 3.0:
            loops.clear()
            got = T.apply(x)
            assert loops == []
            assert got.tobytes() == _child_by_child(T, x).tobytes()

    def test_a_subclass_applies_its_own_apply(self, loops):
        # like a set's own project, a composition subclass's own apply offers no rows
        rng = np.random.default_rng(12)
        p = [Primitive(s) for s in _linear_sets(rng, 3, 4)]
        counting = CountingComposition(p[1:3])
        T = Composition([p[0], counting, p[3]])
        assert counting._rows == T._rows == ()
        for x in rng.standard_normal((5, 3)) * 3.0:
            assert T.apply(x).tobytes() == _child_by_child(T, x).tobytes()
        assert loops == [] and counting.applied == [()] * 10

    @pytest.mark.parametrize("seed", range(4))
    def test_a_nested_string_joins_the_loop(self, monkeypatch, seed):
        # a string inside a string, bare or behind an alpha-1 relaxation, and two levels deep:
        # one loop over all nine rows per apply, with the bits of the children one by one
        rows = []
        loop = strav.operators._through
        monkeypatch.setattr(strav.operators, "_through", lambda x, r: rows.append(len(r)) or loop(x, r))
        rng = np.random.default_rng(seed)
        p = [Primitive(s) for s in _linear_sets(rng, 4, 9)]
        inner = Composition([p[2], Relaxation(Composition([p[3], p[4]]), 1.0)])
        T = Composition([p[0], Composition([p[1]]), inner, Relaxation(Composition(p[5:8]), 1.0), p[8]])
        assert len(T._rows) == 9
        for x in rng.standard_normal((10, 4)) * 3.0:
            rows.clear()
            got = T.apply(x)
            assert rows == [9]
            assert got.tobytes() == _child_by_child(T, x).tobytes()


class TestReadAhead:
    """A long string reads the offsets of the rows behind a row that holds x in one stacked product.

    ``np.matmul(normals[:, None, :], x)`` runs numpy's dot on each row, so it decides bit for bit as
    ``x.dot(a)`` does, but for the sign of an exactly-zero dot, which moves no row either way.
    """

    @pytest.fixture
    def reads(self, monkeypatch):
        # the rows each read-ahead took, as (first, past the last read)
        got, ahead = [], strav.operators._String.ahead

        def spy(rows, x, i):
            got.append((i, min(i + 4096 // x.size, len(rows))))
            return ahead(rows, x, i)

        monkeypatch.setattr(strav.operators._String, "ahead", spy)
        return got

    @staticmethod
    def _case(rng, d):
        # a string of 1-40 rows and a point inside every set, some or none of them, perhaps strided,
        # perhaps with -0.0s, perhaps with an inf or a NaN entry
        base = rng.standard_normal(2 * d) * 10.0 ** rng.integers(-3, 4)
        x = base[::2] if rng.random() < 0.5 else base[:d].copy()
        if rng.random() < 0.3:
            x[rng.random(d) < 0.5] = -0.0
        normals = rng.standard_normal((int(rng.integers(1, 41)), d))
        where = rng.choice(["every", "some", "none"])
        sets = []
        for a in normals:
            dot = float(x.dot(a))
            inside = where == "every" or where == "some" and rng.random() < 0.8
            if rng.random() < 0.25:  # a hyperplane through x, or off it
                sets.append(Hyperplane(a, dot if inside else dot + 1.0))
            else:
                sets.append(Halfspace(a, dot + (abs(rng.normal()) if inside else -1.0)))
        if rng.random() < 0.15:
            x[rng.integers(d)] = rng.choice([math.inf, -math.inf, math.nan])
        return sets, x

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 64])
    def test_the_bits_of_the_per_row_loop(self, reads, d):
        rng = np.random.default_rng(1000 + d)
        for _ in range(120):
            sets, x = self._case(rng, d)
            T = Composition([Primitive(s) for s in sets])
            with np.errstate(all="ignore"):
                want, got = _spelled_out(sets, x), T.apply(x)
            assert got.tobytes() == want.tobytes()
            assert np.signbit(got).tolist() == np.signbit(want).tolist()
            assert (got is x) == (want is x)
        # the 4096-float span covers every string here, and strings of 9 rows or more read ahead
        assert reads and all(j - i >= strav.operators._AHEAD for i, j in reads)

    def test_a_string_of_eight_rows_or_fewer_keeps_a_plain_tuple(self, reads):
        rng = np.random.default_rng(5)
        for count in range(1, 10):
            T = Composition([Primitive(Halfspace(a, 10.0)) for a in rng.standard_normal((count, 3))])
            x = np.zeros(3)
            assert T.apply(x) is x and type(T._rows) is (tuple if count <= 8 else strav.operators._String)
        assert reads == [(1, 9)]

    def test_a_wide_point_reads_no_rows_ahead(self, reads):
        # 4096 // 600 = 6 rows a read could take: below the eight that pay for one
        rng = np.random.default_rng(6)
        T = Composition([Primitive(Halfspace(a, 100.0)) for a in rng.standard_normal((20, 600))])
        x = np.zeros(600)
        assert T.apply(x) is x and reads == [] and type(T._rows) is tuple

    def test_a_long_string_stacks_its_rows_once(self, reads):
        rng = np.random.default_rng(7)
        T = Composition([Primitive(Halfspace(a, 10.0)) for a in rng.standard_normal((30, 4))])
        x = np.zeros(4)
        assert T._rows._stack is None
        assert T.apply(x) is x
        stack = T._rows._stack
        assert T.apply(x) is x and T._rows._stack is stack and reads == [(1, 30), (1, 30)]
        assert stack[2] is None  # halfspaces only: no lower bound

    def test_an_all_negative_zero_point_whose_stacked_dots_flip_the_sign_of_zero(self, reads):
        # in R^1, x.dot(a) at x = [-0.0] is -0.0 for a > 0, the stacked product +0.0: every set
        # still holds x, on either reading, and the very array comes back
        a = np.array([[1.0], [2.0], [-3.0]] * 4)
        x = np.array([-0.0])
        stacked = np.matmul(a[:, None, :], x)[:, 0]
        each = np.array([x.dot(r) for r in a])
        assert (np.signbit(stacked) != np.signbit(each)).any() and (stacked == each).all()
        sets = [(Hyperplane if i % 3 == 0 else Halfspace)(r, 0.0) for i, r in enumerate(a)]
        T = Composition([Primitive(s) for s in sets])
        assert T.apply(x) is x and reads == [(1, 12)]
        assert np.signbit(T.apply(x)[0])

    def test_the_first_row_that_moves_x_is_where_the_loop_goes_on(self, reads):
        # rows 0-9 hold x, row 10 moves it: a read of rows 1-19 goes on at row 10, whose dot moves x;
        # row 11 holds the new point, and a read of the eight rows behind it finds none that moves it
        a = np.eye(3)[np.arange(20) % 3]
        b = np.full(20, 5.0)
        b[10] = -1.0
        sets = [Halfspace(r, v) for r, v in zip(a, b)]
        T = Composition([Primitive(s) for s in sets])
        x = np.zeros(3)
        got = T.apply(x)
        assert got.tobytes() == _spelled_out(sets, x).tobytes() and got[1] == -1.0
        assert reads == [(1, 20), (12, 20)]


def _weighted_child_by_child(node, x):
    # the combination's children applied one after another, their images summed in child order
    out = node.weights[0] * node.children_[0].apply(x)
    for w, child in zip(node.weights[1:], node.children_[1:]):
        out += w * child.apply(x)
    return out


class TestStackedStrings:
    """A convex combination of long strings sweeps a batch through all of them at once, stacked
    longest first, with the bits of the strings one by one; every other case goes child by child."""

    @staticmethod
    def _node(rng, d, lengths=(9, 12, 9), weights=(0.3, 0.5, 0.2)):
        # ragged strings of halfspaces and hyperplanes (every third row), the longest not first
        strings = [Composition([Primitive((Hyperplane if i % 3 == 1 else Halfspace)(rng.standard_normal(d),
                                                                                      rng.normal()))
                                for i in range(n)]) for n in lengths]
        return ConvexComb(strings, weights)

    @staticmethod
    def _batch(rng, shape):
        # scaled normal entries, a quarter of them -0.0, and a +inf, a -inf and a NaN in rows of their own
        x = rng.standard_normal(shape) * 3.0
        flat = x.reshape(-1, shape[-1])
        flat[rng.random(flat.shape) < 0.25] = -0.0
        for row, v in zip((1, 3, 4), (math.inf, -math.inf, math.nan)):
            if row < len(flat):
                flat[row, rng.integers(shape[-1])] = v
        return x

    def _assert_stacked(self, node, x, sweeps, read_only=True):
        before = x.tobytes()
        x.flags.writeable = not read_only
        sweeps.clear()
        with np.errstate(all="ignore"):
            got = node.apply(x)
            assert sweeps == [] and node._stack is not None
            want = _weighted_child_by_child(node, x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (5,), (8,), (203,), (4, 7), (0,)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_the_bits_of_the_strings_one_by_one(self, sweeps, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        for d in (1, 5, 20):
            node = self._node(rng, d)
            self._assert_stacked(node, self._batch(rng, shape + (d,)), sweeps)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_strings_and_batches(self, sweeps, seed):
        # string counts 1-5 of 9-20 rows, d up to 64, batches within the budget
        rng = np.random.default_rng(100 + seed)
        for _ in range(8):
            d, count = int(rng.choice([1, 2, 3, 7, 20, 64])), int(rng.integers(1, 6))
            weights = rng.random(count) + 0.5
            node = self._node(rng, d, rng.integers(9, 21, count), tuple(weights / weights.sum()))
            n = int(rng.integers(1, strav.operators._STACKED // (count * d) + 1))
            self._assert_stacked(node, self._batch(rng, (min(n, 300), d)), sweeps, read_only=rng.random() < 0.5)

    def test_an_inactive_row_keeps_its_negative_zeros(self, sweeps):
        # every set holds rows 0 and 1, whose zero steps times a negative a_i are -0.0 as products;
        # rows 2 and 3 step, and column 0, where every normal is zero, keeps its signs
        rng = np.random.default_rng(9)
        normals = np.abs(rng.standard_normal((20, 3))) * [0.0, -1.0, 1.0]
        sets = [Hyperplane(a, 0.0) if i % 5 == 4 else Halfspace(a, 1.0) for i, a in enumerate(normals)]
        node = ConvexComb([Composition([Primitive(s) for s in sets[:9]]),
                           Composition([Primitive(s) for s in sets[9:]])], (0.5, 0.5))
        x = np.array([[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [-0.0, -2.0, 3.0], [-0.0, 1.0, 4.0]])
        self._assert_stacked(node, x, sweeps)
        got = node.apply(x)
        assert got[:2].tobytes() == x[:2].tobytes() and np.signbit(got[:, 0]).all()

    def test_the_stack_is_built_once(self, sweeps):
        rng = np.random.default_rng(3)
        node = self._node(rng, 6)
        assert node._stack is None
        node.apply(np.zeros(6))  # one point: child by child
        assert node._stack is None and sweeps == []
        self._assert_stacked(node, rng.standard_normal((10, 6)), sweeps)
        stack = node._stack
        self._assert_stacked(node, rng.standard_normal((4, 2, 6)), sweeps)
        assert node._stack is stack

    def _assert_child_by_child(self, node, x, sweeps):
        sweeps.clear()
        got = node.apply(x)
        assert node._stack is None and sweeps[:1] == [len(node.children_[0]._rows)]  # its own loop
        assert got.tobytes() == _weighted_child_by_child(node, x).tobytes()

    def test_a_string_of_eight_rows_is_short(self, sweeps):
        rng = np.random.default_rng(4)
        node = self._node(rng, 5, (9, 8, 12))
        assert not node._strings
        self._assert_child_by_child(node, rng.standard_normal((6, 5)), sweeps)
        self._assert_stacked(self._node(rng, 5, (9, 9, 12)), rng.standard_normal((6, 5)), sweeps)

    def test_a_block_over_the_budget_goes_child_by_child(self, sweeps):
        # 4 strings x 512 points x 16 floats is the budget; one point more is over it
        rng = np.random.default_rng(5)
        lengths, weights = (9, 9, 10, 9), (0.25,) * 4
        self._assert_child_by_child(self._node(rng, 16, lengths, weights), rng.standard_normal((513, 16)), sweeps)
        self._assert_stacked(self._node(rng, 16, lengths, weights), rng.standard_normal((512, 16)), sweeps)

    def test_a_wide_string_is_short(self, sweeps):
        # 4096 // 513 = 7 rows a read-ahead could take, below the eight of a long string; 512 has 8
        rng = np.random.default_rng(6)
        node = self._node(rng, 513, (12, 10), (0.5, 0.5))
        assert not node._strings
        self._assert_child_by_child(node, rng.standard_normal((2, 513)), sweeps)
        self._assert_stacked(self._node(rng, 512, (12, 10), (0.5, 0.5)), rng.standard_normal((2, 512)), sweeps)

    def test_any_other_child_sends_the_batch_child_by_child(self, sweeps):
        rng = np.random.default_rng(7)
        strings = self._node(rng, 4, (10, 11), (0.5, 0.5)).children_
        for other in (Primitive(Halfspace(rng.standard_normal(4), 0.5)), Identity(),
                      Relaxation(strings[0], 0.5), Composition([Primitive(Ball(np.zeros(4), 1.0))] * 9)):
            node = ConvexComb(strings + (other,), (0.25, 0.25, 0.5))
            assert not node._strings
            self._assert_child_by_child(node, rng.standard_normal((5, 4)), sweeps)

    def test_a_batch_of_another_dimension_is_refused_by_the_sets(self):
        node = self._node(np.random.default_rng(8), 3)
        with pytest.raises(ValueError, match="dim-mismatch"):
            node.apply(np.ones((4, 5)))
        assert node._stack is None
