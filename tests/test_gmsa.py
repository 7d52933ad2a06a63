"""Iteration plans: validation, recursion, materialization, and bounds.

``IterationPlan.output_indices`` is cross-checked against an independent recursive oracle,
and the modulus bounds against hand-computed width products, so the
module under test never certifies itself.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.control import CustomSchedule
from strav.fixtures import random_halfspace_family, random_plan_corpus, two_halfspace_family
from strav.gmsa import (
    IterationPlan,
    StepSpec,
    fne_bound,
    output_operator,
    rho_uniform,
    sqne_bound,
)
from strav.operators import Composition, ConvexComb, OperatorNode, Relaxation
from strav.sets import OperatorFamily
from strav.solver import RelaxationSchedule, StopRule, run


THREE_STEPS = (
    StepSpec.relaxation(0, 1.0),
    StepSpec(1, (1, -1), weights={1: 0.5, -1: 0.5}),
    StepSpec(2, (2, -2), order=(2, -2)),
)


def three_step_plan(eps=0.5, k=0):
    # relax U_0, average it with U_1, then compose with U_2
    return IterationPlan(k=k, N=3, eps=eps, steps=THREE_STEPS)


def relaxed_family(gamma):
    # three projections relaxed by gamma: sqne_rho = fne_rho = (2 - gamma) / gamma,
    # so below 1 (neither a cutter nor firmly nonexpansive) for gamma > 1
    return random_halfspace_family(3, 3, seed=5, gammas=lambda n: gamma)


class Declared(OperatorNode):
    """A projection's map under the constants declared here (None: a black box)."""

    def __init__(self, inner, sqne_rho=None, fne_rho=None):
        self.inner, self.dim = inner, inner.dim
        self.sqne_rho, self.fne_rho = sqne_rho, fne_rho

    def apply(self, x):
        return self.inner.apply(x)


def declared_family(sqne_rho=None, fne_rho=None):
    base = relaxed_family(1.0)
    nodes = [Declared(base.operator(n), sqne_rho, fne_rho) for n in range(3)]
    return OperatorFamily.from_sets(nodes, base.witness)


RELAXED = IterationPlan(k=0, N=1, eps=0.5, steps=[StepSpec.relaxation(0, 1.5)])


class TestStepSpec:
    def test_refs_stored_sorted(self):
        s = StepSpec(2, (3, -1, 0), order=(3, 0, -1))
        assert s.J == (-1, 0, 3)

    def test_weights_aligned_with_sorted_refs(self):
        s = StepSpec(1, (2, -1), weights={2: 0.25, -1: 0.75})
        assert s.J == (-1, 2)
        assert s.weights == (0.75, 0.25)

    def test_weights_need_a_mapping(self):
        with pytest.raises(TypeError, match="weights must map each reference"):
            StepSpec(1, (-1, -2), weights=(0.5, 0.5))

    def test_weight_missing_for_ref(self):
        # the step is built; its plan's validation names the reference with no weight
        s = StepSpec(1, (1, 2), weights={1: 1.0})
        assert s.weights == (1.0, None)
        plan = IterationPlan(k=0, N=3, eps=0.5, steps=[*THREE_STEPS[:2], s])
        assert plan.validate() == ((3, "weight missing for reference 2"),)

    def test_weight_outside_refs_refused(self):
        s = StepSpec(1, (-1, -2), weights={-1: 0.5, -2: 0.5, -3: 0.2})
        plan = IterationPlan(k=0, N=1, eps=0.25, steps=[s])
        with pytest.raises(ValueError, match="^invalid-plan: step 1: weight for reference -3 outside J$"):
            plan.require_valid()

    def test_widths(self):
        assert StepSpec.relaxation(-3, 1.0).P == 1
        assert StepSpec(1, (1, 2, -1), weights={1: 0.4, 2: 0.3, -1: 0.3}).P == 3
        # composition width counts repeats in the order, not distinct refs
        assert StepSpec(2, (1, -1), order=(1, -1, 1)).P == 3

    def test_classmethods(self):
        s = StepSpec.relaxation(-2, 1.5)
        assert (s.c, s.J, s.alpha) == (0, (-2,), 1.5)


class TestValidation:
    def test_good_plan(self):
        assert three_step_plan().validate() == ()

    def test_eps_out_of_range(self):
        assert three_step_plan(eps=0.0).validate() == ((0, "eps must lie in (0, 1], got 0.0"),)
        assert (0, "eps must lie in (0, 1], got 1.5") in three_step_plan(eps=1.5).validate()

    @pytest.mark.parametrize("N, issue", [(2, "need 2 steps, got 1"), (0, "N must be >= 1, got 0")])
    def test_step_count_must_be_n(self, N, issue):
        p = IterationPlan(k=0, N=N, eps=1.0, steps=[StepSpec.relaxation(0, 1.0)])
        assert (0, issue) in p.validate()

    def test_huge_step_count_refused_at_once(self):
        p = IterationPlan(k=0, N=10**18, eps=1.0, steps=[StepSpec.relaxation(0, 1.0)])
        assert p.validate() == ((0, f"need {10**18} steps, got 1"),)

    def test_dict_of_steps_is_not_a_step_list(self):
        # iterating a dict yields its keys: each step is the number 1, not a StepSpec
        p = IterationPlan(k=0, N=1, eps=1.0, steps={1: StepSpec.relaxation(0, 1.0)})
        assert p.validate() == ((1, "not a StepSpec"),)
        # a run keys the plan by its steps and refuses it before the first update
        relax = RelaxationSchedule.constant(1.0, 0.25, 0.5)
        with pytest.raises(ValueError, match="^invalid-plan: step 1: not a StepSpec$"):
            run(two_halfspace_family(), CustomSchedule(lambda k: p), relax, [1.0, 1.0])

    def test_forward_reference(self):
        steps = [StepSpec(2, (2, -1), order=(2, -1)), StepSpec.relaxation(0, 1.0)]
        p = IterationPlan(k=0, N=2, eps=1.0, steps=steps)
        v = p.validate()
        assert v != ()
        assert any("below step" in msg for _, msg in v)

    def test_kind0_shape(self):
        p = IterationPlan(k=0, N=1, eps=0.5, steps=[StepSpec(0, (-1, -2), alpha=1.0)])
        assert p.validate() != ()

    def test_kind0_alpha_window(self):
        mk = lambda a: IterationPlan(k=0, N=1, eps=0.25, steps=[StepSpec.relaxation(0, a)])
        assert mk(0.25).validate() == ()
        assert mk(1.75).validate() == ()
        assert mk(0.1).validate() != ()
        assert mk(1.9).validate() != ()

    def test_floor_below_the_absolute_slack_refuses_a_zero_alpha_or_weight(self):
        # alpha 0 is the identity and a weight 0 drops its reference: at eps = 1e-13 the
        # lower end is judged relative to eps, so neither counts as touching its input
        relax = IterationPlan(k=0, N=1, eps=1e-13, steps=[StepSpec.relaxation(0, 0.0)])
        assert relax.validate() == ((1, "alpha 0.0 outside [eps, 2 - eps]"),)
        comb = IterationPlan(k=0, N=1, eps=1e-13, steps=[StepSpec(1, (0, -1), weights={0: 1.0, -1: 0.0})])
        assert comb.validate() == ((1, "weights (0.0, 1.0) outside [eps, 1]"),)
        ok = IterationPlan(k=0, N=1, eps=1e-13, steps=[StepSpec.relaxation(0, 1e-13)])
        assert ok.validate() == ()

    def test_kind1_weights(self):
        def mk(w):
            return IterationPlan(
                k=0, N=1, eps=0.3, steps=[StepSpec(1, tuple(w), weights=w)]
            )

        assert mk({-1: 0.5, -2: 0.5}).validate() == ()
        assert mk({-1: 0.8, -2: 0.1}).validate() != ()      # 0.1 below eps
        assert mk({-1: 0.7, -2: 0.7}).validate() != ()      # sum != 1

    def test_kind2_order_onto(self):
        p = IterationPlan(
            k=0, N=1, eps=1.0, steps=[StepSpec(2, (-1, -2), order=(-1, -1))]
        )
        assert p.validate() != ()

    def test_unknown_kind(self):
        p = IterationPlan(k=0, N=1, eps=1.0, steps=[StepSpec(7, (-1,))])
        assert p.validate() != ()

    @pytest.mark.parametrize("spec, issue", [
        (StepSpec(0, (-1,), alpha=1.0, order=(-1,)), "kind-0 steps carry neither weights nor order"),
        (StepSpec(1, (-1,), alpha=1.0, weights={-1: 1.0}), "kind-1 steps carry neither alpha nor order"),
        (StepSpec(2, (-1,), weights={-1: 1.0}, order=(-1,)), "kind-2 steps carry neither alpha nor weights"),
    ])
    def test_mixed_parameters_rejected(self, spec, issue):
        p = IterationPlan(k=0, N=1, eps=1.0, steps=[spec])
        assert p.validate() == ((1, issue),)

    def test_require_valid_raises(self):
        p = three_step_plan(eps=2.0)
        with pytest.raises(ValueError, match="invalid-plan"):
            p.require_valid()

    def test_validation_memoized(self, validations):
        p = three_step_plan(eps=2.0, k=5)
        assert p.validate() is p.validate()
        with pytest.raises(ValueError, match="invalid-plan"):
            p.require_valid()
        assert validations == [5]  # derived once, read three times


def oracle_index_set(plan, n):
    # independent recursion: non-positive refs are inputs, positive refs
    # recurse through the step table
    if n <= 0:
        return {-n}
    out = set()
    for j in plan.steps[n].J:
        out |= oracle_index_set(plan, j)
    return out


class TestIndexSets:
    def test_against_recursive_oracle(self):
        for plan in random_plan_corpus(60, seed=17, n_inputs=6):
            assert plan.output_indices() == oracle_index_set(plan, plan.N)

    def test_output_indices(self):
        assert three_step_plan().output_indices() == {0, 1, 2}

    def test_derived_once(self):
        p = three_step_plan()
        assert p.output_indices() is p.output_indices()

    def test_invalid_plan_refused_on_first_call(self):
        with pytest.raises(ValueError, match="invalid-plan"):
            three_step_plan(eps=2.0).output_indices()


class TestBuild:
    fam = random_halfspace_family(4, 6, seed=23)

    def test_tree_shape(self):
        node = output_operator(three_step_plan(), self.fam)
        assert isinstance(node, Composition)
        comb = node.children()[0]
        assert isinstance(comb, ConvexComb)
        # combination children follow sorted J = (-1, 1): input U_1 first,
        # then the step-1 relaxation module
        assert isinstance(comb.children()[1], Relaxation)

    def test_shared_submodule_built_once(self):
        steps = [*THREE_STEPS[:2], StepSpec(2, (1, 2), order=(1, 2))]
        plan = IterationPlan(k=0, N=3, eps=0.5, steps=steps)
        node = output_operator(plan, self.fam)
        relax = node.children()[0]
        via_comb = node.children()[1].children()[1]  # sorted J = (-1, 1)
        assert relax is via_comb

    def test_matches_hand_built_tree(self):
        plan = three_step_plan()
        node = output_operator(plan, self.fam)
        u = [self.fam.operator(i) for i in range(3)]
        hand = Composition([ConvexComb([Relaxation(u[0], 1.0), u[1]], (0.5, 0.5)), u[2]])
        x = np.random.default_rng(29).standard_normal((8, 4)) * 2.0
        assert_array_equal(node.apply(x), hand.apply(x))

    def test_witness_fixed_by_output(self):
        for plan in random_plan_corpus(25, seed=19, n_inputs=6):
            node = output_operator(plan, self.fam)
            assert float(node.residual(self.fam.witness)) <= 1e-9

    @pytest.mark.parametrize("eps, step, image", [
        # a weight just above 1 and alpha just above 2 - eps, within the slack: the
        # plan validates, so its tree builds: the projection, or the reflection
        (0.5, StepSpec(1, [0], weights={0: 1 + 1e-13}), lambda x, p: p),
        (1e-13, StepSpec.relaxation(0, 2 + 5e-13), lambda x, p: 2.0 * p - x),
    ])
    def test_a_plan_at_the_top_of_its_ranges_builds(self, eps, step, image):
        plan = IterationPlan(k=0, N=1, eps=eps, steps=[step])
        assert plan.validate() == ()
        u = self.fam.operator(0)
        x = 3.0 * u.set.a  # outside the halfspace
        assert_allclose(output_operator(plan, self.fam).apply(x), image(x, u.apply(x)), atol=1e-11)

    def test_invalid_plan_refuses_to_build(self):
        with pytest.raises(ValueError, match="invalid-plan"):
            output_operator(three_step_plan(eps=0.0), self.fam)


class TestFamilyKeepsTrees:
    """``output_operator`` builds each plan structure's tree once per family and hands it back."""

    def test_one_tree_per_structure_and_family(self):
        first = random_halfspace_family(4, 6, seed=23)
        second = OperatorFamily.from_sets([first.operator(n) for n in range(6)], first.witness)
        T = output_operator(three_step_plan(k=0), first)
        assert output_operator(three_step_plan(k=5), first) is T
        U = output_operator(three_step_plan(k=5), second)
        assert U is not T and output_operator(three_step_plan(k=0), second) is U
        x = np.random.default_rng(29).standard_normal((8, 4)) * 2.0
        assert_array_equal(U.apply(x), T.apply(x))
        other = output_operator(three_step_plan(eps=0.25), first)  # eps is part of the structure
        assert other is not T

    def test_an_invalid_twin_is_refused_after_the_valid_tree_exists(self):
        fam = random_halfspace_family(4, 6, seed=23)
        output_operator(three_step_plan(), fam)
        with pytest.raises(ValueError, match="invalid-plan: step 0: eps"):
            output_operator(three_step_plan(eps=0.0), fam)
        # the last step's attributes, on an object that is not a StepSpec
        s = THREE_STEPS[2]
        twin = type("Twin", (), {a: getattr(s, a) for a in StepSpec.__slots__})()
        plan = IterationPlan(k=0, N=3, eps=0.5, steps=[*THREE_STEPS[:2], twin])
        with pytest.raises(ValueError, match="invalid-plan: step 3: not a StepSpec"):
            output_operator(plan, fam)
        assert len(fam._trees) == 1


class TestBounds:
    def test_width_product_by_hand(self):
        plan = three_step_plan()
        # widths: 1 (relaxation), 2 (pair average), 2 (pair composition)
        assert plan.width_product() == 4

    def test_sqne_bound_formula(self):
        plan = three_step_plan(eps=0.5)
        assert_allclose(sqne_bound(plan), 0.5 / (2.0 * 4.0), rtol=1e-15)

    def test_bound_formula_on_corpus(self):
        # with no family, no leaf is judged: both routes give the formula for every plan
        for plan in random_plan_corpus(40, seed=41, n_inputs=5):
            prod = math.prod(plan.steps[n].P for n in range(1, plan.N + 1))
            assert_allclose(sqne_bound(plan), plan.eps / (2.0 * prod), rtol=1e-15)
            assert fne_bound(plan) == sqne_bound(plan)

    def test_fne_bound_same_value_when_hypotheses_hold(self):
        plan = three_step_plan()  # the only kind-0 step uses alpha = 1
        assert fne_bound(plan, relaxed_family(1.0)) == fne_bound(plan) == sqne_bound(plan)

    def test_fne_bound_alpha_one_route_needs_no_fne_inputs(self):
        family = relaxed_family(1.3)  # fne_rho 0.54: not firmly nonexpansive
        assert family.operator(0).fne_rho < 1.0
        assert fne_bound(three_step_plan(), family) == sqne_bound(three_step_plan())

    def test_fne_bound_rejects_off_one_alpha_without_assertion(self):
        # alpha 1.5 over a leaf whose fne_rho is below 1: not firmly nonexpansive
        with pytest.raises(ValueError, match="fne-hypotheses-unmet: step 1 relaxes input 0 by alpha 1.5"):
            fne_bound(RELAXED, relaxed_family(1.3))
        # a firmly nonexpansive leaf restores the bound, as does judging no leaf
        assert fne_bound(RELAXED, relaxed_family(1.0)) == fne_bound(RELAXED) == sqne_bound(RELAXED)

    def test_fne_bound_requires_half_fne_inputs(self):
        family = declared_family(sqne_rho=1.0, fne_rho=0.4)
        match = "fne-hypotheses-unmet: step 1 references input 0, whose fne_rho is 0.4"
        with pytest.raises(ValueError, match=match):
            fne_bound(three_step_plan(), family)
        assert sqne_bound(three_step_plan(), family) == 0.5 / 8.0

    def test_sqne_bound_enforces_its_hypotheses(self):
        # the one-point route mirrors the two-point one: inputs at modulus
        # >= 1/2, and a relaxed input must be a cutter
        for family in (declared_family(sqne_rho=0.4, fne_rho=1.0), relaxed_family(1.3)):
            with pytest.raises(ValueError, match="sqne-hypotheses-unmet: step 1 .* input 0"):
                sqne_bound(RELAXED, family)
        # alpha = 1 everywhere needs no cutter; any other alpha does, within the
        # membership slack 1e-12 of 1 too, as Relaxation passes on its child's constant
        # only at alpha 1 exactly
        assert sqne_bound(three_step_plan(), relaxed_family(1.3)) == 0.5 / 8.0
        for alpha in (1 - 5e-13, 1 + 5e-13, 1 - 2e-12, 1 + 2e-12):
            plan = IterationPlan(k=0, N=1, eps=0.5, steps=[StepSpec.relaxation(0, alpha)])
            with pytest.raises(ValueError, match=f"step 1 relaxes input 0 by alpha {alpha}"):
                sqne_bound(plan, relaxed_family(1.3))
            assert sqne_bound(plan, relaxed_family(1.0)) == 0.25

    def test_black_box_leaf_meets_no_hypothesis(self):
        for plan in (three_step_plan(), RELAXED):
            for route, bound in (("sqne", sqne_bound), ("fne", fne_bound)):
                match = f"{route}-hypotheses-unmet: step 1 .*input 0.*, whose {route}_rho is None"
                with pytest.raises(ValueError, match=match):
                    bound(plan, declared_family())
                assert bound(plan, declared_family(1.0, 1.0)) == bound(plan)

    def test_rho_uniform(self):
        assert_allclose(rho_uniform(3, 4, 0.5), 0.5 / (2.0 * 64.0), rtol=1e-15)
        assert rho_uniform(1, 1, 1.0) == 0.5

    def test_rho_uniform_past_the_float_range_is_zero(self):
        # 143^144 passes the largest float: the sound floor 0.0, not an OverflowError
        assert rho_uniform(144, 143, 0.5) == 0.0
        # just inside the range the value keeps its bits
        assert rho_uniform(133, 199, 0.5) == 0.5 / (2.0 * float(199**133))

    def test_rho_uniform_validation(self):
        with pytest.raises(ValueError):
            rho_uniform(0, 3, 0.5)
        with pytest.raises(ValueError):
            rho_uniform(2, 0, 0.5)
        with pytest.raises(ValueError):
            rho_uniform(2, 2, 0.0)

    def test_uniform_covers_corpus(self):
        plans = random_plan_corpus(60, seed=43, n_inputs=6)
        K = max(p.N for p in plans)
        M = max(p.steps[n].P for p in plans for n in range(1, p.N + 1))
        floor = min(p.eps for p in plans)
        cover = rho_uniform(K, M, floor)
        for p in plans:
            assert sqne_bound(p) >= cover


    def test_tree_constant_is_at_least_every_bound_that_holds(self):
        """Wherever a plan bound's hypotheses hold, the tree carries a constant at least the bound.

        Induction over the steps, with Q_n the product of the widths of step n and of
        every step it reaches: module n carries a constant of at least eps / (2 Q_n).
        An input a step references carries at least 1/2 >= eps / 2 (an identity, +inf,
        counts in no minimum).  A kind-0 step at alpha 1 passes its input's constant on;
        at alpha in [eps, 2 - eps] its input carries rho >= 1, so the relaxation rule
        gives (1 + rho - alpha) / alpha >= (2 - alpha) / alpha >= eps / (2 - eps) >= eps / 2.
        A combination takes the minimum over its children, each at least eps / (2 Q_j)
        with Q_j <= Q_n.  A composition of P_n listed children, m <= P_n of them not the
        identity, divides that minimum by m.  Q_N is at most the plan's width product,
        so the output's constant is at least eps / (2 prod P_i), the bound.  The
        two-point route runs the same rules on ``fne_rho``, and ``sqne_rho`` takes the
        larger of its own route and ``fne_rho``.  Over 6,000 plans, 11,904 bounds hold.

        A kind-0 alpha a rounding away from 1 is not alpha 1: the tree's constant falls
        below its input's, so the bound needs a cutter input.  Over leaves at gamma 4/3
        (constant 0.5) a plan at eps 1 would otherwise be bounded by 0.5, above its tree.
        """
        gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)  # criterion 04's family
        families = (random_halfspace_family(5, 8, seed=7),
                    random_halfspace_family(5, 8, seed=7, gammas=lambda n: gammas[n]))

        def held(plans, families):
            count = 0
            for plan in plans:
                for family in families:
                    tree = output_operator(plan, family)
                    for bound, rho in ((sqne_bound, tree.sqne_rho), (fne_bound, tree.fne_rho)):
                        try:
                            b = bound(plan, family)
                        except ValueError:
                            continue
                        assert rho is not None and rho >= b, (plan.k, bound.__name__, rho, b)
                        count += 1
            return count

        corpus = [plan for seed in range(5) for alpha_one in (False, True)
                  for plan in random_plan_corpus(300, seed=seed, c0_alpha_one=alpha_one)]
        assert held(corpus, families) == 11_904
        near_one = [IterationPlan(k=n, N=1, eps=eps, steps=[StepSpec.relaxation(-n, alpha)])
                    for alpha in (1 - 5e-13, 1 + 5e-13, 1 - 2e-12, 1 + 2e-12)
                    for eps in (0.5, 1.0) for n in range(8)]
        near_one = [plan for plan in near_one if not plan.validate()]  # eps 1 admits 1 +- 5e-13 only
        steep = random_halfspace_family(5, 8, seed=7, gammas=lambda n: 4.0 / 3.0)
        assert len(near_one) == 48
        assert held(near_one, (*families, steep)) == 180


class TestStructureKey:
    def test_plans_of_shared_steps_derive_their_own_verdicts(self, validations):
        p, q = three_step_plan(), three_step_plan(k=7)
        assert q.steps == p.steps and q.steps is not p.steps
        assert q.validate() == () and p.validate() == ()
        assert validations == [7, p.k]
        assert q.structure_key() == p.structure_key()

    def test_structure_key_is_plain_data_equal_exactly_when_the_plans_are(self):
        base = three_step_plan()
        plans = [
            base,
            three_step_plan(eps=0.25),
            IterationPlan(k=0, N=3, eps=0.5, steps=[StepSpec.relaxation(0, 1.5), *THREE_STEPS[1:]]),
            IterationPlan(k=0, N=2, eps=0.5, steps=THREE_STEPS[:2]),
        ]
        for i, p in enumerate(plans):
            for j, q in enumerate(plans):
                assert (p.structure_key() == q.structure_key()) == (i == j)
            relabeled = IterationPlan(k=3, N=p.N, eps=p.eps, steps=p.steps.values())
            assert relabeled.structure_key() == p.structure_key()
        assert three_step_plan().structure_key() == base.structure_key()  # equal content, built apart

        def plain(v):  # builtins only, so hashing the key runs no Python-level __hash__
            return type(v) in (int, float, bool, type(None)) or type(v) is tuple and all(map(plain, v))

        assert all(plain(p.structure_key()) for p in plans)

    def test_a_stray_weight_key_is_part_of_the_key(self):
        # a plan whose weights carry one key outside J keys apart from its valid twin, so it never
        # runs on the twin's tree: a run that alternates them refuses it at k = 1
        def plan(weights):
            return IterationPlan(k=0, N=1, eps=0.5, steps=[StepSpec(1, (0, -1), weights=weights)])

        valid, stray = plan({0: 0.5, -1: 0.5}), plan({0: 0.5, -1: 0.5, -2: 0.5})
        assert valid.validate() == () and valid.structure_key() != stray.structure_key()
        seen = []
        sched = CustomSchedule(lambda k: seen.append(k) or (valid, stray)[k % 2])
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        with pytest.raises(ValueError, match="^invalid-plan: step 1: weight for reference -2 outside J$"):
            run(two_halfspace_family(), sched, relax, [3.0, 2.0], StopRule(5, None, None))
        assert seen == [0, 1]
