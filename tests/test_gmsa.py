"""Iteration plans: validation, recursion, materialization, and bounds.

``IterationPlan.index_set`` is cross-checked against an independent recursive oracle,
and the modulus bounds against hand-computed width products, so the
module under test never certifies itself.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.fixtures import random_halfspace_family, random_plan_corpus
from strav.gmsa import (
    InputAssumptions,
    IterationPlan,
    StepSpec,
    fne_bound,
    output_operator,
    rho_uniform,
    sqne_bound,
)
from strav.operators import Composition, ConvexComb, Relaxation


def three_step_plan(eps=0.5, assume=InputAssumptions()):
    # relax U_0, average it with U_1, then compose with U_2
    steps = {
        1: StepSpec.relaxation(0, 1.0),
        2: StepSpec(1, (1, -1), weights={1: 0.5, -1: 0.5}),
        3: StepSpec(2, (2, -2), order=(2, -2)),
    }
    return IterationPlan(k=0, N=3, eps=eps, steps=steps, assume=assume)


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
        with pytest.raises(ValueError, match="invalid-plan"):
            StepSpec(1, (1, 2), weights={1: 1.0})

    def test_weight_outside_refs_refused(self):
        with pytest.raises(ValueError, match="invalid-plan: weight for reference -3 outside J"):
            StepSpec(1, (-1, -2), weights={-1: 0.5, -2: 0.5, -3: 0.2})

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
        p = three_step_plan().replaced(eps=0.0)
        assert p.validate() != ()
        p = three_step_plan().replaced(eps=1.5)
        assert p.validate() != ()

    def test_step_keys_must_cover_1_to_n(self):
        p = IterationPlan(k=0, N=2, eps=1.0, steps={1: StepSpec.relaxation(0, 1.0)})
        assert p.validate() != ()

    def test_huge_step_count_refused_at_once(self):
        p = IterationPlan(k=0, N=10**18, eps=1.0, steps={1: StepSpec.relaxation(0, 1.0)})
        v = p.validate()
        assert v != ()
        assert (0, f"steps must be keyed 1..{10**18}, got [1]") in v

    def test_forward_reference(self):
        steps = {1: StepSpec(2, (2, -1), order=(2, -1)), 2: StepSpec.relaxation(0, 1.0)}
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

    def test_mixed_parameters_rejected(self):
        spec = StepSpec(0, (-1,), alpha=1.0, order=(-1,))
        p = IterationPlan(k=0, N=1, eps=1.0, steps=[spec])
        assert p.validate() != ()

    def test_require_valid_raises(self):
        p = three_step_plan().replaced(eps=2.0)
        with pytest.raises(ValueError, match="invalid-plan"):
            p.require_valid()

    def test_validation_memoized(self, validations):
        p = three_step_plan().replaced(k=5, eps=2.0)
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
            for n in range(1, plan.N + 1):
                assert plan.index_set(n) == oracle_index_set(plan, n)

    def test_input_ref_is_singleton(self):
        assert three_step_plan().index_set(-4) == {4}

    def test_output_indices(self):
        assert three_step_plan().output_indices() == {0, 1, 2}

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="invalid-plan"):
            three_step_plan().index_set(9)


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
        steps = {
            1: StepSpec.relaxation(0, 1.0),
            2: StepSpec(1, (1, -1), weights={1: 0.5, -1: 0.5}),
            3: StepSpec(2, (1, 2), order=(1, 2)),
        }
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

    def test_invalid_plan_refuses_to_build(self):
        p = three_step_plan().replaced(eps=0.0)
        with pytest.raises(ValueError, match="invalid-plan"):
            output_operator(p, self.fam)


class TestBounds:
    def test_width_product_by_hand(self):
        plan = three_step_plan()
        # widths: 1 (relaxation), 2 (pair average), 2 (pair composition)
        assert plan.width_product() == 4

    def test_sqne_bound_formula(self):
        plan = three_step_plan(eps=0.5)
        assert_allclose(sqne_bound(plan), 0.5 / (2.0 * 4.0), rtol=1e-15)

    def test_bound_formula_on_corpus(self):
        for plan in random_plan_corpus(40, seed=41, n_inputs=5):
            prod = math.prod(plan.steps[n].P for n in range(1, plan.N + 1))
            assert_allclose(sqne_bound(plan), plan.eps / (2.0 * prod), rtol=1e-15)

    def test_fne_bound_same_value_when_hypotheses_hold(self):
        plan = three_step_plan()  # the only kind-0 step uses alpha = 1
        assert fne_bound(plan) == sqne_bound(plan)

    def test_fne_bound_alpha_one_route_needs_no_fne_inputs(self):
        weak = InputAssumptions(firmly_nonexpansive=False)
        plan = three_step_plan(assume=weak)
        assert fne_bound(plan) == sqne_bound(plan)

    def test_fne_bound_rejects_off_one_alpha_without_assertion(self):
        weak = InputAssumptions(firmly_nonexpansive=False)
        steps = {1: StepSpec.relaxation(0, 1.5)}
        plan = IterationPlan(k=0, N=1, eps=0.5, steps=steps, assume=weak)
        with pytest.raises(ValueError, match="fne-hypotheses-unmet"):
            fne_bound(plan)
        # asserting the stronger input property restores the bound
        assert fne_bound(plan.replaced(assume=InputAssumptions())) == sqne_bound(plan)

    def test_fne_bound_requires_half_fne_inputs(self):
        plan = three_step_plan(assume=InputAssumptions(half_fne=False))
        with pytest.raises(ValueError, match="fne-hypotheses-unmet"):
            fne_bound(plan)

    def test_sqne_bound_enforces_its_hypotheses(self):
        # the one-point route mirrors the two-point one: inputs at modulus
        # >= 1/2, and a relaxed input must be a cutter
        steps = {1: StepSpec.relaxation(0, 1.5)}
        for weak in (InputAssumptions(half_sqne=False), InputAssumptions(cutters=False)):
            plan = IterationPlan(k=0, N=1, eps=0.5, steps=steps, assume=weak)
            with pytest.raises(ValueError, match="sqne-hypotheses-unmet"):
                sqne_bound(plan)
        # alpha = 1 everywhere needs no cutter assertion
        assert sqne_bound(three_step_plan(assume=InputAssumptions(cutters=False))) == 0.5 / 8.0

    def test_rho_uniform(self):
        assert_allclose(rho_uniform(3, 4, 0.5), 0.5 / (2.0 * 64.0), rtol=1e-15)
        assert rho_uniform(1, 1, 1.0) == 0.5

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


class TestReplaced:
    def test_steps_shared_fields_swapped(self):
        p = three_step_plan()
        q = p.replaced(k=7)
        assert q.k == 7 and q.N == p.N
        assert all(q.steps[n] is p.steps[n] for n in q.steps)

    def test_copy_derives_its_own_verdict(self, validations):
        p = three_step_plan()
        q = p.replaced(k=7)
        assert q.validate() == () and p.validate() == ()
        assert validations == [7, p.k]
        assert q.structure_key() == p.structure_key()

    def test_assume_swap(self):
        weak = InputAssumptions(cutters=False)
        assert three_step_plan().replaced(assume=weak).assume.cutters is False
