"""String stages and their plan rewrites, plus identity padding.

Stage operators are evaluated three ways (direct composition loop, the
plan rewrite, the padded infinite-family embedding) and must agree
bitwise where the arithmetic path is identical, to 1e-12 otherwise.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.control import f_value, verify_admissible
from strav.dsa import (
    StringStage,
    direct_eval,
    gdsa_to_gmsa,
    msa_embed,
)
from strav.fixtures import random_halfspace_family
from strav.gmsa import fne_bound, output_operator, sqne_bound
from strav.operators import Identity, SampleBudget, check_fne
from strav.sets import Halfspace, OperatorFamily


class TestStringStage:
    def test_strings_are_index_tuples(self):
        st = StringStage([(2, 0, 2), np.array([1, 3])], [0.5, 0.5])
        assert st.strings == ((2, 0, 2), (1, 3))
        assert all(type(i) is int for s in st.strings for i in s)

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="strings must be nonempty"):
            StringStage([(0,), ()], [0.5, 0.5])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="input-operator indices, >= 0"):
            StringStage([(0, -1)], [1.0])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            StringStage([(0,)], [0.9])  # does not sum to 1
        with pytest.raises(ValueError):
            StringStage([(0,), (1,)], [1.2, -0.2])
        with pytest.raises(ValueError):
            StringStage([(0,)], [1.0, 0.0])  # count mismatch

    def test_eps_floor(self):
        # the floor is derived from the weights, never declared
        with pytest.raises(TypeError):
            StringStage([(0,), (1,)], [0.9, 0.1], eps=0.2)
        with pytest.raises(TypeError):
            StringStage([(0,)], [1.0], eps=1.0)
        st = StringStage([(0,), (1,)], [0.7, 0.3])
        assert gdsa_to_gmsa(st).eps == 0.3

    @pytest.mark.parametrize("weights", [
        [0.2 * (1 - 1e-13), 1 - 0.2 * (1 - 1e-13)],  # a least weight just below 0.2
        [1.0 + 1e-13],  # a rounding above 1, whose plan floor stays 1
    ])
    def test_stage_is_judged_as_its_plan(self, weights):
        plan = gdsa_to_gmsa(StringStage([(i,) for i in range(len(weights))], weights))
        assert plan.validate() == ()
        assert plan.eps == min(*weights, 1.0)

    def test_image_unions_strings(self):
        st = StringStage([(0, 1), (3,)], [0.5, 0.5])
        assert gdsa_to_gmsa(st).output_indices() == {0, 1, 3}


class TestDirectEval:
    fam = random_halfspace_family(3, 4, seed=51)

    def test_single_string_is_composition(self):
        st = StringStage([(0, 2)], [1.0])
        x = np.random.default_rng(52).standard_normal(3) * 2.0
        want = self.fam.operator(2).apply(self.fam.operator(0).apply(x))
        assert_array_equal(direct_eval(st, self.fam, x), 1.0 * want)

    def test_average_of_strings(self):
        st = StringStage([(0,), (1, 2)], [0.25, 0.75])
        x = np.random.default_rng(53).standard_normal(3) * 2.0
        a = self.fam.operator(0).apply(x)
        b = self.fam.operator(2).apply(self.fam.operator(1).apply(x))
        assert_array_equal(direct_eval(st, self.fam, x), 0.25 * a + 0.75 * b)


class TestPlanRewrite:
    fam = random_halfspace_family(3, 4, seed=54)

    def test_reference_example(self):
        # two strings (0, 1) and (2,), equal weights
        st = StringStage([(0, 1), (2,)], [0.5, 0.5])
        plan = gdsa_to_gmsa(st)
        assert plan.output_indices() == {0, 1, 2}
        assert plan.N == 3
        node = output_operator(plan, self.fam)
        rng = np.random.default_rng(55)
        for _ in range(100):
            x = rng.standard_normal(3) * 3.0
            assert_allclose(node.apply(x), direct_eval(st, self.fam, x),
                            rtol=0.0, atol=1e-12)

    def test_single_string_still_gets_combination_step(self):
        plan = gdsa_to_gmsa(StringStage([(1, 0)], [1.0]))
        assert plan.N == 2
        assert plan.steps[2].c == 1
        assert plan.steps[2].weights == (1.0,)

    def test_eps_carried_to_plan(self):
        st = StringStage([(0,), (1,)], [0.6, 0.4])  # the least weight is the floor
        assert gdsa_to_gmsa(st).eps == 0.4

    def test_application_order_preserved(self):
        # string (0, 1): operator 0 first; projections onto nested
        # halfspaces do not commute, so a reversed rewrite would differ
        a0 = Halfspace(np.array([1.0, 1.0]) / np.sqrt(2.0), 0.0)
        a1 = Halfspace(np.array([1.0, 0.0]), 0.0)
        fam = OperatorFamily.from_sets([a0, a1], np.array([0.0, -1.0]))
        st = StringStage([(0, 1)], [1.0])
        x = np.array([2.0, 0.5])
        want = fam.operator(1).apply(fam.operator(0).apply(x))
        got = output_operator(gdsa_to_gmsa(st), fam).apply(x)
        assert_array_equal(got, want)
        reverse = fam.operator(0).apply(fam.operator(1).apply(x))
        assert not np.allclose(got, reverse)


class TestStageModulus:
    @pytest.mark.parametrize("gamma", [1.0, 2.0 / 3.0, 1.3])
    def test_stage_tree_certifies_its_string_length(self, gamma):
        # q relaxed projections composed: the tree certifies (2 - gamma) / gamma / q
        fam = random_halfspace_family(3, 3, seed=56, gammas=lambda n: gamma)
        for q in (1, 2, 3):
            node = output_operator(gdsa_to_gmsa(StringStage([tuple(range(q))], [1.0])), fam)
            want = (2.0 - gamma) / gamma / q
            assert_allclose(node.fne_rho, want, rtol=1e-15)
            rep = check_fne(node, node.fne_rho, SampleBudget(count=300, seed=q), center=np.zeros(3))
            assert rep.passed, str(rep)

    def test_string_composition_keeps_one_over_2q(self):
        # q plain projections composed: firmly nonexpansive at 1/(2q)
        fam = random_halfspace_family(3, 4, seed=56)
        for q, string in [(2, (0, 1)), (3, (0, 1, 2)), (4, (3, 2, 1, 0))]:
            plan = gdsa_to_gmsa(StringStage([string], [1.0]))
            node = output_operator(plan, fam)
            rep = check_fne(node, 1.0 / (2.0 * q), SampleBudget(count=300, seed=q), center=np.zeros(3))
            assert rep.passed, str(rep)

    def test_bound_past_the_float_range_is_zero(self):
        # 120 strings, each 400 long: the width product 120 * 400^120 passes the largest float
        plan = gdsa_to_gmsa(StringStage([tuple(range(400))] * 120, [1.0 / 120] * 120))
        assert sqne_bound(plan) == fne_bound(plan) == 0.0

    def test_stage_keeps_min_over_strings(self):
        fam = random_halfspace_family(3, 4, seed=57)
        st = StringStage([(0, 1), (2,)], [0.5, 0.5])
        node = output_operator(gdsa_to_gmsa(st), fam)
        rep = check_fne(node, 0.25, SampleBudget(count=300, seed=58), center=np.zeros(3))
        assert rep.passed, str(rep)


class TestMsaEmbed:
    def _base(self):
        rng = np.random.default_rng(59)
        sets = []
        for _ in range(3):
            a = rng.standard_normal(4)
            a /= np.linalg.norm(a)
            sets.append(Halfspace(a, 0.0))
        plans = [
            gdsa_to_gmsa(StringStage([(0, 1), (2,)], [0.5, 0.5], k=0)),
            gdsa_to_gmsa(StringStage([(1,), (2, 0)], [0.25, 0.75], k=1)),
        ]
        return sets, plans

    def test_padded_plans_are_bitwise_inert(self):
        sets, plans = self._base()
        fam, sched = msa_embed(sets, np.zeros(4), plans)
        base_fam = OperatorFamily.from_sets(sets, np.zeros(4))
        rng = np.random.default_rng(60)
        pts = rng.standard_normal((100, 4)) * 3.0
        for k in range(24):
            got = output_operator(sched.plan_at(k), fam).apply(pts)
            want = output_operator(plans[k % 2], base_fam).apply(pts)
            assert_array_equal(got, want)

    def test_pad_changes_index_set_not_values(self):
        sets, plans = self._base()
        fam, sched = msa_embed(sets, np.zeros(4), plans)
        k = 7  # f_value(7) = 3 > top index 2, so the pad kicks in
        assert f_value(k) == 3
        plan = sched.plan_at(k)
        assert 3 in plan.output_indices()
        assert isinstance(fam.operator(3), Identity)

    def test_identity_pads_meet_both_hypotheses(self):
        # a pad is an identity leaf, whose constants are +inf
        sets, plans = self._base()
        fam, sched = msa_embed(sets, np.zeros(4), plans)
        for k in (1, 3, 7, 15):  # f_value 1 and 2 run a base plan, 3 and 4 pad it
            plan = sched.plan_at(k)
            assert (plan.N > plans[k % 2].N) == (f_value(k) > 2)
            want = plan.eps / (2.0 * plan.width_product())
            assert sqne_bound(plan, fam) == fne_bound(plan, fam) == want

    def test_low_iterations_unpadded(self):
        sets, plans = self._base()
        _, sched = msa_embed(sets, np.zeros(4), plans)
        assert sched.plan_at(0).output_indices() == {0, 1, 2}

    def test_metadata_accounts_for_pad_step(self):
        sets, plans = self._base()
        _, sched = msa_embed(sets, np.zeros(4), plans)
        K, M = max(p.N for p in plans), 2
        assert sched.plan_metadata() == (K + 1, max(M, 2))

    def test_window_audit_over_500(self):
        sets, plans = self._base()
        _, sched = msa_embed(sets, np.zeros(4), plans)
        rep = verify_admissible(sched, 500, range(8))
        assert rep.passed
        assert sched.window_bound(0) == 2  # cycle length for base indices
        assert sched.window_bound(5) == 2**6
        assert sched.window_bound(10**12) == np.inf  # no 10^12-bit integer is built
        with pytest.raises(TypeError):  # base windows are the cycle's, never declared
            msa_embed(sets, np.zeros(4), plans, window_bounds={0: 7}.get)

    def test_single_operator_family(self):
        s = Halfspace([1.0, 0.0], 0.0)
        plan = gdsa_to_gmsa(StringStage([(0,)], [1.0]))
        fam, sched = msa_embed([s], np.array([0.0, 0.0]), [plan])
        x = np.array([2.0, 1.0])
        got = output_operator(sched.plan_at(1), fam).apply(x)  # f_value(1) = 1 padded
        assert_array_equal(got, s.project(x))

    def test_index_errors(self):
        sets, plans = self._base()
        with pytest.raises(ValueError, match="msa-index-error"):
            msa_embed(sets[:2], np.zeros(4), plans)  # plans touch index 2
        with pytest.raises(ValueError, match="msa-index-error"):
            msa_embed([], np.zeros(4), plans)
        with pytest.raises(ValueError, match="at least one template plan"):
            msa_embed(sets, np.zeros(4), [])
