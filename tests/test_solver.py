"""Iteration drivers: step-size certification, stopping, traces, audits.

The central oracle is a hand-rolled relaxed-projection loop executed with
the same floating-point operations; driver traces must match it bitwise,
not merely to a tolerance.
"""

import dataclasses
import hashlib
import math
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import strav.gmsa
import strav.solver
import strav.superiorize
from strav.config import parse_config
from strav.control import (
    CustomSchedule,
    CyclicSchedule,
    PowerOfTwoSchedule,
    f_value,
    uniform_modulus,
    verify_admissible,
)
from strav.dsa import gdsa_to_gmsa, msa_embed
from strav.fixtures import axis_halfspace_family, random_halfspace_family, two_halfspace_family
from strav.gmsa import IterationPlan, StepSpec, output_operator
from strav.numeric import _admits, _within, as_vector, norm
from strav.operators import ConvexComb, Identity, Primitive, Relaxation
from strav.sets import Box, Halfspace, Hyperplane, OperatorFamily
from strav.solver import (
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
    Trace,
    away_from,
    check_fejer,
    constant_direction,
    random_unit_directions,
    run,
    run_perturbed,
)
from strav.superiorize import BetaGrid, linear_objective, run_superiorized


class TestRelaxationSchedule:
    def test_interval_endpoints(self):
        r = RelaxationSchedule.constant(0.25, 0.25, 0.5)
        assert r.lo == 0.25
        assert_allclose(r.hi, 1.25)

    def test_fejer_constant_formula(self):
        r = RelaxationSchedule.constant(0.5, 0.1, 0.05)
        assert_allclose(r.fejer_constant, 0.1 / (1.0 + 0.05 - 0.1), rtol=1e-15)

    def test_lam_outside_interval_rejected(self):
        r = RelaxationSchedule(lambda k: 1.5, 0.25, 0.05)  # hi = 0.8
        with pytest.raises(ValueError, match=r"step size 1.5 at iteration 0 outside"):
            r.lam(0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RelaxationSchedule.constant(1.5, 0.25, 0.05),
            lambda: RelaxationSchedule.constant(-1.0, 0.25, 0.05),
            lambda: RelaxationSchedule.cycle([0.5, 1.5], 0.25, 0.05),
        ],
        ids=["constant-above", "constant-below", "cycle-entry"],
    )
    def test_constant_and_cycle_check_values_at_construction(self, make):
        with pytest.raises(ValueError, match=r"step size .* outside \[0.25, 0.8"):
            make()

    @pytest.mark.parametrize("value", [0.0, -5e-13])
    def test_floor_below_the_absolute_slack_refuses_a_step_of_zero_or_less(self, value):
        # the lower end is judged relative to eps, so eps = 1e-13 admits no lambda <= 0
        with pytest.raises(ValueError, match="outside"):
            RelaxationSchedule.constant(value, 1e-13, 0.5)
        assert RelaxationSchedule.constant(1e-13, 1e-13, 0.5).lam(0) == 1e-13

    @pytest.mark.parametrize("excess, empty", [(0.0, False), (4e-13, False), (6e-13, True), (2e-12, True)])
    def test_interval_is_empty_exactly_when_it_refuses_its_own_floor(self, excess, empty):
        # one rule judges the emptiness check and every step size, so an interval that
        # builds admits its floor eps as a step size
        eps = 0.5 + excess
        if empty:
            with pytest.raises(ValueError, match="empty step range"):
                RelaxationSchedule.interval(eps, 0.0)
        else:
            assert RelaxationSchedule.constant(eps, eps, 0.0).lam(0) == eps

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError, match="at least one step size"):
            RelaxationSchedule.cycle([], 0.25, 0.05)

    @pytest.mark.parametrize("rho", [-1.0, float("nan")])
    def test_interval_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            RelaxationSchedule.interval(0.5, rho)

    def test_cycle(self):
        r = RelaxationSchedule.cycle([0.3, 0.6], 0.25, 0.5)
        assert [r.lam(k) for k in range(4)] == [0.3, 0.6, 0.3, 0.6]

    def test_sweep_covers_endpoints(self):
        r = RelaxationSchedule.sweep(0.1, 0.05, points=5)
        vals = {r.lam(k) for k in range(5)}
        assert min(vals) == pytest.approx(0.1)
        assert max(vals) == pytest.approx(0.95)
        for k in range(20):
            assert r.lo - 1e-12 <= r.lam(k) <= r.hi + 1e-12

    def test_sweep_with_huge_point_count_builds_at_once(self):
        r = RelaxationSchedule.sweep(0.1, 0.05, points=10**18)
        assert r.lam(0) == r.lo
        assert r.lo <= r.lam(10**17) <= r.hi

    def test_sweep_repeats_the_materialized_grid_bitwise(self):
        r = RelaxationSchedule.sweep(0.1, 0.05, points=17)
        lo, hi = RelaxationSchedule.interval(0.1, 0.05)
        grid = [lo + (hi - lo) * i / 16 for i in range(17)]
        assert [r.lam(k) for k in range(41)] == [grid[k % 17] for k in range(41)]

    def test_sweep_near_the_float_ceiling_stays_finite(self):
        # span * i overflows from i = 2 on, where the value divides first; below that it
        # keeps the bits of lo + span * i / den
        r = RelaxationSchedule.sweep(0.25, 1e308, points=17)
        lo, hi = RelaxationSchedule.interval(0.25, 1e308)
        vals = [r.lam(k) for k in range(17)]
        assert all(math.isfinite(v) and _admits(v, lo, hi) for v in vals)
        assert vals == sorted(vals) and vals[-1] == hi
        assert vals[:2] == [lo, lo + (hi - lo) * 1 / 16]
        assert [r.lam(k) for k in range(17, 34)] == vals

    @pytest.mark.parametrize("make, period, per_call", [
        (lambda: RelaxationSchedule.constant(0.5, 0.1, 0.05), 1, 0),
        (lambda: RelaxationSchedule.cycle([0.3, 0.6, 0.9], 0.1, 0.05), 3, 0),
        (lambda: RelaxationSchedule.sweep(0.1, 0.05, points=17), 17, 0),
        (lambda: RelaxationSchedule(lambda k: 0.2 + 0.1 * (k % 5), 0.1, 0.05), 5, 1),
        (lambda: RelaxationSchedule.sweep(0.1, 0.05, points=10**18), 17, 1),  # 51 calls, no period
    ], ids=["constant", "cycle", "sweep-17", "rule", "sweep-1e18"])
    def test_a_table_admits_each_step_size_once(self, make, period, per_call):
        # a table is admitted at construction and read by lam; a rule is admitted at every call
        r = make()
        admitted, admit = [], r._admit
        r._admit = lambda v, k=None: admitted.append(k) or admit(v, k)
        got = [r.lam(k) for k in range(3 * period)]
        assert admitted == list(range(3 * period)) * per_call
        assert all(r.lo <= v <= r.hi for v in got)

    @pytest.mark.parametrize("values", [0.5, [0.5, True], [0.5, "0.5"], [None]])
    def test_cycle_refuses_anything_but_a_list_of_numbers(self, values):
        with pytest.raises(ValueError, match="list of real step sizes"):
            RelaxationSchedule.cycle(values, 0.25, 0.05)

    def test_sweep_refuses_a_point_count_beyond_the_float_range(self):
        # lam(k) divides by points - 1 as a float: 10**400 used to build and
        # then raise OverflowError at the first use
        with pytest.raises(ValueError, match="at most"):
            RelaxationSchedule.sweep(0.25, 0.1, points=10**400)

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_sweep_needs_two_points(self, points):
        with pytest.raises(ValueError, match="sweep points must be an integer >= 2"):
            RelaxationSchedule.sweep(0.1, 0.05, points=points)

    @staticmethod
    def _edges(lo, hi):
        # each end of the admitted window, written two ways, and the floats one ulp around it
        ends = (lo * (1.0 - 1e-12), lo - 1e-12 * lo, hi + 1e-12, lo, hi)
        return sorted({v for e in ends for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))})

    @staticmethod
    def _verdict(make):
        try:
            return make()
        except ValueError as exc:
            assert "outside" in str(exc)
            return None

    @pytest.mark.parametrize("eps, rho", [(0.25, 0.05), (1e-13, 0.5), (0.5, 0.0), (1.0, 1.0), (0.1, 3.7)])
    def test_lam_admits_exactly_what_the_membership_rule_admits(self, eps, rho):
        lo, hi = RelaxationSchedule.interval(eps, rho)
        for v in self._edges(lo, hi):
            v = float(v)
            want = v if _admits(v, lo, hi) else None
            assert self._verdict(lambda: RelaxationSchedule(lambda k: v, eps, rho).lam(3)) == want, v
            assert self._verdict(lambda: RelaxationSchedule.constant(v, eps, rho).lam(0)) == want, v
            assert self._verdict(lambda: RelaxationSchedule.cycle([lo, v], eps, rho).lam(1)) == want, v
        # a sweep's grid, its computed top end included, is admitted value for value
        for points in (2, 17, 10**18):
            r = RelaxationSchedule.sweep(eps, rho, points=points)
            span, den = hi - lo, points - 1
            for k in (0, 1, points - 2, points - 1):
                v = lo + span * k / den
                assert _admits(v, lo, hi) and r.lam(k) == v


class TestPerturbationSchedule:
    def test_power_betas(self):
        p = PerturbationSchedule.power(0.01, 2.0, constant_direction([1.0, 0.0]))
        for k in (0, 1, 5):
            b, v = p.at(k, np.zeros(2))
            assert_allclose(b, 0.01 / (k + 1) ** 2, rtol=1e-15)
            assert_array_equal(v, [1.0, 0.0])

    def test_power_requires_summable_exponent(self):
        with pytest.raises(ValueError):
            PerturbationSchedule.power(0.01, 1.0, constant_direction([1.0]))
        # zero scale is allowed at any exponent: there is nothing to sum
        PerturbationSchedule.power(0.0, 1.0, constant_direction([1.0]))

    @pytest.mark.parametrize(
        "c, p", [(0.01, 400.0), (0.0, 400.0), (0.01, 1e308), (0.0, 1e308), (0.0, -400.0)]
    )
    def test_power_past_the_float_range(self, c, p):
        # (k+1)^p overflows at k = 5 for p = 400 and at k = 1 for p = 1e308;
        # for c = 0, p = -400 it underflows to 0.0 by k = 10**6, and 0 / 0.0 raises
        sched = PerturbationSchedule.power(c, p, constant_direction([1.0]))
        betas = [sched.at(k, np.zeros(1))[0] for k in (0, 4, 5, 10**6)]
        assert all(type(b) is float and 0.0 <= b < math.inf for b in betas)
        assert betas == sorted(betas, reverse=True)
        if c == 0.0:
            assert betas == [0.0] * 4

    def test_power_tail_stays_below_its_finite_head(self):
        # p = 100: the power leaves the float range near k = 1,200
        sched = PerturbationSchedule.power(1e300, 100.0, constant_direction([1.0]))
        betas = [sched.at(k, np.zeros(1))[0] for k in range(1_150, 1_300)]
        assert betas == sorted(betas, reverse=True)
        assert betas[0] > 0.0 and betas[-1] < 1e300 / sys.float_info.max

    def test_power_keeps_its_bits_where_finite(self):
        sched = PerturbationSchedule.power(0.01, 2.0, constant_direction([1.0]))
        x = np.zeros(1)
        assert all(sched.at(k, x)[0] == 0.01 / (k + 1) ** 2.0 for k in range(10**5))

    def test_direction_norm_capped(self):
        p = PerturbationSchedule(lambda k: 0.1, lambda k, x: np.array([3.0, 4.0]))
        with pytest.raises(ValueError, match="exceeds 1"):
            p.at(0, np.zeros(2))

    def test_negative_beta_rejected(self):
        p = PerturbationSchedule(lambda k: -0.1, lambda k, x: np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            p.at(0, np.zeros(2))

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        p = PerturbationSchedule(lambda k: beta, constant_direction([1.0, 0.0]))
        with pytest.raises(ValueError, match="at k=3 must be finite"):
            p.at(3, np.zeros(2))

    @pytest.mark.parametrize("v", [[1.0], [0.5, 0.5, 0.0], [[0.5, 0.5]]])
    def test_direction_of_another_shape_rejected(self, v):
        # a 1-vector broadcasts over every coordinate, a row vector over a 2-D point
        p = PerturbationSchedule.power(0.5, 2.0, lambda k, x: np.array(v))
        with pytest.raises(ValueError, match="at k=4, iterate shape"):
            p.at(4, np.array([-3.0, -3.0]))

    @staticmethod
    def _accepts(sched, x):
        try:
            sched.at(0, x)
        except ValueError as exc:
            assert "exceeds 1" in str(exc) or "iterate shape" in str(exc)
            return False
        return True

    @staticmethod
    def _norm_rule(v):
        # the exact test: the direction's norm exceeds 1 by at most the slack
        return bool(_within(float(norm(v)) - 1.0))

    def test_a_unit_direction_rounded_up_skips_the_norm(self, monkeypatch):
        # u / ||u|| whose squares sum to 1 + 2**-52: the fast test takes it, no norm computed
        v = np.array([float.fromhex("-0x1.a85d239d9ebd7p-1"), float.fromhex("0x1.1e75c402ca532p-1")])
        assert v.dot(v) == 1.0 + 2.0**-52 and self._norm_rule(v)

        def no_norm(x):
            raise AssertionError("norm recomputed")

        monkeypatch.setattr(strav.solver, "norm", no_norm)
        b, got = PerturbationSchedule(lambda k: 0.5, lambda k, x: v).at(0, np.zeros(2))
        assert b == 0.5 and got is v

    def test_direction_accepted_exactly_as_by_its_norm(self):
        edge = 1.0 + (1e-9 + 1e-12)  # the largest excess the norm test admits
        sizes = [1.0, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9, edge]
        sizes += [np.nextafter(s, toward) for s in (1.0 + 1e-9, edge) for toward in (0.0, 2.0)]
        rng = np.random.default_rng(5)
        for dim in (1, 2, 5, 20):
            units = [np.eye(dim)[0]] + [u / norm(u) for u in rng.standard_normal((3, dim))]
            for unit in units:
                for size in sizes:
                    v = float(size) * unit
                    p = PerturbationSchedule(lambda k: 0.5, lambda k, x, v=v: v)
                    assert self._accepts(p, np.zeros(dim)) == self._norm_rule(v), (dim, size)
        # along an axis the norm is the coordinate itself: both sides of each edge are met
        axis = [self._accepts(PerturbationSchedule(lambda k: 0.5, lambda k, x, s=s: np.array([0.0, s])),
                              np.zeros(2)) for s in map(float, sizes)]
        assert axis == [True, True, True, False, True, True, True, True, False]
        # many random directions near the unit sphere, at both sides of the tolerance
        for dim in (5, 20):
            for v in rng.standard_normal((2000, dim)):
                v = v / norm(v) * (1.0 + rng.uniform(-2e-9, 3e-9))
                p = PerturbationSchedule(lambda k: 0.5, lambda k, x, v=v: v)
                assert self._accepts(p, np.zeros(dim)) == self._norm_rule(v)

    @pytest.mark.parametrize(
        "v, ok",
        [([math.nan, 0.0], False), ([0.0, math.inf], False), ([-math.inf, 0.0], False),
         ([0.0, 0.0], True), ([0.6, -0.8], True), ([1.0], False), ([0.5, 0.5, 0.0], False)],
        ids=["nan", "inf", "-inf", "zero", "unit", "short", "long"],
    )
    def test_direction_edge_values(self, v, ok):
        p = PerturbationSchedule(lambda k: 0.5, lambda k, x: np.array(v))
        assert self._accepts(p, np.zeros(2)) == ok

    def test_a_refilled_buffer_is_checked_again(self):
        # a rule that hands back one buffer, refilled: nothing is cached by the array's identity
        buf = np.empty(2)

        def direction(k, x):
            buf[:] = (0.6, 0.8) if k == 0 else (3.0, 4.0)
            return buf

        p = PerturbationSchedule(lambda k: 0.5, direction)
        b, v = p.at(0, np.zeros(2))
        assert v is buf
        with pytest.raises(ValueError, match="direction norm 5.0 exceeds 1 at k=1"):
            p.at(1, np.zeros(2))

    def test_from_lists_replay(self):
        betas = [0.5, 0.25]
        vecs = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        p = PerturbationSchedule.from_lists(betas, vecs)
        b, v = p.at(1, np.zeros(2))
        assert b == 0.25
        assert_array_equal(v, [0.0, -1.0])

    def test_away_from_unit_or_zero(self):
        d = away_from(np.zeros(2))
        assert_allclose(np.linalg.norm(d(0, np.array([3.0, 4.0]))), 1.0, rtol=1e-15)
        assert_array_equal(d(0, np.zeros(2)), np.zeros(2))

    def test_random_unit_directions_seeded(self):
        d1 = random_unit_directions(3, seed=5)
        d2 = random_unit_directions(3, seed=5)
        x = np.zeros(3)
        assert_array_equal(d1(4, x), d2(4, x))
        assert_allclose(np.linalg.norm(d1(0, x)), 1.0, rtol=1e-12)


class TestStopRule:
    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            StopRule(max_iters=-1)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 2.5, True, "3"])
    def test_cap_must_be_a_whole_number(self, cap):
        # NaN and inf never stopped a run, 2.5 ran 3 updates and True ran 1
        with pytest.raises(ValueError, match=f"iteration cap must be an integer >= 0, got {cap!r}"):
            StopRule(max_iters=cap, residual_tol=None, step_tol=None)

    def test_numpy_integer_cap_accepted(self):
        assert StopRule(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("field", ["residual_tol", "step_tol"])
    @pytest.mark.parametrize("bad", ["1e-10", -1.0, -1, float("nan"), True, [1e-10]])
    def test_tolerances_must_be_none_or_nonnegative_real(self, field, bad):
        with pytest.raises(ValueError, match=field):
            StopRule(**{field: bad})

    def test_tolerances_accept_none_zero_and_reals(self):
        StopRule(residual_tol=None, step_tol=None)
        StopRule(residual_tol=0, step_tol=np.float64(1e-3))


class TestDriverAgainstHandLoop:
    def test_bitwise_equality_50_iterations(self):
        fam = two_halfspace_family()
        sched = CyclicSchedule.over_indices([0, 1])
        relax = RelaxationSchedule.cycle([0.8, 1.2], 0.25, 0.5)
        x0 = np.array([2.0, 3.0])
        tr = run(fam, sched, relax, x0, StopRule(50, None, None), record_stride=1)

        sets = [fam.operator(0).set, fam.operator(1).set]
        lams = [0.8, 1.2]
        x = x0.copy()
        for k in range(50):
            t = sets[k % 2].project(x)
            lam = lams[k % 2]
            x = t if lam == 1.0 else x + lam * (t - x)
            assert_array_equal(tr.xs[k + 1], x)
        assert tr.n_updates == 50
        assert tr.stop_reason == "max_iters"

    def test_lambda_one_short_circuits_to_operator_value(self):
        fam = two_halfspace_family()
        sched = CyclicSchedule.over_indices([0, 1])
        relax = RelaxationSchedule.constant(1.0, 0.25, 0.5)
        x0 = np.array([1.7, -0.3])
        tr = run(fam, sched, relax, x0, StopRule(1, None, None), record_stride=1)
        assert_array_equal(tr.xs[1], fam.operator(0).set.project(x0))


class TestStopping:
    fam = two_halfspace_family()
    sched = CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)

    def test_residual_fires_at_feasible_start(self):
        tr = run(self.fam, self.sched, self.relax, np.array([-1.0, -1.0]), StopRule())
        assert tr.stop_reason == "residual"
        assert tr.n_updates == 0
        assert tr.n_rows == 1

    def test_step_reported_one_iteration_late(self):
        # a huge step tolerance fires after the first update; the row for
        # the resulting iterate is still recorded
        tr = run(
            self.fam, self.sched, self.relax, np.array([5.0, 5.0]),
            StopRule(max_iters=100, residual_tol=None, step_tol=1e9),
        )
        assert tr.stop_reason == "step"
        assert tr.n_updates == 1

    def test_step_wins_over_residual(self):
        # the first update is small enough to arm the step criterion and
        # lands on a feasible point; the pending "step" outranks the
        # residual criterion that also holds at that iterate
        tr = run(
            self.fam, self.sched, self.relax, np.array([1e-4, -1.0]),
            StopRule(max_iters=100, residual_tol=1e-10, step_tol=1e-3),
        )
        assert tr.stop_reason == "step"
        assert tr.n_updates == 1
        assert tr.residual[-1] <= 1e-10

    def test_max_iters(self):
        tr = run(self.fam, self.sched, self.relax, np.array([4.0, 4.0]), StopRule(5, None, None))
        assert tr.stop_reason == "max_iters"
        assert tr.n_updates == 5
        assert tr.n_rows == 6

    def test_final_row_has_zero_step_and_slack(self):
        tr = run(self.fam, self.sched, self.relax, np.array([4.0, 4.0]), StopRule(5, None, None))
        assert tr.step[-1] == 0.0
        assert tr.fejer_slack[-1] == 0.0


class TestPerturbedDriver:
    fam = two_halfspace_family()
    sched = CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
    x0 = np.array([3.0, 2.0])

    def test_zero_beta_bitwise_equals_plain(self):
        plain = run(self.fam, self.sched, self.relax, self.x0, StopRule(30, None, None),
                    record_stride=1)
        pert = PerturbationSchedule.power(0.0, 2.0, constant_direction([1.0, 0.0]))
        noisy = run_perturbed(self.fam, self.sched, self.relax, pert, self.x0,
                              StopRule(30, None, None), record_stride=1)
        assert_array_equal(noisy.xs, plain.xs)
        assert_array_equal(noisy.residual, plain.residual)
        assert noisy.pert_mag.max() == 0.0

    def test_aggregates_recorded_for_replay(self):
        pert = PerturbationSchedule.power(0.1, 2.0, away_from(self.fam.witness))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, self.x0,
                           StopRule(10, None, None))
        assert len(tr.pert_betas) == 11
        replay = PerturbationSchedule.from_lists(tr.pert_betas, tr.pert_vectors)
        tr2 = run_perturbed(self.fam, self.sched, self.relax, replay, self.x0,
                            StopRule(10, None, None))
        assert_array_equal(tr2.dist_witness, tr.dist_witness)

    def test_broadcast_direction_stops_the_run_at_k0(self):
        # the bounded-perturbation contract: ||x^0 + beta v - x^0|| would be 0.5 * sqrt(2),
        # not the 0.5 the pert_mag column records
        pert = PerturbationSchedule(lambda k: 0.5, constant_direction([1.0]))
        with pytest.raises(ValueError, match="shape \\(1,\\) at k=0"):
            run_perturbed(self.fam, self.sched, self.relax, pert, np.array([-3.0, -3.0]),
                          StopRule(3, None, None))

    def test_recorded_aggregates_are_float64_arrays(self):
        pert = PerturbationSchedule.power(0.1, 2.0, away_from(self.fam.witness))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, self.x0,
                           StopRule(10, None, None))
        assert isinstance(tr.pert_vectors, np.ndarray)
        assert tr.pert_vectors.dtype == np.float64 and tr.pert_vectors.shape == (tr.n_rows, 2)
        assert isinstance(tr.pert_betas, np.ndarray)
        assert tr.pert_betas.dtype == np.float64 and tr.pert_betas.shape == (tr.n_rows,)
        for k, x in enumerate(tr.xs):
            b, v = pert.at(k, x)
            assert tr.pert_betas[k] == b
            assert_array_equal(tr.pert_vectors[k], v)
            assert tr.pert_mag[k] == norm(b * v)

    def test_residual_measured_at_perturbed_point(self):
        # a perturbation strong enough to push the feasible start back
        # outside must show up in the residual column
        pert = PerturbationSchedule.power(2.0, 2.0, constant_direction([1.0, 0.0]))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, np.array([-1.0, -1.0]),
                           StopRule(3, None, None))
        assert tr.residual[0] == 1.0


class TestDivergenceGuard:
    def test_non_finite_iterate_raises(self):
        class Explode(Identity):
            def apply(self, x):
                x = np.asarray(x, dtype=float)
                if np.linalg.norm(x) < 1e-12:
                    return x
                return x * np.inf

        fam = OperatorFamily(lambda n: Explode(), np.zeros(2))
        sched = CyclicSchedule.over_indices([0])
        relax = RelaxationSchedule.constant(0.5, 0.25, 0.5)
        with pytest.raises(ValueError, match="numerical-divergence"):
            run(fam, sched, relax, np.array([1.0, 1.0]), StopRule(5, None, None))

    def test_overflowing_residual_of_a_finite_iterate_is_not_divergence(self):
        class Flip(Identity):
            def apply(self, x):
                return -np.asarray(x, dtype=float)

        fam = OperatorFamily(lambda n: Flip(), np.zeros(2))
        sched = CyclicSchedule.over_indices([0])
        relax = RelaxationSchedule.constant(0.5, 0.25, 0.5)
        with np.errstate(over="ignore"):
            tr = run(fam, sched, relax, np.array([1e200, 1e200]), StopRule(0, None, None))
        assert tr.residual[0] == np.inf
        assert tr.stop_reason == "max_iters"

    def test_non_finite_iterate_handed_back_raises(self):
        # the overflowing update lands on -inf; the identity then hands that point back
        class Flip(Identity):
            def apply(self, x):
                return -np.asarray(x, dtype=float)

        fam = OperatorFamily(lambda n: Flip() if n == 0 else Identity(), np.zeros(2))
        sched = CyclicSchedule.over_indices([0, 1])
        relax = RelaxationSchedule.constant(0.5, 0.25, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="numerical-divergence: non-finite iterate at k=1"):
                run(fam, sched, relax, np.array([1e308, 1e308]), StopRule(5, None, None))


def composition_schedule():
    """Criterion 06/07 geometry: inputs 0..4 composed with one dyadic tail index."""

    def rule(k):
        order = (0, -1, -2, -3, -4, -(5 + f_value(k)))
        return IterationPlan(k=k, N=1, eps=1.0, steps=[StepSpec(2, set(order), order=order)])

    return CustomSchedule(
        rule, window_bounds=lambda n: 1 if n <= 4 else 2 ** (n - 4), metadata=(1, 6)
    )


def test_perturbed_composition_run_keeps_its_csv_bits(tmp_path):
    # criterion 07's first run, pinned byte for byte: 10,259 updates of the 6-leaf composition,
    # each from a perturbed point, with 21 monitored sets
    sched = composition_schedule()
    relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(sched, 1.0))
    rng = np.random.default_rng(0)
    x0 = 3.0 + rng.uniform(0.0, 2.0, size=5)
    v = np.abs(rng.standard_normal(5))
    v /= np.linalg.norm(v)
    pert = PerturbationSchedule.power(1e-2, 2.0, constant_direction(v))
    tr = run_perturbed(axis_halfspace_family(5), sched, relax, pert, x0, StopRule(10**5, 1e-10, None),
                       monitored=range(21))
    text = tr.to_csv(tmp_path / "trace.csv")
    assert (tr.n_updates, tr.stop_reason, len(text)) == (10259, "residual", 2967834)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1aed43322eef048121056fdfdea18fbb53361d19c8657f1b7fd5a601eae49b06"
    )


class TestResidualStopAtReportedIterate:
    """A residual stop holds at x^k too, not only at the perturbed point u^k."""

    fam = axis_halfspace_family(5)
    sched = composition_schedule()
    relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(sched, 1.0))
    stop = StopRule(10**5, 1e-10, None)

    def _start(self):
        # criterion 07's seed 0, with the direction flipped inward
        rng = np.random.default_rng(0)
        x0 = 3.0 + rng.uniform(0.0, 2.0, size=5)
        v = np.abs(rng.standard_normal(5))
        return x0, v / np.linalg.norm(v)

    def test_inward_perturbation_stops_near_every_set(self):
        x0, v = self._start()
        pert = PerturbationSchedule.power(1e-2, 2.0, constant_direction(-v))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, x0, self.stop,
                           monitored=range(21))
        assert tr.stop_reason == "residual"
        assert tr.set_distances[-1].max() <= 1e-6

    def test_inward_superiorization_stops_near_every_set(self):
        x0, v = self._start()
        tr = run_superiorized(self.fam, self.sched, self.relax, linear_objective(v),
                              BetaGrid.geometric(0.5, M=2), x0, self.stop, monitored=range(21))
        assert tr.stop_reason == "residual"
        assert tr.set_distances[-1].max() <= 1e-6


class TestTreeMemo:
    """One output operator per plan structure and run."""

    @staticmethod
    def _spy(monkeypatch):
        built = []

        def spy(plan, family):
            built.append(plan.k)
            return output_operator(plan, family)

        monkeypatch.setattr(strav.solver, "output_operator", spy)
        return built

    def test_power_of_two_run_builds_one_tree_per_structure(self, monkeypatch):
        built = self._spy(monkeypatch)
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        tr = run(axis_halfspace_family(5), sched, relax, 3.0 * np.ones(5),
                 StopRule(1000, None, None))
        assert tr.n_updates == 1000
        assert built == [2**n - 1 for n in range(10)]  # first k with f_value(k) = n

    def test_cyclic_run_builds_one_tree_per_template(self, monkeypatch):
        built = self._spy(monkeypatch)
        fam = two_halfspace_family()
        sched = CyclicSchedule.over_indices([0, 1])
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        run(fam, sched, relax, np.array([3.0, 2.0]), StopRule(30, None, None))
        assert built == [0, 1]
        run(fam, sched, relax, np.array([3.0, 2.0]), StopRule(30, None, None))
        assert built == [0, 1, 0, 1]  # the memo lives for one run

    def test_runs_over_one_family_build_each_structure_once(self, monkeypatch):
        # each run asks for its trees again; the family answers from the trees it keeps
        asked = self._spy(monkeypatch)
        built = []

        class CountedRelaxation(Relaxation):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(strav.gmsa, "Relaxation", CountedRelaxation)
        fam = axis_halfspace_family(5)
        for _ in range(3):
            sched = PowerOfTwoSchedule(eps=0.1)  # fresh plans of the same structures
            relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
            run(fam, sched, relax, 3.0 * np.ones(5), StopRule(1000, None, None))
        assert asked == [2**n - 1 for n in range(10)] * 3
        assert len(built) == 10
        other = axis_halfspace_family(5)  # another family builds its own trees
        run(other, sched, relax, 3.0 * np.ones(5), StopRule(1000, None, None))
        assert len(built) == 20

    def test_memoized_trees_give_the_fresh_build_iterates(self):
        fam = axis_halfspace_family(5)
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        tr = run(fam, sched, relax, 3.0 * np.ones(5), StopRule(100, None, None))
        x = 3.0 * np.ones(5)
        for k in range(100):
            tx = output_operator(sched.plan_at(k), fam).apply(x)
            lam = relax.lam(k)
            x = tx if lam == 1.0 else x + lam * (tx - x)
            assert_array_equal(tr.xs[k + 1], x)

    def test_same_steps_with_invalid_eps_still_raise(self):
        valid = IterationPlan(k=0, N=1, eps=0.5, steps=[StepSpec.relaxation(0, 1.0)])
        invalid = IterationPlan(k=0, N=1, eps=1.5, steps=valid.steps.values())
        sched = CustomSchedule(lambda k: valid if k == 0 else invalid)
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        with pytest.raises(ValueError, match="invalid-plan"):
            run(two_halfspace_family(), sched, relax, np.array([3.0, 2.0]),
                StopRule(5, None, None))

    def test_a_stored_plan_is_keyed_once_per_run(self, monkeypatch):
        # after the build, the driver reads a stored plan's tree from its slot, not by key
        keyed, key = [], IterationPlan.structure_key
        monkeypatch.setattr(IterationPlan, "structure_key", lambda plan: keyed.append(plan.k) or key(plan))

        def build(plan, family):  # output_operator keys the plan it builds: not the driver's call
            n = len(keyed)
            T = output_operator(plan, family)
            del keyed[n:]
            return T

        monkeypatch.setattr(strav.solver, "output_operator", build)
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        for _ in range(2):
            run(axis_halfspace_family(5), sched, relax, 3.0 * np.ones(5), StopRule(1000, None, None))
        assert keyed == [2**n - 1 for n in range(10)] * 2  # the memo lives for one run

    def test_a_plan_shared_by_two_families_takes_each_familys_tree(self):
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        families = axis_halfspace_family(5), random_halfspace_family(5, 16, seed=3)
        fresh = [run(fam, PowerOfTwoSchedule(eps=0.1), relax, 3.0 * np.ones(5), StopRule(1000, None, None))
                 for fam in families]
        assert fresh[0].xs.tobytes() != fresh[1].xs.tobytes()
        for fam, want in [*zip(families, fresh)] * 2:  # the slots alternate between the families
            tr = run(fam, sched, relax, 3.0 * np.ones(5), StopRule(1000, None, None))
            assert tr.xs.tobytes() == want.xs.tobytes() and tr.residual.tobytes() == want.residual.tobytes()
            assert all(sched.plan_at(2**n - 1)._tree[1] is output_operator(sched.plan_at(2**n - 1), fam)
                       for n in range(10))

    def test_power_of_two_eps_judged_by_its_first_plan(self):
        # the schedule takes eps as given; the plan of k = 0 refuses it before the first update
        sched = PowerOfTwoSchedule(eps=5.0)
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        with pytest.raises(ValueError, match=r"^invalid-plan: step 0: eps must lie in \(0, 1\], got 5.0;"):
            run(axis_halfspace_family(5), sched, relax, 3.0 * np.ones(5), StopRule(5, None, None))


class TestFreshPlans:
    """A custom rule may build a new, equal plan at every k: it keys, builds and runs as one plan."""

    fam = axis_halfspace_family(5)
    relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(composition_schedule(), 1.0))
    stop = StopRule(10**5, 1e-10, None)

    @staticmethod
    def _memoized():
        # composition_schedule's plans, one per f_value, handed out again at every later k
        fresh, plans = composition_schedule(), {}

        def rule(k):
            n = f_value(k)
            if n not in plans:
                plans[n] = fresh.plan_at(k)
            return plans[n]

        return CustomSchedule(rule, window_bounds=fresh.window_bound, metadata=(1, 6))

    def _start(self):
        rng = np.random.default_rng(5)
        x0 = 3.0 + rng.uniform(0.0, 2.0, size=5)
        v = np.abs(rng.standard_normal(5))
        return x0, v / np.linalg.norm(v)

    def test_a_fresh_plan_at_every_k_builds_one_tree_per_structure(self, monkeypatch):
        built = TestTreeMemo._spy(monkeypatch)
        tr = run(self.fam, composition_schedule(), self.relax, self._start()[0],
                 StopRule(1000, None, None))
        assert tr.n_updates == 1000
        assert built == [2**n - 1 for n in range(10)]  # first k with f_value(k) = n

    def test_a_fresh_plan_writes_a_slot_only_where_it_builds(self, monkeypatch):
        built, made, rule = TestTreeMemo._spy(monkeypatch), [], composition_schedule().plan_at
        sched = CustomSchedule(lambda k: made.append(rule(k)) or made[-1])
        run(self.fam, sched, self.relax, self._start()[0], StopRule(1000, None, None))
        assert len(made) == 1001
        assert [p.k for p in made if "_tree" in vars(p)] == built == [2**n - 1 for n in range(10)]

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_a_fresh_plan_runs_as_the_memoized_one_bitwise(self, perturbed, tmp_path):
        x0, v = self._start()
        texts = []
        for sched in (composition_schedule(), self._memoized()):
            if perturbed:
                pert = PerturbationSchedule.power(1e-4, 2.0, constant_direction(v))
                tr = run_perturbed(self.fam, sched, self.relax, pert, x0, self.stop, monitored=range(21))
            else:
                tr = run(self.fam, sched, self.relax, x0, self.stop, monitored=range(21))
            assert tr.stop_reason == "residual" and tr.n_updates > 5
            texts.append((tr.to_csv(tmp_path / "trace.csv"), tr.xs.tobytes()))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("v", [-1.0, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: StepSpec(0, (v,), alpha=1.0),
            lambda v: StepSpec(2, (0, -1), order=(0, v)),
            # the key hashes as its reference, so it found that reference's weight
            lambda v: StepSpec(1, (0, int(v)), weights={0: 0.5, v: 0.5}),
            lambda v: StepSpec(v, (-1,), alpha=1.0),
            lambda v: IterationPlan(k=v, N=1, eps=1.0, steps=[StepSpec(0, (-1,), alpha=1.0)]),
            lambda v: IterationPlan(k=0, N=v, eps=1.0, steps=[StepSpec(0, (-1,), alpha=1.0)]),
        ],
        ids=["J", "order", "weight key", "c", "k", "N"],
    )
    def test_a_reference_that_is_no_int_is_refused_at_construction(self, make, v):
        with pytest.raises(ValueError, match=f"must be an integer, got {v!r}"):
            make(v)

    def test_a_numpy_reference_keys_as_the_plain_int(self):
        def plan(i):
            return IterationPlan(k=i(0), N=i(2), eps=0.5, steps=[
                StepSpec(i(2), (i(0), i(-1)), order=(i(-1), i(0), i(-1))),
                StepSpec(i(1), (i(1), i(-2)), weights={i(1): 0.5, i(-2): 0.5}),
            ])

        plain, numpy = plan(int), plan(np.int64)
        assert numpy.structure_key() == plain.structure_key()
        assert hash(numpy.structure_key()) == hash(plain.structure_key())
        ints = [numpy.k, numpy.N] + [v for s in numpy.steps.values() for v in (s.c, *s.J, *(s.order or ()))]
        assert all(type(v) is int for v in ints)
        x, (a, b) = np.full(5, 3.0), (output_operator(p, self.fam) for p in (numpy, plain))
        assert a.apply(x).tobytes() == b.apply(x).tobytes()

    @pytest.mark.parametrize("n", [1.0, True])
    def test_the_family_memo_refuses_what_hashes_as_an_index(self, n):
        # 1.0 and True hash as 1: a memo lookup first would hand out input 1
        fam = two_halfspace_family()
        assert fam.operator(1) is fam.operator(np.int64(1))
        with pytest.raises(ValueError, match=f"operator index must be an integer >= 0, got {n!r}"):
            fam.operator(n)


class TestSharedPlans:
    """Schedules hand out their stored plans; no run or audit may change one.

    A run writes one memo on a plan, its ``_tree`` slot, and that changes no value derived
    from the plan: the state compared below (label, steps and the key) leaves it out.
    """

    @staticmethod
    def _stage_schedule():
        # the seeded stage config the benchmark's stage_cli workload solves
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        cfg = parse_config(runpy.run_path(str(path))["stage_config"](0))
        return cfg.family, cfg.schedule, cfg.relax, cfg.start, cfg.schedule.plans

    @staticmethod
    def _power_of_two_schedule():
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        plans = [sched.plan_at(2**n - 1) for n in range(10)]
        return axis_halfspace_family(5), sched, relax, 3.0 * np.ones(5), plans

    @staticmethod
    def _embedded_schedule():
        rng = np.random.default_rng(23)
        normals = rng.standard_normal((3, 4))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        plans = [
            gdsa_to_gmsa([(0, 1), (2,)], [0.5, 0.5], k=0),
            gdsa_to_gmsa([(1, 2)], [1.0], k=1),
        ]
        fam, sched = msa_embed([Halfspace(a, 0.0) for a in normals], np.zeros(4), plans)
        relax = RelaxationSchedule.sweep(0.5, uniform_modulus(sched, 0.5))
        return fam, sched, relax, np.full(4, 2.0), plans

    @pytest.mark.parametrize("make", ["_stage_schedule", "_power_of_two_schedule",
                                      "_embedded_schedule"])
    def test_runs_and_audits_leave_stored_plans_unchanged(self, make):
        fam, sched, relax, x0, plans = getattr(self, make)()

        def state(p):
            # a fresh copy derives its key anew, so an edit to the steps shows
            fresh = IterationPlan(k=p.k, N=p.N, eps=p.eps, steps=p.steps.values())
            return p.k, p.N, dict(p.steps), fresh.structure_key()

        before = [state(p) for p in plans]
        tr = run(fam, sched, relax, x0, StopRule(300, None, None), monitored=range(3))
        assert tr.n_updates == 300
        assert verify_admissible(sched, 1000, range(3)).passed
        assert [state(p) for p in plans] == before
        assert all(p.structure_key() == b[-1] for p, b in zip(plans, before))


class TestFejerAudit:
    fam = axis_halfspace_family(3)
    sched = PowerOfTwoSchedule(eps=1.0)
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
    x0 = np.full(3, 2.5)

    def test_passes_at_own_constant(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(200, None, None))
        rep = check_fejer(tr, self.fam.witness, self.relax.fejer_constant)
        assert rep.passed
        assert rep.samples == 200
        assert rep.worst is None

    def test_fails_at_absurd_constant(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(200, None, None))
        rep = check_fejer(tr, self.fam.witness, 1e6)
        assert not rep.passed
        (k,) = rep.worst
        assert 0 <= k < 200 and tr.step[k] > 0.0
        assert str(rep).startswith("fejer(c=1e+06): FAIL")

    def test_run_stopped_at_k0_is_an_empty_pass(self):
        tr = run(self.fam, self.sched, self.relax, self.fam.witness, StopRule(200, 1e-10, None))
        assert tr.n_updates == 0
        rep = check_fejer(tr, self.fam.witness, self.relax.fejer_constant)
        assert (rep.passed, rep.samples, rep.max_violation, rep.worst) == (True, 0, 0.0, None)

    def test_worst_is_the_largest_failing_step(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(200, None, None))
        c = 10.0
        d = tr.dist_witness
        excess = d[1:] ** 2 - d[:-1] ** 2 + c * tr.step[:200] ** 2
        failing = np.flatnonzero(excess > 1e-9 + 1e-12 * d[:-1] ** 2)
        worst = int(failing[np.argmax(excess[failing])])
        assert worst != failing[0]  # the worst failing step, not the first
        rep = check_fejer(tr, self.fam.witness, c)
        assert not rep.passed
        assert rep.worst == (worst,)
        assert rep.max_violation == excess.max()

    def test_a_step_whose_scale_overflowed_fails(self):
        # a trace is no sampling probe: ||x^k - z||^2 may overflow while the step stays finite,
        # and a violation of -inf at that infinite scale fails, so no step is judged lazily
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(2, None, None))
        far = dataclasses.replace(tr, dist_witness=np.array([1e200, 10.0, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_fejer(far, self.fam.witness, self.relax.fejer_constant)
        assert not rep.passed and rep.max_violation < 0.0 and rep.worst == (0,)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
    def test_an_overreach_is_caught_at_a_small_scale(self, scale):
        # cyclic projections onto x_1 <= 0 and x_2 <= 0 from (3s, 4s) hold the Fejer inequality at
        # c = 1 with equality: the certified 1/3 and 1 pass at every scale s, and so does 1 + 1e-13,
        # within the slack's 1e-12 ||x^k - z||^2; 1.01 fails
        tr = run(two_halfspace_family(), CyclicSchedule.over_indices([0, 1]),
                 RelaxationSchedule.constant(1.0, 0.5, 1.0), np.array([3.0, 4.0]) * scale, StopRule(10, None, None))
        z = np.zeros(2)
        assert all(check_fejer(tr, z, c).passed for c in (tr.fejer_constant, 1.0, 1.0 + 1e-13))
        rep = check_fejer(tr, z, 1.01)
        assert not rep.passed and rep.worst == (1,)  # the step of length 4s

    def test_the_audit_reads_the_same_at_every_power_of_two_scale(self):
        # offsets, start and witness times 2^j, the normals as they are: every iterate scales
        # exactly, so the verdict and max_violation / 4^j keep their bits (c = 1.5 is a true violation)
        normals, w = np.array([[1.0, 0.0], [0.6, 0.8]]), np.array([1.0, -2.0])

        def reports(j):
            s = 2.0**j
            fam = OperatorFamily.from_sets([Halfspace(a, float(a @ w) * s) for a in normals], w * s)
            tr = run(fam, CyclicSchedule.over_indices([0, 1]), RelaxationSchedule.constant(1.0, 0.5, 1.0),
                     (w + [3.0, 4.0]) * s, StopRule(10, None, None))
            return [(r.passed, (r.max_violation / 4.0**j).hex()) for r in
                    (check_fejer(tr, fam.witness, c) for c in (tr.fejer_constant, 1.0, 1.5))]

        base = reports(0)
        assert [passed for passed, _ in base] == [True, True, False]
        for j in range(-100, 101):
            assert reports(j) == base, j

    def test_a_far_witness_raises_no_false_alarm(self):
        # cyclic relaxed projections onto 6 halfspaces through a witness w of magnitude 1 to 1e12
        # in R^2 to R^500, from starts 1 to 1e-9 times max|w| away: each iterate is rounded at
        # magnitude max|w|, which the slack's 1e-15 (max|z| + d_k) d_k covers
        rng, failed = np.random.default_rng(3), 0
        for _ in range(40):
            d = int(rng.choice([2, 20, 500]))
            w = rng.standard_normal(d) * 10.0 ** int(rng.integers(0, 13))
            fam = OperatorFamily.from_sets([Halfspace(a, float(a @ w)) for a in rng.standard_normal((6, d))], w)
            for s in (1.0, 1e-3, 1e-6, 1e-9):
                x0 = w + rng.standard_normal(d) * s * np.abs(w).max()
                relax = RelaxationSchedule.constant(float(rng.uniform(0.3, 1.7)), 0.25, 1.0)
                tr = run(fam, CyclicSchedule.over_indices(list(range(6))), relax, x0, StopRule(60, None, None))
                failed += not check_fejer(tr, w, tr.fejer_constant).passed
        assert failed == 0

    def test_other_common_point_needs_full_iterates(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(64, None, None),
                 record_stride=1)
        z = np.full(3, -1.0)  # interior to every halfspace materialized
        rep = check_fejer(tr, z, self.relax.fejer_constant)
        assert rep.passed
        strided = run(self.fam, self.sched, self.relax, self.x0, StopRule(64, None, None),
                      record_stride=4)
        with pytest.raises(ValueError, match="record_stride"):
            check_fejer(strided, z, self.relax.fejer_constant)

    def test_rejects_non_fixed_point(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(16, None, None))
        with pytest.raises(ValueError, match="witness-not-fixed"):
            check_fejer(tr, np.full(3, 50.0), self.relax.fejer_constant)

    def test_refuses_a_point_whose_norm_overflows_by_name(self):
        # both halfspaces fix (-1e160, -1e160); the audit names the overflow, and numpy warns of nothing
        tr = run(two_halfspace_family(), CyclicSchedule.over_indices([0, 1]), self.relax,
                 np.array([2.0, 1.0]), StopRule(8, None, None), record_stride=1)
        with pytest.raises(ValueError, match="^witness-not-fixed: the norm of z overflows$"):
            check_fejer(tr, np.full(2, -1e160), self.relax.fejer_constant)


class TestTraceRecording:
    fam = two_halfspace_family()
    sched = CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)

    def _trace(self, **kw):
        return run(self.fam, self.sched, self.relax, np.array([2.0, 1.0]),
                   StopRule(20, None, None), **kw)

    def test_stride_keeps_every_nth_and_final(self):
        tr = self._trace(record_stride=8)
        assert list(tr.xs_k) == [0, 8, 16, 20]
        tr1 = self._trace(record_stride=1)
        assert list(tr1.xs_k) == list(range(21))

    @pytest.mark.parametrize(
        "stride, ks", [(5, [0, 5, 10, 15, 20]), (20, [0, 20]), (7, [0, 7, 14, 20]), (30, [0, 20])]
    )
    def test_kept_iterates_match_their_indices(self, stride, ks):
        # K = 20 updates: strides that divide K keep the final iterate once
        tr = self._trace(record_stride=stride)
        assert tr.xs_k.dtype.kind == "i"
        assert list(tr.xs_k) == ks
        assert_array_equal(tr.xs, self._trace(record_stride=1).xs[ks])

    def test_stride_validated(self):
        with pytest.raises(ValueError):
            self._trace(record_stride=0)

    def test_monitored_distances(self):
        tr = run(self.fam, self.sched, self.relax, np.array([2.0, 1.0]),
                 StopRule(10, None, None), monitored=(0, 1))
        assert tr.set_distances.shape == (11, 2)
        assert_allclose(tr.set_distances[0], [2.0, 1.0])

    def test_monitored_distances_match_per_set_oracle(self):
        fam = axis_halfspace_family(5)
        monitored = tuple(range(21))
        relax = RelaxationSchedule.constant(1.0, 1.0, 1.0)
        tr = run(fam, PowerOfTwoSchedule(), relax, np.full(5, 3.0), StopRule(200, None, None),
                 monitored=monitored)
        assert tr.set_distances.shape == (tr.n_rows, 21)
        for x, row in zip(tr.xs, tr.set_distances):
            assert_array_equal(row, [fam.distance(n, x) for n in monitored])

    def test_csv_layout(self, tmp_path):
        tr = run(self.fam, self.sched, self.relax, np.array([2.0, 1.0]),
                 StopRule(4, None, None), monitored=(0, 1))
        path = tmp_path / "trace.csv"
        text = tr.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().split("\n")
        assert lines[0] == "k,residual,step,dist_witness,fejer_slack,d0,d1"
        assert len(lines) == 1 + tr.n_rows
        first = lines[1].split(",")
        assert first[0] == "0"
        # full-precision round trip
        assert float(first[3]) == tr.dist_witness[0]
        assert "np.float64" not in text

    def test_csv_gains_pert_column(self, tmp_path):
        pert = PerturbationSchedule.power(0.1, 2.0, constant_direction([1.0, 0.0]))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, np.array([2.0, 1.0]),
                           StopRule(4, None, None))
        assert tr.to_csv(tmp_path / "trace.csv").split("\n", 1)[0].endswith(",pert_mag")

    def test_csv_bytes_match_per_element_writer(self, tmp_path):
        sup = run_superiorized(self.fam, self.sched, self.relax, linear_objective([1.0, 1.0]),
                               BetaGrid.geometric(0.5, M=2), np.array([2.0, 1.0]),
                               StopRule(12, None, None), monitored=(1, 0))
        pert = PerturbationSchedule.power(0.1, 2.0, away_from(self.fam.witness))
        per = run_perturbed(self.fam, self.sched, self.relax, pert, np.array([2.0, 1.0]),
                            StopRule(12, None, None))
        path = tmp_path / "trace.csv"
        header = sup.to_csv(path).split("\n", 1)[0]
        assert header == "k,residual,step,dist_witness,fejer_slack,d0,d1,phi,pert_mag"
        for tr in (sup, per, self._trace(monitored=(0,))):
            assert tr.to_csv(path) == reference_csv(tr) == path.read_text()

    def test_fields_are_typed_and_closed(self, tmp_path):
        tr = self._trace()
        names = [f.name for f in dataclasses.fields(Trace)]
        assert names == [
            "n_updates", "stop_reason", "residual", "step", "dist_witness", "fejer_slack",
            "set_distances", "monitored", "phi", "pert_mag", "pert_betas", "pert_vectors",
            "xs", "xs_k", "witness", "fejer_constant", "eps", "rho", "record_stride", "family",
        ]
        fields = {name: getattr(tr, name) for name in names}
        rebuilt, path = tmp_path / "rebuilt.csv", tmp_path / "trace.csv"
        assert Trace(**fields).to_csv(rebuilt) == tr.to_csv(path)
        assert rebuilt.read_bytes() == path.read_bytes()
        with pytest.raises(TypeError):
            Trace(**fields, iterations=20)


class TestMonitoredBlocks:
    """Monitored distances are measured a block of iterates at a time; no edge shows in a trace.

    The seeded stage config monitors its 60 halfspaces in R^20, so a block
    holds 4096 // 20 = 204 iterates and its distances are taken 4096 // 60 = 68
    rows at a time.  Runs of 100, 101 and 102 updates record 101, 102 and 103
    rows in two calls each, the second of 33, 34 and 35 rows.
    """

    @staticmethod
    def _stage():
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        cfg = parse_config(runpy.run_path(str(path))["stage_config"](0))
        assert len(cfg.monitored) == 60 and cfg.family.dim == 20
        return cfg

    @staticmethod
    def _assert_rows_are_one_iterate_calls(cfg, tr):
        assert tr.record_stride == 1 and tr.set_distances.shape == (tr.n_rows, 60)
        for x, row in zip(tr.xs, tr.set_distances):
            assert row.tobytes() == cfg.family.distances(cfg.monitored, x).tobytes()

    @pytest.mark.parametrize("updates", [100, 101, 102])
    def test_rows_and_strides_keep_their_bits(self, updates):
        cfg = self._stage()
        args = (cfg.family, cfg.schedule, cfg.relax, cfg.start, StopRule(updates, None, None))
        tr = run(*args, monitored=cfg.monitored)
        assert tr.n_updates == updates
        self._assert_rows_are_one_iterate_calls(cfg, tr)
        strided = run(*args, monitored=cfg.monitored, record_stride=7)
        assert strided.set_distances.tobytes() == tr.set_distances.tobytes()

    @pytest.mark.parametrize("kind", ["perturbed", "superiorized"])
    def test_monitoring_leaves_the_other_columns(self, kind):
        cfg = self._stage()
        oracle = linear_objective(np.random.default_rng(3).standard_normal(20))

        def drive(**kw):
            args = (cfg.family, cfg.schedule, cfg.relax)
            stop = StopRule(101, None, None)
            if kind == "superiorized":
                return run_superiorized(*args, oracle, BetaGrid.geometric(0.5, M=2), cfg.start,
                                        stop, **kw)
            # a fresh seeded direction stream for each run
            pert = PerturbationSchedule.power(0.5, 2.0, random_unit_directions(20, seed=4))
            return run_perturbed(*args, pert, cfg.start, stop, **kw)

        tr = drive(monitored=cfg.monitored)
        self._assert_rows_are_one_iterate_calls(cfg, tr)
        assert (tr.pert_mag > 0.0).all()
        if kind == "superiorized":
            assert [oracle.value(x) for x in tr.xs] == tr.phi.tolist()
        bare = drive()
        assert bare.set_distances.shape == (102, 0)
        for name in ("residual", "step", "dist_witness", "fejer_slack", "phi", "pert_mag",
                     "pert_betas", "pert_vectors", "xs"):
            got, want = getattr(tr, name), getattr(bare, name)
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n_sets, chunk", [(40, 102), (60, 68), (600, 6)])
    def test_distances_are_taken_a_chunk_of_rows_at_a_time(self, monkeypatch, n_sets, chunk):
        # 302 updates: a block of 204 iterates whatever the monitored count, then a last block
        # of 99; each block takes two norms (steps, witness distances) and its distances in
        # chunks of 4096 // n_sets rows, the last one short where the block is not a multiple
        norms = []
        monkeypatch.setattr(strav.solver, "norm", lambda x: norms.append(1) or norm(x))
        fam = random_halfspace_family(20, n_sets, seed=1)
        distances, rows = fam.distances, []
        fam.distances = lambda indices, x: rows.append(len(x)) or distances(indices, x)
        run(fam, CyclicSchedule.over_indices(range(n_sets)), RelaxationSchedule.constant(0.8, 0.25, 0.5),
            np.ones(20), StopRule(302, None, None), monitored=range(n_sets))
        per_block = [chunk] * (204 // chunk) + [204 % chunk] * (204 % chunk > 0)
        assert rows == [0] + per_block + [chunk] * (99 // chunk) + [99 % chunk] * (99 % chunk > 0)
        assert len(norms) == 4

    @pytest.mark.parametrize("n_sets, chunk", [(60, 68), (600, 6)])
    def test_distance_scratch_keeps_its_budget(self, n_sets, chunk):
        # two (chunk, m) arrays of at most 4096 floats each: the result, which holds the
        # offsets, and numpy's buffer for a broadcast operand
        fam = random_halfspace_family(20, n_sets, seed=1)
        fam.distances(range(n_sets), np.zeros(20))  # the stacks are built before the count
        distances, peaks = fam.distances, []

        def traced(indices, x):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = distances(indices, x)
            peaks.append((len(x), tracemalloc.get_traced_memory()[1] - before))
            return out

        fam.distances = traced
        tracemalloc.start()
        try:
            run(fam, CyclicSchedule.over_indices(range(n_sets)),
                RelaxationSchedule.constant(0.8, 0.25, 0.5), np.ones(20), StopRule(250, None, None),
                monitored=range(n_sets))
        finally:
            tracemalloc.stop()
        assert max(rows for rows, _ in peaks) == chunk
        bound = 8 * 2 * chunk * n_sets + 8192
        assert max(peak for _, peak in peaks) <= bound

    def test_index_without_a_distance_is_refused_before_the_first_update(self):
        average = ConvexComb([Primitive(Box([-1.0, -1.0], [1.0, 1.0])), Primitive(Halfspace([0.0, 1.0], 0.0))],
                             [0.5, 0.5])
        fam = OperatorFamily.from_sets([Halfspace([1.0, 0.0], 0.0), average], np.zeros(2))
        sched, lookups = CyclicSchedule.over_indices([0, 1]), []
        plan_at = sched.plan_at
        sched.plan_at = lambda k: lookups.append(k) or plan_at(k)
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        with pytest.raises(ValueError, match="^family-error: no set distance available for index 1$"):
            run(fam, sched, relax, np.array([2.0, 3.0]), StopRule(200, None, None), monitored=(0, 1))
        assert lookups == []


def test_recorder_memory_per_update():
    # every update records 4 + 15 float64 scalars; the iterates are thinned to 3
    fam = axis_halfspace_family(5)
    relax = RelaxationSchedule.constant(1.0, 1.0, 1.0)
    tracemalloc.start()
    try:
        tr = run(fam, PowerOfTwoSchedule(), relax, np.full(5, 3.0), StopRule(2000, None, None),
                 monitored=tuple(range(15)), record_stride=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.n_updates == 2000 and tr.set_distances.shape == (2001, 15)
    assert peak <= 250 * 2000, f"{peak / 2000:.0f} B per update"


def test_recorder_memory_per_update_when_every_update_moves():
    # every update projects onto a hyperplane the iterate is off, so each one builds a new
    # array and the block holds 4096 // 5 = 819 distinct iterates by reference
    normals = np.random.default_rng(0).standard_normal((15, 5))
    fam = OperatorFamily.from_sets([Hyperplane(a, 0.0) for a in normals], np.zeros(5))
    fam.distances(range(15), np.zeros(5))
    relax = RelaxationSchedule.constant(0.5, 0.25, 1.0)
    tracemalloc.start()
    try:
        tr = run(fam, CyclicSchedule.over_indices(range(15)), relax, np.array([3.0, 1.0, 4.0, 1.0, 5.0]),
                 StopRule(2000, None, None), monitored=tuple(range(15)), record_stride=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.n_updates == 2000 and (tr.residual > 0.0).all() and (tr.step[:-1] > 0.0).all()
    assert peak <= 250 * 2000, f"{peak / 2000:.0f} B per update"


def test_float_power_squares_as_python_does():
    # the Fejer slack squares with np.float_power(v, 2.0) and keeps the bits of Python's
    # v ** 2 (C pow); numpy's v * v differs in the last bit for some values.  Where this
    # fails, the platform's pow differs and the slack column would change its bits.
    rng = np.random.default_rng(0)
    v = np.exp(rng.uniform(math.log(1e-320), math.log(1.34e154), 100_000))
    v = np.concatenate([v, [1e-320, 1.34e154, 0.0, -0.0, math.inf, math.nan]])
    want = np.array([x**2 for x in v.tolist()])
    assert np.float_power(v, 2.0).tobytes() == want.tobytes()


def reference_csv(tr):
    """The CSV layout spelled out one element at a time."""
    scalars = ["residual", "step", "dist_witness", "fejer_slack"]
    optional = [name for name in ("phi", "pert_mag") if getattr(tr, name) is not None]
    monitored = [f"d{j}" for j in range(len(tr.monitored))]
    lines = [",".join(["k"] + scalars + monitored + optional)]
    for k in range(tr.n_rows):
        row = [str(k)] + [repr(float(getattr(tr, name)[k])) for name in scalars]
        row += [repr(float(tr.set_distances[k, j])) for j in range(len(tr.monitored))]
        row += [repr(float(getattr(tr, name)[k])) for name in optional]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_drive(family, schedule, relax, x0, stop, *, pert=None, objective=None,
                    monitored=(), record_stride=1):
    """The driver's generic update loop, spelled out: every update does the vector arithmetic.

    Each update builds its tree afresh and always computes ``T_k(u) - u``,
    ``u + lambda (T_k(u) - u)`` and both norms, whether or not T_k fixes u.
    """
    x = as_vector(x0, family.dim)
    z = family.witness
    monitored = tuple(int(n) for n in monitored)
    rows, kept, directions = [], [], []
    dz = float(norm(x - z))
    pending = reason = None
    k = 0
    while True:
        T = output_operator(schedule.plan_at(k), family)
        u, mag = x, 0.0
        if pert is not None:
            b, v = pert(k, x)
            directions.append(np.array(v, dtype=float))
            if b != 0.0:
                p = b * v
                u, mag = x + p, float(norm(p))
        tu = T.apply(u)
        res = float(norm(tu - u))
        if k % record_stride == 0:
            kept.append(x)
        if pending is not None:
            reason = pending
        elif (
            stop.residual_tol is not None
            and res <= stop.residual_tol
            and (u is x or float(norm(T.apply(x) - x)) <= stop.residual_tol)
        ):
            reason = "residual"
        elif k >= stop.max_iters:
            reason = "max_iters"
        st = sl = 0.0
        if reason is None:
            lam = relax.lam(k)
            x_next = tu if lam == 1.0 else u + lam * (tu - u)
            st = float(norm(x_next - x))
            dz_next = float(norm(x_next - z))
            sl = dz**2 - dz_next**2 - relax.fejer_constant * st**2
        row = [res, st, dz, sl]
        row += family.distances(monitored, x).tolist() if monitored else []
        row += [float(objective.value(x))] if objective is not None else []
        row += [mag, b] if pert is not None else []
        rows.append(row)
        if reason is not None:
            break
        x, dz = x_next, dz_next
        k += 1
        if stop.step_tol is not None and st <= stop.step_tol:
            pending = "step"
    if k % record_stride:
        kept.append(x)
    table = np.array(rows, dtype=float)
    m = len(monitored)
    return Trace(
        n_updates=k, stop_reason=reason, residual=table[:, 0], step=table[:, 1],
        dist_witness=table[:, 2], fejer_slack=table[:, 3], set_distances=table[:, 4 : 4 + m],
        monitored=monitored, phi=table[:, 4 + m] if objective is not None else None,
        pert_mag=table[:, -2] if pert is not None else None,
        pert_betas=table[:, -1] if pert is not None else None,
        pert_vectors=np.array(directions).reshape(-1, x.size) if pert is not None else None,
        xs=np.array(kept), xs_k=np.append(np.arange(0, k, record_stride), k), witness=z.copy(),
        fejer_constant=relax.fejer_constant, eps=relax.eps, rho=relax.rho,
        record_stride=record_stride, family=family,
    )


class TestDriverParity:
    """The driver's traces equal the generic loop's byte for byte.

    An update at a fixed point (T_k hands u back) skips the zero step's
    vector arithmetic, and a moving update reads its step and witness
    distance from one row-wise norm; neither may change a bit of any column.
    """

    COLUMNS = ("residual", "step", "dist_witness", "fejer_slack", "set_distances", "phi",
               "pert_mag", "pert_betas", "pert_vectors", "xs", "xs_k")

    def _assert_parity(self, monkeypatch, module, driver, *args, **kw):
        tr = driver(*args, **kw)
        monkeypatch.setattr(module, "_drive", reference_drive)
        ref = driver(*args, **kw)
        assert (tr.n_updates, tr.stop_reason) == (ref.n_updates, ref.stop_reason)
        for name in self.COLUMNS:
            got, want = getattr(tr, name), getattr(ref, name)
            if want is None:
                assert got is None, name
            else:
                assert got.shape == want.shape, name
                assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name
        return tr

    @staticmethod
    def _power_of_two(lam=None):
        sched = PowerOfTwoSchedule(eps=0.1)
        if lam is None:
            return sched, RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        return sched, RelaxationSchedule.constant(lam, 0.25, 1.0)

    def test_power_of_two_run_mostly_at_fixed_points(self, monkeypatch):
        sched, relax = self._power_of_two()
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, axis_halfspace_family(5), sched, relax,
            np.array([3.0, 4.5, 3.25, 4.0, 3.5]), StopRule(600, None, None),
            monitored=range(3), record_stride=7,
        )
        assert np.count_nonzero(tr.residual == 0.0) > 300  # 417 of 601

    @pytest.mark.parametrize("lam, signbit", [(0.7, False), (1.0, True)])
    def test_feasible_start_with_a_negative_zero(self, monkeypatch, lam, signbit):
        sched, relax = self._power_of_two(lam)
        x0 = np.array([-0.0, -1.0, 0.5, -0.0, 0.25])
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, axis_halfspace_family(5), sched, relax, x0,
            StopRule(40, None, None),
        )
        assert not tr.residual.any() and not tr.step.any()
        # u + lam * (u - u) turns -0.0 into +0.0; lambda 1 hands u itself on
        assert np.signbit(tr.xs[0, 0]) and np.signbit(tr.xs[-1, 0]) == signbit

    def test_perturbed_run_whose_points_land_inside(self, monkeypatch):
        sched, relax = self._power_of_two()
        v = np.array([1.0, -2.0, 0.5, 1.0, -1.0]) / np.sqrt(7.25)
        pert = PerturbationSchedule.power(0.2, 2.0, constant_direction(v))
        tr = self._assert_parity(
            monkeypatch, strav.solver, run_perturbed, axis_halfspace_family(5), sched, relax,
            pert, np.array([2.5, -1.0, 0.5, -0.0, 0.25]), StopRule(300, None, None),
            monitored=range(5),
        )
        inside = (tr.residual == 0.0) & (tr.pert_mag > 0.0)
        assert inside.sum() > 100 and (tr.residual > 0.0).any()

    def test_superiorized_run(self, monkeypatch):
        sched, relax = self._power_of_two()
        oracle = linear_objective(np.array([1.0, 1.0, -1.0, 0.5, 0.0]))
        self._assert_parity(
            monkeypatch, strav.superiorize, run_superiorized, axis_halfspace_family(5), sched,
            relax, oracle, BetaGrid.geometric(0.5, M=2), np.array([3.0, 2.0, 4.0, 1.0, 2.5]),
            StopRule(300, 1e-10, None), monitored=range(5), record_stride=3,
        )

    @pytest.mark.parametrize("updates", [200, 2000])
    def test_norm_calls_grow_with_blocks_not_with_fixed_updates(self, monkeypatch, updates):
        # every update is at a fixed point and takes no norm; each block of 4096 // 5 = 819
        # iterates (and the last, partial one) takes two: its steps and its witness distances
        calls = []

        def counting_norm(x):
            calls.append(1)
            return norm(x)

        monkeypatch.setattr(strav.solver, "norm", counting_norm)
        sched, relax = self._power_of_two()
        tr = run(axis_halfspace_family(5), sched, relax, np.full(5, -1.0),
                 StopRule(updates, None, None))
        assert tr.n_updates == updates and not tr.residual.any()
        assert len(calls) == 2 * (updates // 819 + 1)

    def test_lambda_one_hands_on_a_negative_zero(self, monkeypatch):
        # the lambda-1 projection hands T(u) on with the start's -0.0; the fixed update
        # at 0.5 that follows must turn it into +0.0, as u + 0.5 * (u - u) does
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, two_halfspace_family(),
            CyclicSchedule.over_indices([0, 1]), RelaxationSchedule.cycle([1.0, 0.5], 0.25, 1.0),
            np.array([0.5, -0.0]), StopRule(6, None, None),
        )
        assert tr.residual[0] > 0.0 and not tr.residual[1:].any()
        assert np.signbit(tr.xs[1, 1]) and not np.signbit(tr.xs[2:, 1]).any()

    def test_lambda_one_makes_a_negative_zero_from_a_clean_start(self, monkeypatch):
        # the box's upper bound -0.0 enters a start that holds none; the halfspace
        # that fixes the point next must still see u + 0.5 * (u - u)
        fam = OperatorFamily.from_sets(
            [Box([-1.0, -1.0], [-0.0, 1.0]), Halfspace([0.0, 1.0], 1.0)], np.array([-0.5, 0.0])
        )
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, fam, CyclicSchedule.over_indices([0, 1]),
            RelaxationSchedule.cycle([1.0, 0.5], 0.25, 1.0), np.array([0.5, 0.5]),
            StopRule(6, None, None),
        )
        assert np.signbit(tr.xs[1, 0]) and not np.signbit(tr.xs[2, 0])

    def test_moving_update_keeps_a_negative_zero_where_its_step_underflows(self, monkeypatch):
        # T(u) - u is -5e-324 in both coordinates and 0.5 times it underflows to -0.0, so
        # u + 0.5 * r keeps u's -0.0 although the update moved; the fixed update after it
        # must turn it into +0.0
        fam = OperatorFamily.from_sets(
            [Halfspace([1.0, 1.0], 0.0), Halfspace([1.0, 0.0], 0.0)], np.zeros(2)
        )
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, fam, CyclicSchedule.over_indices([0, 1]),
            RelaxationSchedule.constant(0.5, 0.25, 1.0), np.array([-0.0, 1e-323]),
            StopRule(4, None, None),
        )
        assert np.signbit(tr.xs[1, 0]) and not np.signbit(tr.xs[2:, 0]).any()

    def test_perturbed_run_with_some_zero_betas(self, monkeypatch):
        # beta_k = 0 leaves u^k = x^k and any other beta_k moves it, so the two alternate
        sched, relax = self._power_of_two()
        vs = np.random.default_rng(5).standard_normal((60, 5))
        vs /= norm(vs)[:, None]
        betas = [0.0 if k % 3 else 0.1 / (k + 1) for k in range(60)]
        tr = self._assert_parity(
            monkeypatch, strav.solver, run_perturbed, axis_halfspace_family(5), sched, relax,
            PerturbationSchedule.from_lists(betas, vs), np.array([2.5, -0.0, 0.5, -1.0, 0.25]),
            StopRule(80, None, None), monitored=range(3),
        )
        assert (tr.pert_betas == 0.0).sum() > 40 and (tr.pert_betas > 0.0).sum() == 20

    @pytest.mark.parametrize("lam", [None, 1.0])
    def test_negative_zero_start_with_a_stride(self, monkeypatch, lam):
        sched, relax = self._power_of_two(lam)
        tr = self._assert_parity(
            monkeypatch, strav.solver, run, axis_halfspace_family(5), sched, relax,
            np.array([-0.0, 2.0, -0.0, 0.5, 3.0]), StopRule(100, None, None), record_stride=7,
        )
        assert len(tr.xs) == 16

    # a block holds B = 4096 // 5 = 819 iterates, joined as bytes: runs end one short of a block,
    # at its edge and one past it, and keep every iterate, every third, or only the first and last
    @pytest.mark.parametrize("stride", [1, 3, 820])
    @pytest.mark.parametrize("updates", [818, 819, 820])
    def test_a_strided_start_keeps_the_bits_of_its_contiguous_twin(self, monkeypatch, updates, stride):
        sched, relax = self._power_of_two()
        base = np.full(10, np.nan)
        base[::2] = [-0.0, 3.0, 4.5, -0.0, 3.25]
        x0 = base[::2]
        assert not x0.flags.c_contiguous
        args = (axis_halfspace_family(5), sched, relax)
        twin = run(*args, np.array(x0), StopRule(updates, None, None), record_stride=stride)
        tr = self._assert_parity(monkeypatch, strav.solver, run, *args, x0, StopRule(updates, None, None),
                                 record_stride=stride)
        assert tr.n_updates == updates and np.signbit(tr.xs[0, [0, 3]]).all()
        for name in ("xs", "step", "dist_witness", "fejer_slack"):
            assert getattr(tr, name).tobytes() == getattr(twin, name).tobytes(), name

    @staticmethod
    def _r20(updates, step_tol=None):
        """Twelve random halfspaces in R^20, eight of them monitored: distances 204 // 8 = 25 rows at a time.

        The start lies along the sum of the normals, outside every halfspace.
        """
        fam = random_halfspace_family(20, 12, seed=0)
        outward = sum(fam.operator(n).set.a for n in range(12))
        rng = np.random.default_rng(6)
        vs = rng.standard_normal((80, 20))
        vs /= norm(vs)[:, None]
        betas = [0.0 if k % 4 == 3 else 0.5 / (k + 1) ** 2 for k in range(80)]
        args = (fam, CyclicSchedule.over_indices(range(12)),
                RelaxationSchedule.constant(0.8, 0.25, 0.5),
                PerturbationSchedule.from_lists(betas, vs), 3.0 * outward / norm(outward),
                StopRule(updates, None, step_tol))
        return args, {"monitored": range(8), "record_stride": 7}

    # 50, 51, 52 and 63 rows: the last chunk of 25 distance rows is full or holds 1, 2 or 13
    @pytest.mark.parametrize("updates", [49, 50, 51, 62])
    def test_perturbed_run_in_r20_ends_anywhere_in_a_block(self, monkeypatch, updates):
        args, kw = self._r20(updates)
        tr = self._assert_parity(monkeypatch, strav.solver, run_perturbed, *args, **kw)
        assert tr.n_updates == updates and (tr.step[:-1] > 0.0).all()
        assert (tr.pert_betas == 0.0).any() and (tr.pert_mag > 0.0).any()

    def test_step_stop_in_r20(self, monkeypatch):
        args, kw = self._r20(10**4, step_tol=1e-3)
        tr = self._assert_parity(monkeypatch, strav.solver, run_perturbed, *args, **kw)
        assert tr.stop_reason == "step" and tr.n_updates > 25

    # a block holds 4096 // 20 = 204 iterates; 60 sets take distances 3 rows at a time, 600
    # sets 1.  100 updates end in the first block (mid-chunk for 60 sets: 101 = 33 * 3 + 2);
    # 302 cross a block edge and end mid-block, with a last block of 99 rows; stride 7 keeps
    # iterates on both sides of the edge at 204
    @pytest.mark.parametrize("updates, stride", [(100, 1), (302, 1), (302, 7)])
    @pytest.mark.parametrize("kind", ["plain", "perturbed", "superiorized"])
    @pytest.mark.parametrize("n_sets", [60, 600])
    def test_monitored_blocks_in_r20(self, monkeypatch, n_sets, kind, updates, stride):
        fam = random_halfspace_family(20, n_sets, seed=1)
        outward = sum(fam.operator(n).set.a for n in range(n_sets))
        args = (fam, CyclicSchedule.over_indices(range(n_sets)), RelaxationSchedule.constant(0.8, 0.25, 0.5))
        x0, stop = 3.0 * outward / norm(outward), StopRule(updates, None, None)
        kw = {"monitored": range(n_sets), "record_stride": stride}
        if kind == "plain":
            tr = self._assert_parity(monkeypatch, strav.solver, run, *args, x0, stop, **kw)
        elif kind == "perturbed":
            vs = np.random.default_rng(7).standard_normal((updates + 1, 20))
            pert = PerturbationSchedule.from_lists([0.5 / (k + 1) ** 2 for k in range(updates + 1)],
                                                   vs / norm(vs)[:, None])
            tr = self._assert_parity(monkeypatch, strav.solver, run_perturbed, *args, pert, x0, stop, **kw)
        else:
            oracle = linear_objective(np.random.default_rng(3).standard_normal(20))
            tr = self._assert_parity(monkeypatch, strav.superiorize, run_superiorized, *args, oracle,
                                     BetaGrid.geometric(0.5, M=2), x0, stop, **kw)
        assert tr.n_updates == updates and tr.set_distances.shape == (updates + 1, n_sets)
        assert (tr.step > 0.0).sum() > 50

    # the per-update scalars (residual, then phi and beta_k) are stacked a block of 819 rows at a
    # time at d = 5: runs end one short of a block, at its edge, one past it and one short of two
    @pytest.mark.parametrize("updates", [818, 819, 820, 1639])
    @pytest.mark.parametrize("kind", ["plain", "perturbed", "superiorized"])
    def test_loop_scalars_keep_their_bits_across_block_edges(self, monkeypatch, kind, updates):
        # every update projects onto a hyperplane the iterate is off: no residual is 0
        normals = np.random.default_rng(4).standard_normal((7, 5))
        fam = OperatorFamily.from_sets([Hyperplane(a, 0.0) for a in normals], np.zeros(5))
        args = (fam, CyclicSchedule.over_indices(range(7)), RelaxationSchedule.constant(0.9, 0.25, 1.0))
        x0, stop = np.array([3.0, 1.0, 4.0, 1.0, 5.0]), StopRule(updates, None, None)
        if kind == "plain":
            tr = self._assert_parity(monkeypatch, strav.solver, run, *args, x0, stop)
        elif kind == "perturbed":
            vs = np.random.default_rng(2).standard_normal((updates + 1, 5))
            pert = PerturbationSchedule.from_lists([0.5 / (k + 1) ** 1.5 for k in range(updates + 1)],
                                                   vs / norm(vs)[:, None])
            tr = self._assert_parity(monkeypatch, strav.solver, run_perturbed, *args, pert, x0, stop)
            assert len(set(tr.pert_betas.tolist())) == updates + 1
        else:
            oracle = linear_objective(np.array([1.0, -1.0, 0.5, 0.0, 2.0]))
            grid = BetaGrid(2, lambda k, n: 0.5 / n / (k + 1) ** 2)  # no beta_k underflows to 0
            tr = self._assert_parity(monkeypatch, strav.superiorize, run_superiorized, *args, oracle, grid,
                                     x0, stop)
            assert (tr.pert_betas > 0.0).all() and len(set(tr.phi.tolist())) > updates // 2
        assert tr.n_updates == updates and (tr.residual > 0.0).all()


class TestApplyPerRow:
    """The driver applies T_k once per row of its trace: n_updates + 1 calls of ``T.apply``."""

    @staticmethod
    def _count(monkeypatch):
        calls = []

        class Counted:
            def __init__(self, tree):
                self.tree = tree

            def apply(self, x):
                calls.append(1)
                return self.tree.apply(x)

        monkeypatch.setattr(strav.solver, "output_operator", lambda plan, family: Counted(output_operator(plan, family)))
        return calls

    def test_power_of_two_run(self, monkeypatch):
        calls = self._count(monkeypatch)
        sched = PowerOfTwoSchedule(eps=0.1)
        relax = RelaxationSchedule.sweep(0.1, uniform_modulus(sched, 0.1))
        tr = run(axis_halfspace_family(5), sched, relax, np.array([3.0, 4.5, 3.25, 4.0, 3.5]),
                 StopRule(2000, None, None))
        assert tr.n_updates == 2000 and len(calls) == 2001

    def test_fresh_plan_custom_schedule_run(self, monkeypatch):
        # composition_schedule's rule builds a new plan at every k; the run stops on its residual
        calls = self._count(monkeypatch)
        sched = composition_schedule()
        relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(sched, 1.0))
        tr = run(axis_halfspace_family(5), sched, relax, np.array([3.0, 4.5, 3.25, 4.0, 3.5]),
                 StopRule(10**4, 1e-10, None))
        assert tr.stop_reason == "residual" and len(calls) == tr.n_updates + 1 > 5
