"""Iteration drivers: step-size certification, stopping, traces, audits.

The central oracle is a hand-rolled relaxed-projection loop executed with
the same floating-point operations; driver traces must match it bitwise,
not merely to a tolerance.
"""

import dataclasses
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import strav.solver
from strav.control import (
    CustomSchedule,
    CyclicSchedule,
    PowerOfTwoSchedule,
    f_value,
    uniform_modulus,
)
from strav.fixtures import axis_halfspace_family, two_halfspace_family
from strav.gmsa import IterationPlan, StepSpec, output_operator
from strav.operators import Identity
from strav.sets import OperatorFamily
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

    def test_permissive_widens_and_zeroes_constant(self):
        r = RelaxationSchedule.constant(1.7, 0.25, 0.05, permissive=True)
        assert_allclose(r.hi, 1.75)
        assert r.fejer_constant == 0.0
        assert r.lam(0) == 1.7

    def test_lam_outside_interval_rejected(self):
        r = RelaxationSchedule(lambda k: 1.5, 0.25, 0.05)  # hi = 0.8
        with pytest.raises(ValueError, match="outside"):
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
        with pytest.raises(ValueError, match="at least 2 points"):
            RelaxationSchedule.sweep(0.1, 0.05, points=points)


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

    def test_direction_norm_capped(self):
        p = PerturbationSchedule(lambda k: 0.1, lambda k, x: np.array([3.0, 4.0]))
        with pytest.raises(ValueError, match="exceeds 1"):
            p.at(0, np.zeros(2))

    def test_negative_beta_rejected(self):
        p = PerturbationSchedule(lambda k: -0.1, lambda k, x: np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            p.at(0, np.zeros(2))

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


def composition_schedule():
    """Criterion 06/07 geometry: inputs 0..4 composed with one dyadic tail index."""

    def rule(k):
        order = (0, -1, -2, -3, -4, -(5 + f_value(k)))
        return IterationPlan(k=k, N=1, eps=1.0, steps=[StepSpec(2, set(order), order=order)])

    return CustomSchedule(
        rule, window_bounds=lambda n: 1 if n <= 4 else 2 ** (n - 4), metadata=(1, 6)
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
        sched = CustomSchedule(lambda k: valid.replaced(k=k) if k == 0 else valid.replaced(eps=1.5))
        relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
        with pytest.raises(ValueError, match="invalid-plan"):
            run(two_halfspace_family(), sched, relax, np.array([3.0, 2.0]),
                StopRule(5, None, None))


class TestFejerAudit:
    fam = axis_halfspace_family(3)
    sched = PowerOfTwoSchedule(eps=1.0)
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
    x0 = np.full(3, 2.5)

    def test_passes_at_own_constant(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(200, None, None))
        rep = check_fejer(tr, self.fam.witness, self.relax.fejer_constant)
        assert rep.passed
        assert rep.checked == 200

    def test_fails_at_absurd_constant(self):
        tr = run(self.fam, self.sched, self.relax, self.x0, StopRule(200, None, None))
        rep = check_fejer(tr, self.fam.witness, 1e6)
        assert not rep.passed
        assert rep.first_violating_k is not None

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

    def test_csv_layout(self):
        tr = run(self.fam, self.sched, self.relax, np.array([2.0, 1.0]),
                 StopRule(4, None, None), monitored=(0, 1))
        buf = io.StringIO()
        text = tr.to_csv(buf)
        lines = text.strip().split("\n")
        assert lines[0] == "k,residual,step,dist_witness,fejer_slack,d0,d1"
        assert len(lines) == 1 + tr.n_rows
        first = lines[1].split(",")
        assert first[0] == "0"
        # full-precision round trip
        assert float(first[3]) == tr.dist_witness[0]
        assert "np.float64" not in text

    def test_csv_gains_pert_column(self):
        pert = PerturbationSchedule.power(0.1, 2.0, constant_direction([1.0, 0.0]))
        tr = run_perturbed(self.fam, self.sched, self.relax, pert, np.array([2.0, 1.0]),
                           StopRule(4, None, None))
        assert tr.csv_header().endswith(",pert_mag")

    def test_csv_bytes_match_per_element_writer(self):
        sup = run_superiorized(self.fam, self.sched, self.relax, linear_objective([1.0, 1.0]),
                               BetaGrid.geometric(0.5, M=2), np.array([2.0, 1.0]),
                               StopRule(12, None, None), monitored=(1, 0))
        pert = PerturbationSchedule.power(0.1, 2.0, away_from(self.fam.witness))
        per = run_perturbed(self.fam, self.sched, self.relax, pert, np.array([2.0, 1.0]),
                            StopRule(12, None, None))
        assert sup.csv_header() == "k,residual,step,dist_witness,fejer_slack,d0,d1,phi,pert_mag"
        for tr in (sup, per, self._trace(monitored=(0,))):
            assert tr.to_csv(io.StringIO()) == reference_csv(tr)

    def test_fields_are_typed_and_closed(self):
        tr = self._trace()
        names = [f.name for f in dataclasses.fields(Trace)]
        assert names == [
            "n_updates", "stop_reason", "residual", "step", "dist_witness", "fejer_slack",
            "set_distances", "monitored", "phi", "pert_mag", "pert_betas", "pert_vectors",
            "xs", "xs_k", "witness", "fejer_constant", "eps", "rho", "record_stride", "family",
        ]
        fields = {name: getattr(tr, name) for name in names}
        assert Trace(**fields).to_csv(io.StringIO()) == tr.to_csv(io.StringIO())
        with pytest.raises(TypeError):
            Trace(**fields, iterations=20)


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
