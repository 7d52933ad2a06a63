"""Objective oracles and inner perturbation loops, plus the behavior dichotomy.

The superiorized driver is checked against a hand-rolled inner loop plus
the perturbed driver fed the recorded aggregates; equality is bitwise.
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import strav.superiorize
from strav.control import CyclicSchedule
from strav.fixtures import box_linear_fixture, two_halfspace_family
from strav.solver import PerturbationSchedule, RelaxationSchedule, StopRule, run, run_perturbed
from strav.superiorize import (
    BetaGrid,
    ObjectiveOracle,
    alternatives_diagnostic,
    inner_directions,
    linear_objective,
    max_affine_objective,
    run_superiorized,
    squared_distance_objective,
)


class TestObjectives:
    def test_linear(self):
        phi = linear_objective([2.0, -1.0])
        x = np.array([3.0, 4.0])
        assert phi.value(x) == 2.0
        assert_array_equal(phi.subgradient(x), [2.0, -1.0])
        with pytest.raises(ValueError, match="no-argmin-witness"):
            phi.witnesses()

    def test_squared_distance(self):
        t = np.array([1.0, 1.0])
        phi = squared_distance_objective(t)
        x = np.array([4.0, 1.0])
        assert phi.value(x) == 9.0
        assert_array_equal(phi.subgradient(x), [6.0, 0.0])

    def test_max_affine_picks_active_row(self):
        phi = max_affine_objective([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        assert phi.value(np.array([3.0, 1.0])) == 3.0
        assert_array_equal(phi.subgradient(np.array([3.0, 1.0])), [1.0, 0.0])
        assert_array_equal(phi.subgradient(np.array([1.0, 3.0])), [0.0, 1.0])

    @pytest.mark.parametrize("rows, offsets", [([1.0, 0.0], [0.0]), ([[1.0, 0.0]], [0.0, 1.0]), ([[1.0]], 0.0)])
    def test_max_affine_needs_one_offset_per_row(self, rows, offsets):
        with pytest.raises(ValueError, match="one offset per row"):
            max_affine_objective(rows, offsets)

    def test_witnesses_frozen(self):
        phi = linear_objective([1.0], argmin_witnesses=[[0.0]])
        assert isinstance(phi.argmin_witnesses, tuple)
        assert_array_equal(phi.witnesses()[0], [0.0])

    def test_squared_distance_declares_its_target(self):
        phi = squared_distance_objective([2.0, 3.0])
        assert_array_equal(phi.witnesses()[0], [2.0, 3.0])

    @pytest.mark.parametrize("make, refusal", [
        (lambda: linear_objective([1e308, 1e308]), "c"),
        (lambda: max_affine_objective([[1.0, 0.0], [1e308, -1e308]], [0.0, 0.0]), r"rows\[1\]"),
        (lambda: linear_objective([1.0, 1.0], argmin_witnesses=[[0.0, 0.0], [1e308, 1e308]]), r"argmin\[1\]"),
        (lambda: squared_distance_objective([1e308, 1e308]), r"argmin\[0\]"),  # its target
    ], ids=["linear", "max_affine", "argmin", "squared_distance"])
    def test_a_vector_whose_norm_overflows_is_refused_by_name(self, make, refusal):
        # an inner step divides c or a row by its norm, and the diagnostic judges at ||w||:
        # each overflowed in numpy's square at run time; refused at construction, with no warning
        with pytest.raises(ValueError, match=f"^the norm of {refusal} overflows$"):
            make()


class TestBetaGrid:
    def test_geometric_row(self):
        g = BetaGrid.geometric(0.5, M=2)
        assert_allclose(g.betas(3), [0.5 * 2.0**-3 / 2] * 2, rtol=1e-15)
        assert g.M(3) == 2

    def test_geometric_double_series_sums_to_twice_scale(self):
        g = BetaGrid.geometric(0.7, M=3)
        total = sum(sum(g.betas(k)) for k in range(60))
        assert_allclose(total, 1.4, rtol=1e-12)

    def test_callable_inner_count(self):
        g = BetaGrid.geometric(1.0, M=lambda k: k % 3)
        assert g.betas(0) == []
        assert len(g.betas(5)) == 2
        # the sizes divide by the grid's own integer count, so row k sums to c * 2^-k
        g = BetaGrid.geometric(1.0, M=lambda k: 2.5)
        assert g.betas(0) == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaGrid.geometric(-0.1)
        with pytest.raises(ValueError):
            BetaGrid(lambda k: -1, lambda k, n: 0.1).M(0)
        with pytest.raises(ValueError):
            BetaGrid(1, lambda k, n: -0.1).beta(0, 1)

    def test_step_count_ceiling(self):
        ceiling = strav.superiorize._MAX_INNER_STEPS
        assert BetaGrid.geometric(1.0, M=ceiling).M(5) == ceiling
        # a constant count is refused when the grid is built, a callable one at use
        with pytest.raises(ValueError, match=r"inner step count at k=0 exceeds"):
            BetaGrid.geometric(1.0, M=ceiling + 1)
        with pytest.raises(ValueError, match=r"inner step count at k=0 exceeds"):
            BetaGrid(10**308, lambda k, n: 0.1)
        grid = BetaGrid(lambda k: 10**k, lambda k, n: 0.1)
        with pytest.raises(ValueError, match=r"inner step count at k=5 exceeds"):
            grid.betas(5)

    @pytest.mark.parametrize("M", [2.5, 2.0, 1e308, True, -1, "2"])
    def test_constant_count_must_be_a_whole_number(self, M):
        # 2.5 once built a grid of 2 steps; a float is refused however whole its value
        with pytest.raises(ValueError, match="^inner step count must be an integer >= 0, got "):
            BetaGrid(M, lambda k, n: 0.1)

    def test_numpy_integer_count_accepted(self):
        assert BetaGrid(np.int64(2), lambda k, n: 0.1).betas(0) == [0.1, 0.1]

    @pytest.mark.parametrize("b", [np.nan, np.inf])
    def test_non_finite_step_refused(self, b):
        with pytest.raises(ValueError, match=r"at \(k=2, n=1\) must be finite"):
            BetaGrid(1, lambda k, n: b).beta(2, 1)


class TestInnerDirections:
    def test_linear_objective_constant_direction(self):
        phi = linear_objective([3.0, 4.0])
        vs = inner_directions(phi, np.array([5.0, 5.0]), [0.1, 0.1, 0.1])
        for v in vs:
            assert_allclose(v, [-0.6, -0.8], rtol=1e-15)

    def test_walks_the_polyline(self):
        # for a squared-distance objective the second direction is taken at
        # the point reached by the first inner step
        t = np.zeros(2)
        phi = squared_distance_objective(t)
        y = np.array([2.0, 0.0])
        betas = [0.5, 0.25]
        vs = inner_directions(phi, y, betas)
        assert_allclose(vs[0], [-1.0, 0.0], rtol=1e-15)
        mid = y + betas[0] * vs[0]
        s = phi.subgradient(mid)
        assert_allclose(vs[1], -s / np.linalg.norm(s), rtol=1e-15)

    def test_zero_subgradient_gives_zero_direction_and_no_shift(self):
        t = np.array([1.0, 1.0])
        phi = squared_distance_objective(t)
        vs = inner_directions(phi, t.copy(), [0.5, 0.5])
        assert_array_equal(vs[0], np.zeros(2))
        # the walk did not move, so the second direction is also zero
        assert_array_equal(vs[1], np.zeros(2))

    def test_empty_betas(self):
        assert inner_directions(linear_objective([1.0]), np.array([0.0]), []) == []


class TestSuperiorizedDriver:
    fam = two_halfspace_family()
    sched = CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.9, 0.25, 0.5)
    phi = linear_objective([1.0, 1.0])
    y0 = np.array([2.0, 1.5])

    def test_matches_hand_rolled_loop(self):
        grid = BetaGrid.geometric(0.25, M=2)
        stop = StopRule(12, None, None)
        tr = run_superiorized(self.fam, self.sched, self.relax, self.phi, grid,
                              self.y0, stop, record_stride=1)

        y = self.y0.copy()
        for k in range(12):
            betas = grid.betas(k)
            vs = inner_directions(self.phi, y, betas)
            shift = betas[0] * vs[0]
            for b, v in zip(betas[1:], vs[1:]):
                shift = shift + b * v
            beta_k = sum(betas)
            u = y + beta_k * (shift / beta_k)
            t = self.fam.operator(k % 2).set.project(u)
            y = u + 0.9 * (t - u)
            assert_array_equal(tr.xs[k + 1], y)

    def test_replay_through_perturbed_driver_is_bitwise(self):
        from strav.solver import run_perturbed

        grid = BetaGrid.geometric(0.25, M=3)
        stop = StopRule(40, None, None)
        tr = run_superiorized(self.fam, self.sched, self.relax, self.phi, grid,
                              self.y0, stop, record_stride=1)
        replay = PerturbationSchedule.from_lists(tr.pert_betas, tr.pert_vectors)
        tr2 = run_perturbed(self.fam, self.sched, self.relax, replay, self.y0, stop,
                            record_stride=1)
        assert_array_equal(tr2.xs, tr.xs)
        assert_array_equal(tr2.residual, tr.residual)
        assert_array_equal(tr2.step, tr.step)

    def test_overflowing_inner_step_sum_refused(self):
        # each step is finite, their sum is not: refused before any numpy overflow
        grid = BetaGrid(2, lambda k, n: 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"inner steps at k=0 sum to inf"):
                run_superiorized(self.fam, self.sched, self.relax, self.phi, grid, self.y0)

    def test_direction_of_another_shape_refused(self):
        # (1,)-shaped inner directions broadcast into a shift of norm sqrt(2) * beta_k, and
        # the run died assembling its trace; run_perturbed refuses such a direction at k=0
        phi = ObjectiveOracle(lambda x: 0.0, lambda x: np.array([1.0]))
        grid, stop = BetaGrid.geometric(0.5, M=2), StopRule(5, None, None)
        with pytest.raises(ValueError, match=r"direction of shape \(1,\) at k=0"):
            run_superiorized(two_halfspace_family(), self.sched, self.relax, phi, grid, self.y0, stop)

    def test_subnormal_inner_steps_replay_through_perturbed_driver(self):
        # 5e-324 * v rounds each coordinate of v = -(1, 1) / sqrt(2) to -5e-324, so the
        # aggregate shift / beta_k was -(1, 1), of norm sqrt(2), which the replay refused
        grid, stop = BetaGrid(1, lambda k, n: 5e-324), StopRule(4, None, None)
        tr = run_superiorized(self.fam, self.sched, self.relax, self.phi, grid, self.y0, stop)
        assert_array_equal(tr.pert_vectors[0], inner_directions(self.phi, self.y0, grid.betas(0))[0])
        replay = PerturbationSchedule.from_lists(tr.pert_betas, tr.pert_vectors)
        tr2 = run_perturbed(self.fam, self.sched, self.relax, replay, self.y0, stop)
        assert_array_equal(tr2.xs, tr.xs)

    def test_zero_inner_steps_equals_plain_run(self):
        grid = BetaGrid(0, lambda k, n: 0.1)
        stop = StopRule(25, None, None)
        tr = run_superiorized(self.fam, self.sched, self.relax, self.phi, grid,
                              self.y0, stop, record_stride=1)
        plain = run(self.fam, self.sched, self.relax, self.y0, stop, record_stride=1)
        assert_array_equal(tr.xs, plain.xs)

    def test_phi_column_recorded(self, tmp_path):
        grid = BetaGrid.geometric(0.25, M=1)
        tr = run_superiorized(self.fam, self.sched, self.relax, self.phi, grid,
                              self.y0, StopRule(5, None, None))
        assert tr.phi is not None
        assert tr.phi[0] == self.phi.value(self.y0)
        assert "phi" in tr.to_csv(tmp_path / "trace.csv").split("\n", 1)[0].split(",")


def synthetic_trace(xs, stride=1):
    """Minimal stand-in carrying just what the diagnostic reads."""
    xs = np.asarray(xs, dtype=float)

    class T:
        pass

    t = T()
    t.xs = xs
    t.final_x = xs[-1]
    t.record_stride = stride
    t.n_updates = len(xs) - 1
    return t


class TestAlternativesDiagnostic:
    z = np.zeros(2)
    phi = linear_objective([1.0, 1.0], argmin_witnesses=[np.zeros(2)])

    def test_alternative_1_at_minimizer(self):
        xs = np.vstack([np.linspace(1.0, 0.0, 30)[:, None] * np.ones(2)])
        rep = alternatives_diagnostic(synthetic_trace(xs), self.phi)
        assert rep.outcome == "alternative-1"
        assert rep.final_gap == 0.0

    def test_alternative_2_strict_descent(self):
        ks = np.arange(40)
        xs = (0.9**ks)[:, None] * np.array([1.0, 1.0]) + 0.5
        rep = alternatives_diagnostic(synthetic_trace(xs), self.phi)
        assert rep.outcome == "alternative-2"
        assert rep.k0 == 0
        assert str(rep) == "ALTERNATIVE-2 (strict decrease from k0=0)"
        # re-verify the claim independently
        d = np.linalg.norm(xs - self.z, axis=1)
        assert np.all(d[rep.k0 + 1 :] < d[rep.k0 : -1])

    def test_k0_after_initial_wobble(self):
        # one increasing transition at the start pushes k0 past it
        up = np.array([[3.0, 3.0], [3.5, 3.5]])
        down = (0.9 ** np.arange(30))[:, None] * np.array([3.0, 3.0])
        rep = alternatives_diagnostic(synthetic_trace(np.vstack([up, down])), self.phi)
        assert rep.outcome == "alternative-2"
        assert rep.k0 == 1

    def test_inconclusive_on_oscillation_is_a_verdict(self):
        xs = np.ones((40, 2)) + 0.5
        xs[::2] += 0.25  # distances oscillate, never strictly decreasing
        rep = alternatives_diagnostic(synthetic_trace(xs), self.phi)
        assert rep.outcome == "inconclusive"
        assert rep.violating_k is not None
        assert str(rep) == "INCONCLUSIVE (decrease broken at k=37, witness 0)"

    def test_short_tail_is_inconclusive(self):
        # 4 strict decreases are too few to judge, which is not a broken decrease
        xs = (0.9 ** np.arange(5))[:, None] * np.array([1.0, 1.0]) + 0.5
        rep = alternatives_diagnostic(synthetic_trace(xs), self.phi)
        assert rep.outcome == "inconclusive"
        assert rep.violating_k is None and rep.violating_witness is None
        assert str(rep) == "INCONCLUSIVE (fewer than 10 updates)"

    def test_scan_requires_full_iterates(self):
        xs = (0.9 ** np.arange(30))[:, None] * np.array([1.0, 1.0]) + 0.5
        with pytest.raises(ValueError, match="record_stride"):
            alternatives_diagnostic(synthetic_trace(xs, stride=2), self.phi)

    def test_on_real_fixture_run(self):
        fam, phi = box_linear_fixture()
        sched = CyclicSchedule.over_indices([0])
        relax = RelaxationSchedule.constant(1.0, 0.25, 0.5)
        grid = BetaGrid.geometric(0.5, M=2)
        tr = run_superiorized(fam, sched, relax, phi, grid, np.array([0.5, 0.5]),
                              StopRule(300, None, None), record_stride=1)
        rep = alternatives_diagnostic(tr, phi)
        assert rep.outcome == "alternative-1"
