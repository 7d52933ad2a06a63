"""Acceptance gate: eleven end-to-end criteria, one test (and one
``pytest -v`` pass/fail line) each.

Every criterion states its tolerance and a wall-clock cap and is checked
at desk scale, small enough to run on every commit.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from strav.control import (
    CustomSchedule,
    CyclicSchedule,
    PowerOfTwoSchedule,
    f_value,
    uniform_modulus,
    verify_admissible,
)
from strav.dsa import gdsa_to_gmsa, msa_embed
from strav.fixtures import (
    axis_halfspace_family,
    box_linear_fixture,
    random_halfspace_family,
    random_plan_corpus,
    two_halfspace_family,
)
from strav.gmsa import (
    IterationPlan,
    StepSpec,
    fne_bound,
    output_operator,
    sqne_bound,
)
from strav.operators import SampleBudget, check_fne, check_nonexpansive, check_sqne
from strav.sets import Halfspace, OperatorFamily
from strav.solver import (
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
    check_fejer,
    constant_direction,
    run,
    run_perturbed,
)
from strav.superiorize import (
    BetaGrid,
    alternatives_diagnostic,
    linear_objective,
    run_superiorized,
)
from test_dsa import direct_eval


def composition_schedule():
    """Every iteration composes inputs 0..4 plus one dyadically scheduled tail."""

    def rule(k):
        order = (0, -1, -2, -3, -4, -(5 + f_value(k)))
        return IterationPlan(k=k, N=1, eps=1.0, steps=[StepSpec(2, set(order), order=order)])

    return CustomSchedule(
        rule,
        window_bounds=lambda n: 1 if n <= 4 else 2 ** (n - 4),
        metadata=(1, 6),
    )


def test_01_first_twenty_control_values_exact():
    t0 = time.perf_counter()
    expected = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4, 0, 1, 0, 2]
    got = [f_value(i) for i in range(20)]
    elapsed = time.perf_counter() - t0
    assert got == expected
    assert elapsed < 1e-3
    print(f"criterion 01: PASS (first twenty values exact, {elapsed * 1e6:.0f} us)")


def test_02_window_audit_exhaustive_to_horizon_1000():
    t0 = time.perf_counter()
    report = verify_admissible(PowerOfTwoSchedule(), 1000, range(7))
    elapsed = time.perf_counter() - t0
    assert report.passed
    assert (report.samples, report.max_violation, report.worst) == (7, 0.0, None)
    assert elapsed < 1.0
    print(f"criterion 02: PASS (0 violations up to horizon 1000, {elapsed:.2f} s)")


def test_03_one_point_modulus_certified_on_random_corpus():
    t0 = time.perf_counter()
    family = random_halfspace_family(5, 8, seed=7)
    worst = 0.0
    for plan in random_plan_corpus(200, seed=13, n_inputs=8):
        T = output_operator(plan, family)
        rep = check_sqne(T, sqne_bound(plan), family.witness, SampleBudget(count=500, seed=plan.k))
        assert rep.passed, f"plan {plan.k}: {rep}"
        worst = max(worst, rep.max_violation)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"criterion 03: PASS (200 plans, worst violation {worst:.3e}, {elapsed:.2f} s)")


def test_04_two_point_modulus_and_nonexpansiveness():
    t0 = time.perf_counter()
    gammas = np.random.default_rng(99).uniform(0.05, 4.0 / 3.0, 8)
    family = random_halfspace_family(5, 8, seed=7, gammas=lambda n: gammas[n])
    plans = random_plan_corpus(200, seed=13, n_inputs=8, c0_alpha_one=True)
    worst = 0.0
    # a leaf relaxed past gamma 1 is not firmly nonexpansive, yet with alpha = 1 everywhere
    # the two-point bound over the family's own leaves stands for every plan
    assert min(family.operator(n).fne_rho for n in range(8)) < 1.0
    for plan in plans:
        bound = fne_bound(plan, family)
        assert bound == sqne_bound(plan)
        T = output_operator(plan, family)
        budget = SampleBudget(count=500, seed=plan.k)
        for rep in (
            check_fne(T, bound, budget, center=family.witness),
            check_nonexpansive(T, budget, center=family.witness),
        ):
            assert rep.passed, f"plan {plan.k}: {rep}"
            worst = max(worst, rep.max_violation)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(f"criterion 04: PASS (200 plans, worst violation {worst:.3e}, {elapsed:.2f} s)")


def test_05_monotone_slack_stays_nonnegative_over_5000_iterations():
    t0 = time.perf_counter()
    family = axis_halfspace_family(5)
    sched = PowerOfTwoSchedule(eps=0.1)
    rho = uniform_modulus(sched, 0.1)
    assert rho == 0.05
    relax = RelaxationSchedule.sweep(0.1, rho)
    assert relax.fejer_constant == pytest.approx(0.1 / (1.0 + rho - 0.1))
    trace = run(family, sched, relax, 3.0 * np.ones(5), StopRule(5000, None, None))
    assert trace.n_updates == 5000
    slack_min = float(trace.fejer_slack.min())
    audit = check_fejer(trace, family.witness, trace.fejer_constant)
    elapsed = time.perf_counter() - t0
    assert slack_min >= -1e-9
    assert audit.passed
    assert elapsed < 10.0
    print(f"criterion 05: PASS (min slack {slack_min:.3e} over 5000 steps, {elapsed:.2f} s)")


def test_06_composition_schedule_reaches_every_monitored_set():
    t0 = time.perf_counter()
    family = axis_halfspace_family(5)
    sched = composition_schedule()
    rho = uniform_modulus(sched, 1.0)
    assert rho == pytest.approx(1.0 / 12.0)
    relax = RelaxationSchedule.constant(0.95, 0.05, rho)
    trace = run(
        family, sched, relax, 3.0 * np.ones(5),
        StopRule(10**5, 1e-10, None), monitored=range(21),
    )
    worst = float(trace.set_distances[-1].max())
    elapsed = time.perf_counter() - t0
    assert trace.stop_reason == "residual"
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"criterion 06: PASS (21 sets, worst distance {worst:.3e}, {elapsed:.2f} s)")


def test_07_perturbed_runs_from_five_seeds_still_converge():
    t0 = time.perf_counter()
    family = axis_halfspace_family(5)
    sched = composition_schedule()
    relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(sched, 1.0))
    stop = StopRule(10**5, 1e-10, None)
    finals = set()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0 = 3.0 + rng.uniform(0.0, 2.0, size=5)
        v = np.abs(rng.standard_normal(5))
        v /= np.linalg.norm(v)
        pert = PerturbationSchedule.power(1e-2, 2.0, constant_direction(v))
        trace = run_perturbed(family, sched, relax, pert, x0, stop, monitored=range(21))
        assert trace.stop_reason == "residual", f"seed {seed}: {trace.stop_reason}"
        worst = max(worst, float(trace.set_distances[-1].max()))
        finals.add(tuple(float(c) for c in trace.final_x))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert len(finals) == 5
    assert elapsed < 60.0
    print(f"criterion 07: PASS (5 seeds, worst distance {worst:.3e}, {elapsed:.2f} s)")


def test_08_superiorized_trace_replays_bitwise_through_perturbed_driver():
    t0 = time.perf_counter()
    family = two_halfspace_family()
    sched = CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.9, 0.25, uniform_modulus(sched, 1.0))
    stop = StopRule(200, None, None)
    x0 = np.array([2.0, 1.0])
    sup = run_superiorized(
        family, sched, relax, linear_objective([1.0, 1.0]), BetaGrid.geometric(0.5, M=2),
        x0, stop, monitored=(0, 1),
    )
    replay = PerturbationSchedule.from_lists(sup.pert_betas, sup.pert_vectors)
    pert = run_perturbed(family, sched, relax, replay, x0, stop, monitored=(0, 1))
    elapsed = time.perf_counter() - t0
    assert sup.n_updates == pert.n_updates == 200
    assert_array_equal(sup.xs, pert.xs)
    assert_array_equal(sup.residual, pert.residual)
    assert_array_equal(sup.set_distances, pert.set_distances)
    assert elapsed < 1.0
    print(f"criterion 08: PASS (200 updates replay bitwise, {elapsed:.2f} s)")


def test_09_behavior_dichotomy_yields_a_definite_limb():
    t0 = time.perf_counter()
    family, oracle = box_linear_fixture()
    sched = CyclicSchedule.over_indices([0])
    relax = RelaxationSchedule.constant(1.0, 0.25, uniform_modulus(sched, 1.0))
    sup = run_superiorized(
        family, sched, relax, oracle, BetaGrid.geometric(0.5, M=2),
        np.array([0.5, 0.5]), StopRule(2000, None, None), record_stride=1,
    )
    report = alternatives_diagnostic(sup, oracle)
    elapsed = time.perf_counter() - t0
    assert report.outcome in ("alternative-1", "alternative-2"), report
    if report.outcome == "alternative-1":
        assert report.final_gap <= 1e-8
    else:
        dists = np.linalg.norm(sup.xs, axis=1)
        assert np.all(np.diff(dists[report.k0 :]) < 0.0)
    assert elapsed < 10.0
    print(f"criterion 09: PASS ({report}, {elapsed:.2f} s)")


def test_10_string_averaging_rewrite_and_infinite_embedding():
    t0 = time.perf_counter()

    # random stages against direct evaluation
    rng = np.random.default_rng(5)
    family = random_halfspace_family(4, 6, seed=11)
    points = rng.uniform(-3.0, 3.0, size=(100, 4))
    worst = 0.0
    for t in range(50):
        strings = [
            tuple(int(i) for i in rng.integers(0, 6, size=rng.integers(1, 5)))
            for _ in range(rng.integers(1, 5))
        ]
        w = rng.uniform(0.2, 1.0, size=len(strings))
        weights = w / w.sum()
        T = output_operator(gdsa_to_gmsa(strings, weights, k=t), family)
        diff = np.abs(T(points) - direct_eval(strings, weights, family, points))
        worst = max(worst, float(diff.max()))
    assert worst <= 1e-12

    # padding a finite schedule into an infinite family changes no value
    rng = np.random.default_rng(6)
    normals = rng.standard_normal((3, 4))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    ops = [Halfspace(a, 0.0) for a in normals]
    witness = np.zeros(4)
    base_plans = [
        gdsa_to_gmsa([(0, 1), (2,)], [0.5, 0.5], k=0),
        gdsa_to_gmsa([(1, 2)], [1.0], k=1),
    ]
    fam_inf, sched_inf = msa_embed(ops, witness, base_plans)
    fam_base = OperatorFamily.from_sets(ops, witness)
    probe = rng.uniform(-2.0, 2.0, size=(7, 4))
    for k in range(24):
        padded = output_operator(sched_inf.plan_at(k), fam_inf)
        bare = output_operator(base_plans[k % 2], fam_base)
        assert_array_equal(padded(probe), bare(probe))

    report = verify_admissible(sched_inf, 500, range(8))
    assert report.passed
    assert sched_inf.window_bound(5) == 64
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 10: PASS (50 stages, worst gap {worst:.3e}, {elapsed:.2f} s)")


def test_11_superiorization_does_not_worsen_the_objective():
    t0 = time.perf_counter()
    family, oracle = box_linear_fixture()
    sched = CyclicSchedule.over_indices([0])
    relax = RelaxationSchedule.constant(1.0, 0.25, uniform_modulus(sched, 1.0))
    stop = StopRule(2000, None, None)
    x0 = np.array([0.5, 0.5])
    plain = run(family, sched, relax, x0, stop)
    sup = run_superiorized(
        family, sched, relax, oracle, BetaGrid.geometric(0.5, M=2), x0, stop
    )
    phi_plain = oracle.value(plain.final_x)
    phi_sup = oracle.value(sup.final_x)
    elapsed = time.perf_counter() - t0
    assert phi_sup <= phi_plain + 1e-8
    assert elapsed < 10.0
    print(
        f"criterion 11: PASS (objective {phi_plain:.6f} plain vs {phi_sup:.6f} "
        f"superiorized, {elapsed:.2f} s)"
    )
