"""Control schedules and the exhaustive window audits."""

import tracemalloc

import numpy as np
import pytest

from strav import control
from strav.control import (
    ControlSchedule,
    CustomSchedule,
    CyclicSchedule,
    PowerOfTwoSchedule,
    f_value,
    uniform_modulus,
    verify_admissible,
)
from strav.dsa import StringStage, gdsa_to_gmsa
from strav.gmsa import IterationPlan, StepSpec

FIRST_TWENTY = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4, 0, 1, 0, 2]


def one_index_plan(k, n, eps=1.0, alpha=1.0):
    return IterationPlan(k=k, N=1, eps=eps, steps=[StepSpec.relaxation(-n, alpha)])


class TestFValue:
    def test_first_twenty(self):
        assert [f_value(i) for i in range(20)] == FIRST_TWENTY

    def test_dyadic_oracle(self):
        # f(i) is the 2-adic valuation of i + 1; recompute by division
        for i in range(2000):
            v, n = i + 1, 0
            while v % 2 == 0:
                v //= 2
                n += 1
            assert f_value(i) == n

    def test_each_value_once_per_block(self):
        # value n appears exactly once in every 2^{n+1} consecutive indices,
        # at i = 2^n - 1 + j * 2^{n+1}
        for n in range(6):
            w = 2 ** (n + 1)
            hits = [i for i in range(4 * w) if f_value(i) == n]
            assert hits == [2**n - 1 + j * w for j in range(4)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_value(-1)


class TestPowerOfTwoSchedule:
    def test_plan_targets_f_value(self):
        s = PowerOfTwoSchedule()
        for k in (0, 1, 7, 30, 63):
            p = s.plan_at(k)
            assert p.output_indices() == {f_value(k)}
            # labelled by the first index with its value, whatever k asked first
            assert p.k == 2 ** f_value(k) - 1

    def test_window_bound(self):
        s = PowerOfTwoSchedule()
        assert [s.window_bound(n) for n in range(5)] == [2, 4, 8, 16, 32]

    def test_metadata(self):
        assert PowerOfTwoSchedule().plan_metadata() == (1, 1)

    def test_eps_validated(self):
        # judged by its plans, as alpha is, before any update or audit
        s = PowerOfTwoSchedule(eps=0.0)
        assert s.plan_at(0).validate() == ((0, "eps must lie in (0, 1], got 0.0"),)
        with pytest.raises(ValueError, match="invalid-plan"):
            verify_admissible(s, 10, [0])


class TestCyclicSchedule:
    def test_wraps_to_its_stored_plan(self):
        s = CyclicSchedule([one_index_plan(0, 0), one_index_plan(1, 3)])
        assert s.plan_at(5).output_indices() == {3}
        assert s.plan_at(5) is s.plans[1]
        assert s.plan_at(5).k == 1

    def test_default_bound_is_period_for_covered(self):
        s = CyclicSchedule([one_index_plan(0, 0), one_index_plan(1, 3), one_index_plan(2, 1)])
        assert s.window_bound(3) == 3
        assert s.window_bound(0) == 3
        assert s.window_bound(7) is None
        with pytest.raises(TypeError):  # only a CustomSchedule declares windows
            CyclicSchedule([one_index_plan(0, 0)], window_bounds={0: 5}.get)

    def test_over_indices(self):
        s = CyclicSchedule.over_indices([2, 0, 1])
        assert [s.plan_at(k).output_indices() for k in range(3)] == [{2}, {0}, {1}]
        assert s.plan_metadata() == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CyclicSchedule([])

    def test_metadata_from_plans(self):
        two_wide = IterationPlan(
            k=0, N=2, eps=1.0,
            steps=[StepSpec.relaxation(0, 1.0), StepSpec(2, (1, -1), order=(1, -1))],
        )
        s = CyclicSchedule([one_index_plan(0, 0), two_wide])
        assert s.plan_metadata() == (2, 2)


class TestPlanMemo:
    """A schedule hands out the plans it stores: every k that runs a plan reads its memo."""

    def test_power_of_two_plans_share_their_template(self):
        s = PowerOfTwoSchedule()
        plans = [s.plan_at(k) for k in range(64)]
        for k, p in enumerate(plans):
            assert p is plans[2 ** f_value(k) - 1]  # one object per f_value
        assert plans[0].structure_key() != plans[1].structure_key()
        late = PowerOfTwoSchedule()
        a = late.plan_at(2)  # f_value 0, asked before k = 0
        assert a.k == 0 and late.plan_at(0) is a

    def test_cyclic_plans_share_their_template(self):
        template = one_index_plan(0, 3)
        s = CyclicSchedule([template, one_index_plan(1, 4)])
        for k in range(6):
            assert s.plan_at(k) is s.plans[k % 2]
        assert s.plan_at(6) is template and template.k == 0

    def test_structure_key_ignores_k_only(self, validations):
        p = one_index_plan(0, 3)
        assert one_index_plan(9, 3).structure_key() == p.structure_key()
        for other in (one_index_plan(0, 3, eps=0.5), one_index_plan(0, 4), one_index_plan(0, 3, alpha=0.5)):
            assert other.structure_key() != p.structure_key()
        assert one_index_plan(1, 3, eps=0.5).validate() == () and p.validate() == ()
        assert validations == [1, 0]  # a plan of equal steps derives its own issues
        assert one_index_plan(0, 3, eps=1.5).validate() != () and p.validate() == ()


    def test_verify_admissible_validates_each_structure_once(self, validations):
        rep = verify_admissible(PowerOfTwoSchedule(), 1000, range(9))
        assert rep.passed
        assert validations == [2**n - 1 for n in range(10)]


class TestUniformModulus:
    def test_from_metadata(self):
        assert uniform_modulus(PowerOfTwoSchedule(eps=0.1), 0.1) == 0.05

    def test_requires_metadata(self):
        s = CustomSchedule(lambda k: one_index_plan(k, 0))
        with pytest.raises(ValueError, match="metadata"):
            uniform_modulus(s, 1.0)


class TestVerifyAdmissible:
    def test_power_of_two_exhaustive(self):
        s = PowerOfTwoSchedule()
        rep = verify_admissible(s, 200, range(5))
        assert rep.passed
        assert rep.name == "windows(horizon=200)"
        assert (rep.samples, rep.max_violation, rep.worst) == (5, 0.0, None)
        assert [s.window_bound(n) for n in range(5)] == [2 ** (n + 1) for n in range(5)]

    def test_detects_missed_window(self):
        # index 1 appears only at k = 0 and k = 4; with a declared window of
        # 3 the first full window missing it starts at k = 1
        plans = [one_index_plan(k, n) for k, n in enumerate([1, 0, 0, 0, 1, 0])]
        s = CustomSchedule(lambda k: plans[k % len(plans)], window_bounds={0: 2, 1: 3}.get)
        rep = verify_admissible(s, 5, [0, 1])
        assert not rep.passed
        assert rep.worst == (1, 1)
        assert rep.max_violation == 1.0  # a miss run of 3 against a window of 3

    def test_cycle_passes_at_default_bound(self):
        s = CyclicSchedule([one_index_plan(0, 2), one_index_plan(1, 5)])
        rep = verify_admissible(s, 100, [2, 5])
        assert rep.passed
        assert (s.window_bound(2), s.window_bound(5)) == (2, 2)

    def test_refuses_undeclared_bound(self):
        s = CustomSchedule(lambda k: one_index_plan(k, 0))
        with pytest.raises(ValueError, match="not declared"):
            verify_admissible(s, 10, [0])

    def test_window_must_fit_horizon(self):
        with pytest.raises(ValueError, match="does not fit"):
            verify_admissible(PowerOfTwoSchedule(), 10, [4])  # window 32 > 11

    @pytest.mark.parametrize("n", [10**7, 10**12])
    def test_huge_power_of_two_index_refused_by_name(self, n):
        # the window 2^(n+1) is never built: it stands at inf past n = 63
        with pytest.raises(ValueError) as exc:
            verify_admissible(PowerOfTwoSchedule(), 200, [n])
        assert str(exc.value) == f"window inf for index {n} does not fit horizon 200"

    def test_largest_exact_power_of_two_window(self):
        s = PowerOfTwoSchedule()
        assert (s.window_bound(62), s.window_bound(63), s.window_bound(64)) == (2**63, 2**64, np.inf)

    @pytest.mark.parametrize(
        "bounds, message", [({0: 2}, "not declared"), ({0: 2, 1: 12}, "does not fit")]
    )
    def test_refuses_a_bound_before_any_plan_lookup(self, bounds, message):
        looked_up = []

        def rule(k):
            looked_up.append(k)
            return one_index_plan(k, k % 2)

        with pytest.raises(ValueError, match=message):
            verify_admissible(CustomSchedule(rule, window_bounds=bounds.get), 10, [0, 1])
        assert looked_up == []

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            verify_admissible(PowerOfTwoSchedule(), -1, [0])

    @pytest.mark.parametrize("horizon", [control._MAX_HORIZON + 1, 10**400])
    def test_refuses_a_horizon_above_the_ceiling_before_any_lookup(self, horizon):
        # refused unaudited: a horizon this large is never run
        looked_up = []

        def rule(k):
            looked_up.append(("plan", k))
            return one_index_plan(k, 0)

        def bound(n):
            looked_up.append(("bound", n))
            return 1

        with pytest.raises(ValueError, match="ceiling"):
            verify_admissible(CustomSchedule(rule, window_bounds=bound), horizon, [0])
        assert looked_up == []

    def test_repeat_audit_validates_nothing(self, monkeypatch):
        calls = []
        require_valid = IterationPlan.require_valid
        monkeypatch.setattr(
            IterationPlan, "require_valid", lambda plan: calls.append(plan) or require_valid(plan)
        )
        s = CyclicSchedule([one_index_plan(0, 0), one_index_plan(1, 3), one_index_plan(2, 1)])
        first = verify_admissible(s, 100, [0, 1, 3])
        assert calls == s.plans  # each stored plan validated once, on its first output_indices()
        calls.clear()
        again = verify_admissible(s, 100, [0, 1, 3])
        assert calls == []
        assert (again.passed, again.max_violation, again.worst) == (
            first.passed, first.max_violation, first.worst,
        )

    def test_multi_index_plans_count_every_touch(self):
        pair = IterationPlan(
            k=0, N=1, eps=0.5,
            steps=[StepSpec(1, (-1, -2), weights={-1: 0.5, -2: 0.5})],
        )
        s = CyclicSchedule([pair])
        rep = verify_admissible(s, 50, [1, 2])
        assert rep.passed and (s.window_bound(1), s.window_bound(2)) == (1, 1)
        assert rep.max_violation == 0.0  # touched at every k: a miss run of 0 against 1


def _audit_oracle(schedule, horizon, indices):
    """Per sorted index n, by brute force: ``(n, excess, i, missed)``.  The
    longest run of plans that miss n (the first on a tie) starts at k = i,
    ``excess`` is its length minus M_n plus 1, and ``missed`` says whether
    some full window, asking every plan in it, misses n."""
    out = []
    for n in sorted(indices):
        M = schedule.window_bound(n)
        touched = [n in schedule.plan_at(k).output_indices() for k in range(horizon + 1)]
        longest = start = run = 0
        for k, hit in enumerate(touched):
            run = 0 if hit else run + 1
            if run > longest:
                longest, start = run, k - run + 1
        missed = any(not any(touched[i : i + M]) for i in range(horizon - M + 2))
        out.append((n, longest - M + 1, start, missed))
    return out


class TestWindowAuditOracle:
    """``verify_admissible`` against a per-window oracle on random schedules."""

    @staticmethod
    def _random_schedule(rng, kind):
        n_inputs = int(rng.integers(2, 7))
        templates = []
        for t in range(int(rng.integers(1, 9))):
            width = int(rng.integers(1, min(n_inputs, 3) + 1))
            refs = tuple(-int(n) for n in rng.choice(n_inputs, width, replace=False))
            w = 1.0 / len(refs)
            steps = [StepSpec(1, refs, weights={r: w for r in refs})]
            templates.append(IterationPlan(k=t, N=1, eps=w, steps=steps))
        # declared windows from 1 up to past the period: some schedules violate them
        bounds = {n: int(rng.integers(1, len(templates) + 3)) for n in range(n_inputs)}
        if kind == "cyclic":
            # the stored templates in turn: the audit derives each one's index set once
            schedule = CustomSchedule(lambda k: templates[k % len(templates)], window_bounds=bounds.get)
            return schedule, n_inputs
        # a custom rule: a random sequence over the templates, and a fresh
        # plan (no shared index set) at every k
        order = rng.integers(0, len(templates), 200)

        def rule(k):
            t = templates[order[k]]
            return IterationPlan(k=k, N=t.N, eps=t.eps, steps=t.steps.values())

        return CustomSchedule(rule, window_bounds=bounds.get), n_inputs

    @pytest.mark.parametrize("kind", ["cyclic", "custom"])
    def test_agrees_with_brute_force(self, kind):
        rng = np.random.default_rng(17 if kind == "cyclic" else 18)
        verdicts = set()
        for _ in range(40):
            schedule, n_inputs = self._random_schedule(rng, kind)
            horizon = int(rng.integers(10, 60))
            indices = range(n_inputs)
            rep = verify_admissible(schedule, horizon, indices)
            oracle = _audit_oracle(schedule, horizon, indices)
            # a full window misses n exactly when the excess is positive
            assert [excess > 0 for _, excess, _, _ in oracle] == [m for *_, m in oracle]
            n, excess, start, _ = max(oracle, key=lambda t: t[1])  # the first on a tie
            assert rep.samples == len(oracle) == n_inputs
            assert rep.max_violation == float(excess)
            assert rep.passed == (excess <= 0)
            assert rep.worst == (None if rep.passed else (n, start))
            verdicts.add(rep.passed)
        assert verdicts == {True, False}


class _Forwarding(ControlSchedule):
    """Hands on what the wrapped schedule says, as a tracing wrapper does; counts its lookups."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = 0

    def plan_at(self, k):
        self.asked += 1
        return self.inner.plan_at(k)

    def window_bound(self, n):
        return self.inner.window_bound(n)

    def plan_metadata(self):
        return self.inner.plan_metadata()


class _DeclaredCycle(CyclicSchedule):
    """A cycle whose windows are declared, not its period: it keeps the cycle's ``plan_at``."""

    def __init__(self, templates, bounds):
        super().__init__(templates)
        self.bounds = bounds

    def window_bound(self, n):
        return self.bounds.get(n)


class _ShiftedCycle(_DeclaredCycle):
    def plan_at(self, k):
        return self.plans[(int(k) + 1) % len(self.plans)]


class _HeldPowerOfTwo(PowerOfTwoSchedule):
    def plan_at(self, k):
        return super().plan_at(int(k) // 2)  # each plan runs twice in a row


def _random_templates(rng):
    n_inputs = int(rng.integers(2, 7))
    templates = []
    for t in range(int(rng.integers(1, 10))):
        width = int(rng.integers(1, min(n_inputs, 3) + 1))
        refs = tuple(-int(n) for n in rng.choice(n_inputs, width, replace=False))
        w = 1.0 / len(refs)
        steps = [StepSpec(1, refs, weights={r: w for r in refs})]
        templates.append(IterationPlan(k=t, N=1, eps=w, steps=steps))
    return templates, n_inputs


def _audited_as_oracle(schedule, horizon, indices):
    """The audit's report, checked against ``_audit_oracle`` and, field for field,
    against the report for the same schedule behind a wrapper asked at every k."""
    rep = verify_admissible(schedule, horizon, indices)
    oracle = _audit_oracle(schedule, horizon, indices)
    n, excess, start, _ = max(oracle, key=lambda t: t[1], default=(None, 0, None, False))
    assert rep.samples == len(oracle)
    assert rep.max_violation == float(excess)
    assert rep.passed == (excess <= 0)
    assert rep.worst == (None if rep.passed else (n, start))
    wrapped = _Forwarding(schedule)
    assert verify_admissible(wrapped, horizon, indices) == rep
    assert wrapped.asked == horizon + 1
    return rep


class TestStridedAudit:
    """A cyclic or power-of-two schedule's own ``plan_at`` is read by its progressions."""

    def test_cycles_agree_with_brute_force(self):
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(40):
            templates, n_inputs = _random_templates(rng)
            L = len(templates)
            used = sorted(set().union(*(t.output_indices() for t in templates)))
            for horizon in sorted({max(L - 2, 0), L - 1, L, L + 1, int(rng.integers(L, 4 * L + 5))}):
                if horizon >= L - 1:  # the period fits the horizon
                    _audited_as_oracle(CyclicSchedule(templates), horizon, used)
                # declared windows from 1 up to past the period, as far as the horizon holds them
                bounds = {n: int(rng.integers(1, min(L + 2, horizon + 1) + 1)) for n in range(n_inputs)}
                rep = _audited_as_oracle(_DeclaredCycle(templates, bounds), horizon, range(n_inputs))
                verdicts.add(rep.passed)
        assert verdicts == {True, False}

    def test_power_of_two_agrees_with_brute_force(self):
        edges = {2**n + d for n in range(1, 13) for d in (-2, -1, 0)}
        for horizon in sorted(set(range(71)) | edges | {5000}):
            # every index whose window 2^(n+1) fits the horizon
            indices = range((horizon + 1).bit_length() - 1)
            assert _audited_as_oracle(PowerOfTwoSchedule(), horizon, indices).passed

    @pytest.mark.parametrize("make, distinct", [
        (lambda: CyclicSchedule([one_index_plan(k, k % 3) for k in range(4)]), 4),
        (PowerOfTwoSchedule, 10),
    ])
    def test_one_lookup_per_plan(self, monkeypatch, make, distinct):
        calls = []
        output_indices = IterationPlan.output_indices
        monkeypatch.setattr(
            IterationPlan, "output_indices", lambda plan: calls.append(plan) or output_indices(plan)
        )
        verify_admissible(make(), 1000, [])
        assert len(calls) == distinct
        calls.clear()
        verify_admissible(_Forwarding(make()), 1000, [])
        assert len(calls) == 1001

    def test_subclasses_are_audited_through_their_own_plan_at(self):
        templates = [one_index_plan(k, k) for k in range(3)]
        bounds = {0: 2, 1: 2, 2: 2}
        shifted = _audited_as_oracle(_ShiftedCycle(templates, bounds), 20, range(3))
        plain = _audited_as_oracle(_DeclaredCycle(templates, bounds), 20, range(3))
        assert (shifted.worst, plain.worst) == ((0, 0), (0, 1))
        held = _audited_as_oracle(_HeldPowerOfTwo(), 40, range(4))
        assert not held.passed and _audited_as_oracle(PowerOfTwoSchedule(), 40, range(4)).passed

    def test_only_plans_within_the_horizon_are_validated(self):
        s = _DeclaredCycle([one_index_plan(0, 0), one_index_plan(1, 0, eps=1.5)], {0: 1})
        for schedule in (s, _Forwarding(s)):
            assert verify_admissible(schedule, 0, [0]).passed  # k = 1 runs the invalid plan
            with pytest.raises(ValueError, match="step 0: eps must lie in"):
                verify_admissible(schedule, 1, [0])

    @pytest.mark.parametrize("make, indices, parent_peak", [
        (PowerOfTwoSchedule, range(16), 2_102_769),
        (lambda: CyclicSchedule([one_index_plan(k, k) for k in range(3)]), range(3), 1_968_745),
    ])
    def test_peak_memory(self, make, indices, parent_peak):
        # the code array stays the only horizon-sized allocation besides the per-index
        # arrays: the bounds are the peaks that the per-k audit, before the strided one
        # existed, read in this very test (CPython 3.11, numpy 2.4)
        schedule = make()
        verify_admissible(schedule, 100_000, indices)  # the plans and their index sets exist
        tracemalloc.start()
        try:
            verify_admissible(schedule, 100_000, indices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak


def stage_cycle(strings_per_stage, window_bounds):
    # one single-weight (or evenly weighted) string stage per entry, cycled
    plans = [
        gdsa_to_gmsa(StringStage(strings, [1.0 / len(strings)] * len(strings), k=k))
        for k, strings in enumerate(strings_per_stage)
    ]
    return CustomSchedule(lambda k: plans[k % len(plans)], window_bounds=window_bounds)


class TestFitCheck:
    """Window audits of string stages, through their rewritten plans.

    A rewritten plan touches exactly the stage's image, so
    ``verify_admissible`` over ``gdsa_to_gmsa`` plans is the stage audit.
    """

    def test_stage_sequence_passes(self):
        stages = [
            StringStage([(0, 1)], [1.0]),
            StringStage([(2,), (0,)], [0.5, 0.5]),
        ]
        plans = [gdsa_to_gmsa(st) for st in stages]
        images = [set().union(*st.strings) for st in stages]
        assert [p.output_indices() for p in plans] == images
        s = CustomSchedule(lambda k: plans[k % len(plans)], window_bounds={0: 2, 1: 2, 2: 2}.get)
        rep = verify_admissible(s, 40, [0, 1, 2])
        assert rep.passed

    def test_bare_index_tuples_accepted(self):
        rep = verify_admissible(stage_cycle([[(0,)], [(1,)]], {0: 2, 1: 2}.get), 20, [0, 1])
        assert rep.passed

    def test_detects_starved_index(self):
        # index 1 only every 4th iteration, but a window of 3 is promised
        s = stage_cycle([[(0,)], [(0,)], [(1,)], [(0,)]], {0: 3, 1: 3}.get)
        rep = verify_admissible(s, 30, [0, 1])
        assert not rep.passed
        assert rep.worst == (1, 3)

    def test_callable_stages(self):
        s = CustomSchedule(
            lambda k: gdsa_to_gmsa(StringStage([(k % 2,)], [1.0], k=k)),
            window_bounds={0: 2, 1: 2}.get,
        )
        rep = verify_admissible(s, 20, [0, 1])
        assert rep.passed
