import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from strav.config import axis_halfspace_family
from strav.control import CustomSchedule, CyclicSchedule, PowerOfTwoSchedule, verify_admissible
from strav.dsa import gdsa_to_gmsa, msa_embed
from strav.fixtures import random_halfspace_family, random_plan_corpus, two_halfspace_family
from strav.gmsa import IterationPlan, StepSpec, rho_uniform
from strav.numeric import _whole, _within, as_vector, norm
from strav.operators import SampleBudget
from strav.sets import Halfspace
from strav.solver import PerturbationSchedule, RelaxationSchedule, StopRule, constant_direction, run
from strav.superiorize import BetaGrid


class TestAsVector:
    def test_passthrough(self):
        v = as_vector([1.0, 2.0, 3.0])
        assert v.dtype == np.float64
        assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_int_input_becomes_float(self):
        assert as_vector([1, 2]).dtype == np.float64

    def test_dim_check(self):
        as_vector([1.0, 2.0], dim=2)
        with pytest.raises(ValueError, match="dim-mismatch"):
            as_vector([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive dimension"):
            as_vector([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([np.inf, 0.0])


class TestInnerNorm:
    def test_norm_last_axis(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert_allclose(norm(X), [5.0, 0.0])
        assert norm(np.array([3.0, 4.0])) == 5.0

    @pytest.mark.parametrize("shape", [(1,), (5,), (20,), (130,), (7, 3), (64, 20)])
    def test_norm_equals_linalg_norm_bitwise(self, shape):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape)
        assert_array_equal(norm(x), np.linalg.norm(x, axis=-1))


    @pytest.mark.parametrize("d", [1, 5, 7, 8, 9, 20, 127, 128, 129, 2000])
    @pytest.mark.parametrize("rows", [1, 2, 39, 401])
    def test_row_norms_are_one_point_norms_bitwise(self, d, rows):
        # a run measures a block of iterates at once; its traces rest on this identity
        rng = np.random.default_rng(d * 1000 + rows)
        X = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-150, 150, size=(rows, 1))
        got = norm(X)
        assert got.tobytes() == np.array([norm(x) for x in X]).tobytes()


class TestShortRowSum:
    """A batch of rows shorter than 8 is summed a column at a time, with numpy's bits."""

    @staticmethod
    def _entries(rng, shape):
        # signed zeros, subnormals, squares that overflow, infinities and NaN among ordinary values
        special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e200, -3e154, np.inf, -np.inf, np.nan, -np.nan])
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-170, 170, size=shape)
        return np.where(rng.random(shape) < 0.3, rng.choice(special, size=shape), x)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("lead", [(40,), (6, 7)])
    def test_norm_keeps_the_bits_of_add_reduce(self, n, lead):
        rng = np.random.default_rng(100 * n + len(lead))
        for _ in range(20):
            x = self._entries(rng, lead + (n,))
            with np.errstate(over="ignore"):
                want = np.sqrt(np.add.reduce(x * x, axis=-1))
                got = norm(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_row_that_matters_to_the_order(self):
        # (1 + 1e-16) + 1e-16 is 1, while 1 + (1e-16 + 1e-16) is not: numpy sums such a row in
        # order, and so does the column sum
        x = np.sqrt(np.array([[1.0, 1e-16, 1e-16], [1e-16, 1e-16, 1.0]]))
        assert norm(x).tobytes() == np.sqrt(np.add.reduce(x * x, axis=-1)).tobytes()
        assert norm(x[:1])[0] == 1.0

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (4, 0, 3)])
    def test_empty_batches_keep_their_shape(self, shape):
        x = np.zeros(shape)
        assert norm(x).shape == np.add.reduce(x, axis=-1).shape


class TestWithin:
    def test_slack_grows_with_the_scale(self):
        assert _within(1e-9) and not _within(2e-9)
        assert _within(1e-4, 1e8) and not _within(1e-3, 1e8)

    def test_an_infinite_scale_never_passes(self):
        # an overflowed scale would otherwise admit any excess, inf included
        assert not _within(np.inf, np.inf)
        assert not _within(0.0, np.inf)
        scales = np.array([1.0, np.inf, np.nan])
        assert_array_equal(_within(np.zeros(3), scales), [True, False, False])


class TestWhole:
    @pytest.mark.parametrize("v", [0, -7, 2**80, np.int64(3), np.uint8(3), np.intp(-2)])
    def test_an_integer_passes_as_an_int(self, v):
        got = _whole(v, "count")
        assert type(got) is int and got == v

    @pytest.mark.parametrize(
        "v", [1.5, 3.0, np.float64(2.0), True, False, np.bool_(True), "3", None, math.nan, math.inf]
    )
    def test_anything_else_is_refused_by_name(self, v):
        with pytest.raises(ValueError) as exc:
            _whole(v, "count")
        assert str(exc.value) == f"count must be an integer, got {v!r}"

    def test_a_value_below_the_floor_is_refused(self):
        assert _whole(1, "sample count", lo=1) == 1
        with pytest.raises(ValueError) as exc:
            _whole(0, "sample count", lo=1)
        assert str(exc.value) == "sample count must be an integer >= 1, got 0"
        with pytest.raises(ValueError, match=r"must be an integer >= 1, got 0\.5"):
            _whole(0.5, "sample count", lo=1)


def _plain_run(**kw):
    family, sched = two_halfspace_family(), CyclicSchedule.over_indices([0, 1])
    relax = RelaxationSchedule.constant(0.5, 0.25, 1.0)
    return run(family, sched, relax, [3.0, 4.0], StopRule(2, None, None), **kw)


def _window_audit(bound):
    plan_at = CyclicSchedule.over_indices([0]).plan_at
    return verify_admissible(CustomSchedule(plan_at, window_bounds=lambda n: bound), 10, [0])


def _lam(k):
    return RelaxationSchedule.cycle([0.5, 0.7], 0.25, 1.0).lam(k)


def _perturbation_at(k):
    return PerturbationSchedule.power(1.0, 2.0, constant_direction([0.6, 0.8])).at(k, np.zeros(2))


def _padded_window(n):
    base = [IterationPlan(0, 1, 1.0, [StepSpec.relaxation(0, 1.0)])]
    _, schedule = msa_embed([Halfspace([1.0, 0.0], 0.0)], [0.0, 0.0], base)
    return schedule.window_bound(n)


# each caller's count, index and reference that ``_whole`` reads: (site, call, an accepted
# value, the least accepted value or None)
_SITES = [
    ("StepSpec.c", lambda v: StepSpec(v, (-1,), alpha=1.0), 0, None),
    ("StepSpec.J", lambda v: StepSpec(0, (v,), alpha=1.0), -1, None),
    ("StepSpec.order", lambda v: StepSpec(2, (-1,), order=(v,)), -1, None),
    ("IterationPlan.k", lambda v: IterationPlan(v, 1, 1.0, [StepSpec(0, (-1,), alpha=1.0)]), 0, None),
    ("IterationPlan.N", lambda v: IterationPlan(0, v, 1.0, [StepSpec(0, (-1,), alpha=1.0)]), 1, None),
    ("rho_uniform.K", lambda v: rho_uniform(v, 2, 1.0), 3, 1),
    ("rho_uniform.M", lambda v: rho_uniform(2, v, 1.0), 3, 1),
    ("gdsa_to_gmsa", lambda v: gdsa_to_gmsa([(v,)], [1.0]), 1, 0),
    ("over_indices", lambda v: CyclicSchedule.over_indices([v]), 1, 0),
    ("verify_admissible.horizon", lambda v: verify_admissible(CyclicSchedule.over_indices([0]), v, [0]), 10, 0),
    ("verify_admissible.index", lambda v: verify_admissible(CyclicSchedule.over_indices([0]), 10, [v]), 0, 0),
    ("window bound", _window_audit, 1, 1),
    ("PowerOfTwoSchedule.window_bound", lambda v: PowerOfTwoSchedule().window_bound(v), 3, 0),
    ("CyclicSchedule.window_bound", lambda v: CyclicSchedule.over_indices([0, 1]).window_bound(v), 1, 0),
    ("msa_embed window bound", _padded_window, 3, 0),
    ("OperatorFamily.operator", lambda v: two_halfspace_family().operator(v), 1, 0),
    ("StopRule", lambda v: StopRule(v), 3, 0),
    ("sweep", lambda v: RelaxationSchedule.sweep(0.25, 0.5, points=v), 3, 2),
    ("record_stride", lambda v: _plain_run(record_stride=v), 2, 1),
    ("monitored", lambda v: _plain_run(monitored=(v,)), 1, 0),
    ("SampleBudget", lambda v: SampleBudget(count=v), 3, 1),
    ("axis_halfspace_family", lambda v: axis_halfspace_family(v), 2, 1),
    ("random_halfspace_family", lambda v: random_halfspace_family(2, v, 0), 2, 0),
    ("random_plan_corpus", lambda v: random_plan_corpus(v, 0), 2, 0),
    ("RelaxationSchedule.lam", _lam, 1, 0),
    ("PerturbationSchedule.at", _perturbation_at, 2, 0),
    ("BetaGrid.M", lambda v: BetaGrid.geometric(0.5, M=2).M(v), 1, 0),
    ("BetaGrid.beta.k", lambda v: BetaGrid.geometric(0.5, M=2).beta(v, 1), 1, 0),
    ("BetaGrid.beta.n", lambda v: BetaGrid.geometric(0.5, M=2).beta(1, v), 1, 1),
]
_IDS = [site for site, *_ in _SITES]


class TestEverySiteReadsWholeNumbers:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: two_halfspace_family().operator(1.7),  # was input 1
            lambda: verify_admissible(PowerOfTwoSchedule(), 20.9, [0.5]),  # passed as horizon 20, index 0
            lambda: verify_admissible(PowerOfTwoSchedule(), 20, [0.5]),
            lambda: _plain_run(monitored=(1.9,), record_stride=2.5),  # ran as (1,) and 2
            lambda: _plain_run(monitored=(1.9,)),
            lambda: CyclicSchedule.over_indices([1.5]),  # was input 1
            lambda: RelaxationSchedule.sweep(0.25, 0.5, points=2.5),  # failed only at iteration 2
            lambda: StepSpec(0, (-1.7,), alpha=1.0),  # was input 1
            lambda: gdsa_to_gmsa([(1.5, 2.9)], [1.0]),  # a valid plan over inputs 1 and 2
            lambda: _window_audit(3.0),  # a whole float passed the window audit
            lambda: _lam(1.5),  # was lam(1), 0.7
            lambda: _perturbation_at(2.5),  # was at(2, x)
            lambda: BetaGrid.geometric(0.5, M=2).betas(1.5),  # was betas(1)
            lambda: BetaGrid.geometric(0.5, M=2).beta(1, 1.5),  # was beta(1, 1)
            lambda: CyclicSchedule.over_indices([0, 1]).window_bound(1.0),  # was the window 2
            lambda: CyclicSchedule.over_indices([0, 1]).window_bound(True),  # was the window 2
            lambda: CyclicSchedule.over_indices([0, 1]).window_bound("1"),  # was None, no window
            lambda: CyclicSchedule.over_indices([0, 1]).window_bound(-1),  # was None, no window
        ],
    )
    def test_a_fraction_once_truncated_is_refused(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call", [lambda: _lam(True), lambda: _lam(-1)])
    def test_a_step_size_is_read_at_its_own_k(self, call):
        # lam(True) and lam(-1) returned lam(1), 0.7
        with pytest.raises(ValueError, match="iteration k must be an integer >= 0"):
            call()

    def test_a_negative_k_is_refused_by_name(self):
        # (k + 1) ** p at k = -1 ended in a bare "math domain error"
        with pytest.raises(ValueError, match="iteration k must be an integer >= 0, got -1"):
            _perturbation_at(-1)

    def test_a_bool_weight_key_is_refused(self):
        # the key True found the weight of reference 1
        with pytest.raises(ValueError, match="weight reference must be an integer, got True"):
            StepSpec(1, (1, 2), weights={True: 0.5, 2: 0.5})

    @pytest.mark.parametrize("v", [1.5, True, "3"])
    @pytest.mark.parametrize("call", [c for _, c, _, _ in _SITES], ids=_IDS)
    def test_refuses_what_is_not_an_integer(self, call, v):
        with pytest.raises(ValueError, match=f"must be an integer.*, got {v!r}"):
            call(v)

    @pytest.mark.parametrize("call, ok", [(c, ok) for _, c, ok, _ in _SITES], ids=_IDS)
    def test_takes_a_numpy_integer(self, call, ok):
        call(np.int64(ok))

    @pytest.mark.parametrize(
        "call, lo", [(c, lo) for _, c, _, lo in _SITES if lo is not None],
        ids=[site for site, _, _, lo in _SITES if lo is not None],
    )
    def test_refuses_a_value_below_its_floor(self, call, lo):
        with pytest.raises(ValueError, match=f"must be an integer >= {lo}, got {lo - 1}"):
            call(lo - 1)
