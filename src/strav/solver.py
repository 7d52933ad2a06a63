"""Relaxed fixed-point drivers, plain and perturbed, and a Fejer audit of their traces.

One private kernel runs the recurrence

    x^{k+1} = u^k + lambda_k * (T_k(u^k) - u^k),      u^k = x^k + beta_k v^k,

where T_k is the k-th plan's output operator and the perturbation term is
optional (u^k = x^k exactly when beta_k = 0).  The plain, perturbed, and
superiorized entry points all share this kernel, so reductions between
them hold bitwise, not just to rounding.

The update loop keeps only what steers the run: the residual (the stop
test and the divergence guard read it), lambda_k and x^{k+1}.  phi(x^k)
and beta_k wait in a list, and x^k is held by reference (the driver
never writes an iterate in place).  Each B = max(1, 4096 // d) held
iterates, with the next one for the last step, are stacked once and
measured in numpy: a row-wise norm for the steps ||x^{k+1} - x^k||, one for
||x^k - z||, the slacks, and the m monitored distances, max(1, B // m) rows
at a time.  :meth:`~strav.sets.OperatorFamily.distances` then runs the
projection arithmetic on the active (row, set) pairs of its (rows, m) offsets
alone, or on all of them in two (rows, m, d) arrays where too many are active
or a row is not finite: a 4096-float budget, or one row, either way.
An update records 8 * (4 + m) bytes, 8 more for phi, 8 * (2 + d) for a
perturbation (beta_k, its size, v^k), and 8 * d per kept iterate.  The
bits are the one-update formulas': a row of a row-wise norm is that
row's norm alone, and the slack ``dz**2 - dz_next**2 - c * st**2``
squares with ``np.float_power(v, 2.0)``, Python's ``v ** 2`` bit for bit;
numpy's ``v * v``, which ``check_fejer`` uses, differs in the last bit
for about one double in a thousand.

A run asks :func:`~strav.gmsa.output_operator` for T_k once per plan
structure and keeps the answer for that run.  The family keeps every tree
built over it, so a config's run applies the trees ``parse_config`` built to
derive rho, and a power-of-two run of 20,000 updates builds 15, not 20,001.
A ``constant``, ``cycle`` or ``sweep`` of at most 4,096 points admits each
step size once, at construction, and ``lam(k)`` reads it from a table; a
caller's own rule and a longer sweep are computed and admitted at each use.

An update at a fixed point does no vector arithmetic.  When T_k hands u^k
back as the same array (an inactive halfspace or hyperplane, a relaxation
with alpha 1, a composition of such nodes), the residual is 0 and u^k
itself is x^{k+1} when lambda_k = 1 or u^k holds no -0.0; otherwise u^k +
lambda_k * 0.0 turns each -0.0 into +0.0, as the general formula does.
Whether x^k may hold a -0.0 is tracked, not scanned for: x^0 is checked
once; a sum is -0.0 only where both terms are, so u^k = x^k + beta_k v^k
holds one only where x^k does, and u^k + lambda_k r only where u^k does
(lambda_k r may underflow to -0.0); u^k + lambda_k * 0.0 at lambda_k > 0
holds none; and T_k(u^k) handed on at lambda_k = 1 may hold one.  So is
whether x^k is finite, which a fixed update at u^k = x^k would scan: x^0
is checked, T_k(u^k) is finite once the guard passed it, and a finite
u^k + lambda_k r cannot overflow when lambda_k ||r|| <= 1e291, below half
an ulp (2^970) of the largest float.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .gmsa import output_operator
from .numeric import _admits, _whole, _within, as_vector, norm
from .operators import _report

__all__ = [
    "RelaxationSchedule",
    "PerturbationSchedule",
    "constant_direction",
    "away_from",
    "random_unit_directions",
    "StopRule",
    "Trace",
    "run",
    "run_perturbed",
    "check_fejer",
]


class RelaxationSchedule:
    """Step sizes lambda_k = rule(k) kept inside the certified interval.

    The monotonicity theory needs ``lambda_k in [eps, 1 + rho - eps]`` for a
    uniform modulus ``rho`` of the plan outputs.  A table's values (``constant``,
    ``cycle``, a short ``sweep``) are admitted once, at construction, a rule's at each use.
    """

    def __init__(self, rule, eps, rho):
        self.eps, self.rho = float(eps), float(rho)
        self.lo, self.hi = self.interval(self.eps, self.rho)
        self._rule = rule
        self._table = None  # a cycle's admitted values, read as table[k % len(table)]

    @staticmethod
    def interval(eps, rho):
        """The step interval ``(lo, hi) = (eps, 1 + rho - eps)`` that ``eps`` and ``rho``
        certify; ValueError when eps is outside (0, 1], rho negative or NaN, or it is empty."""
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        if not rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {rho}")
        if not _admits(eps, eps, 1.0 + rho - eps):  # the interval admits its own floor
            raise ValueError(f"empty step range: eps={eps} exceeds (1 + rho)/2 with rho={rho}")
        return eps, 1.0 + rho - eps

    def lam(self, k):
        k = k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0)
        if self._table is None:
            return self._admit(float(self._rule(k)), k)
        return self._table[k % len(self._table)]

    def _admit(self, v, k=None):
        if not _admits(v, self.lo, self.hi):
            where = "" if k is None else f" at iteration {k}"
            raise ValueError(f"step size {v}{where} outside [{self.lo}, {self.hi}]")
        return v

    @property
    def fejer_constant(self):
        """Strong-monotonicity constant eps/(1 + rho - eps), which is positive."""
        return self.eps / (1.0 + self.rho - self.eps)

    @classmethod
    def constant(cls, value, eps, rho):
        return cls.cycle([value], eps, rho)

    @classmethod
    def cycle(cls, values, eps, rho):
        if not isinstance(values, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, Real) for v in values
        ):
            raise ValueError(f"a cycle needs a list of real step sizes, got {values!r}")
        if not values:
            raise ValueError("a cycle needs at least one step size")
        relax = cls(None, eps, rho)
        relax._table = [relax._admit(float(v)) for v in values]
        return relax

    @classmethod
    def sweep(cls, eps, rho, points=17):
        """Cycle a uniform grid of ``points >= 2`` values over the admissible interval."""
        points = _whole(points, "sweep points", lo=2)
        if points > sys.float_info.max:  # the grid divides by points - 1 as a float
            raise ValueError(f"a sweep needs at most {sys.float_info.max:.3e} points")
        lo, hi = cls.interval(float(eps), float(rho))
        # lo + span * i / den where span * i fits: up to 4,096 points admitted once, past that at each use
        span, den = hi - lo, points - 1
        fits = math.isfinite(span * den)  # then every span * i fits; else divide first where one overflows

        def grid(i):
            return lo + (span * i / den if fits or math.isfinite(span * i) else span * (i / den))

        if points <= 4096:
            return cls.cycle([grid(i) for i in range(points)], eps, rho)
        return cls(lambda k: grid(k % points), eps, rho)


def _perturbation(k, x, b, v):
    """``(b, v)``, checked as a perturbation of ``x`` at update ``k`` (see :class:`PerturbationSchedule`)."""
    if not 0.0 <= b < math.inf:
        raise ValueError(f"perturbation magnitude {b} at k={k} must be finite and nonnegative")
    if v.shape != (x.shape if type(x) is np.ndarray else np.shape(x)):  # np.shape costs a call
        raise ValueError(f"direction of shape {v.shape} at k={k}, iterate shape {np.shape(x)}")
    if not (v.ndim == 1 and v.dot(v) <= 1.0 + 1e-9):  # a NaN fails both tests
        nv = float(norm(v))
        if not _within(nv - 1.0):
            raise ValueError(f"direction norm {nv} exceeds 1 at k={k}")
    return b, v


class PerturbationSchedule:
    """Summable magnitudes beta_k paired with unit-ball directions.

    ``beta`` maps k to a finite beta_k >= 0.  ``direction`` always takes
    ``(k, x)``, so adversarial rules can react to the current iterate; a
    rule that ignores x still accepts it.  Each direction is checked at use:
    x's shape, and norm <= 1 within slack.  ``v.dot(v) <= 1 + 1e-9`` accepts a
    1-D direction at once: a sum of d squares errs by a relative d * 2**-53 at
    most, so its norm is at most 1 + 5e-10 + d * 2**-53, which the norm test
    (slack 1e-9 + 1e-12) passes whenever ``d * 2**-53 <= 5e-10``.  Nothing is
    cached: a rule may refill one buffer.
    """

    def __init__(self, beta, direction):
        self._beta = beta
        self._direction = direction

    def at(self, k, x):
        k = k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0)
        return _perturbation(k, x, float(self._beta(k)), np.asarray(self._direction(k, x), float))

    @classmethod
    def power(cls, c, p, direction):
        """beta_k = c / (k+1)^p with p > 1 (summable); c = 0 is the unperturbed limit.  Past
        the float range of (k+1)^p, beta_k is exp(log c - p log(k+1)), at most c / max."""
        c, p = float(c), float(p)
        if c < 0.0:
            raise ValueError("magnitude scale must be nonnegative")
        if c > 0.0 and p <= 1.0:
            raise ValueError(f"exponent must exceed 1 for a summable series, got {p}")

        def beta(k):
            try:
                return c / (k + 1) ** p
            except (OverflowError, ZeroDivisionError):  # c = 0 hands back c: the bits of 0 / (k+1)^p
                return c and min(c / sys.float_info.max, math.exp(math.log(c) - p * math.log(k + 1)))

        return cls(beta, direction)

    @classmethod
    def from_lists(cls, betas, vectors):
        """Replay recorded (beta_k, v^k) pairs verbatim."""
        betas = [float(b) for b in betas]
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        return cls(lambda k: betas[k] if k < len(betas) else 0.0,
                   lambda k, x: vectors[k] if k < len(vectors) else np.zeros_like(x))


def constant_direction(v):
    v = as_vector(v)
    return lambda k, x: v


def away_from(z):
    """Unit direction pointing from the current iterate away from ``z``."""
    z = as_vector(z)

    def direction(k, x):
        d = np.asarray(x, dtype=float) - z
        n = float(norm(d))
        return d / n if n > 0.0 else np.zeros_like(d)

    return direction


def random_unit_directions(dim, seed):
    rng = np.random.default_rng(seed)

    def direction(k, x):
        g = rng.standard_normal(dim)
        n = float(np.linalg.norm(g))
        return g / n if n > 0.0 else g

    return direction


@dataclass(frozen=True)
class StopRule:
    """First criterion to fire wins; ``None`` disables a criterion."""

    max_iters: int = 100_000
    residual_tol: float | None = 1e-10
    step_tol: float | None = 1e-12

    def __post_init__(self):
        _whole(self.max_iters, "iteration cap", lo=0)  # k >= cap stops: never at NaN or inf, 2.5 at 3
        for name in ("residual_tol", "step_tol"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, Real) or not v >= 0.0):
                raise ValueError(f"{name} must be None or a nonnegative real, got {v!r}")


@dataclass(eq=False)
class Trace:
    """Complete record of one driver run.

    Rows cover iterates 0..K (K updates executed); the final row carries
    step = slack = 0 since no update follows it.  ``residual[k]`` is
    ``||T_k(u^k) - u^k||`` at the k-th input point (perturbed if a
    perturbation was applied), ``step[k] = ||x^{k+1} - x^k||``,
    ``dist_witness[k] = ||x^k - z||`` and ``fejer_slack[k]`` the surplus
    ``dist_witness[k]**2 - dist_witness[k+1]**2 - c * step[k]**2`` at the
    run's own constant c.  ``pert_betas`` and ``pert_vectors`` (rows, d) hold
    the aggregate perturbations, for bitwise replay, and ``pert_mag`` their
    sizes.  The other scalar columns view one float64 table, a row per iterate.

    ``stop_reason == "residual"`` means the residual at ``u^k`` met the
    tolerance and, when ``u^k`` was perturbed away from ``x^k``, so did
    ``||T_k(x^k) - x^k||``: the reported final iterate is itself within
    tolerance of a fixed point of ``T_k``.
    """

    n_updates: int
    stop_reason: str
    residual: np.ndarray
    step: np.ndarray
    dist_witness: np.ndarray
    fejer_slack: np.ndarray
    set_distances: np.ndarray  # (rows, len(monitored))
    monitored: tuple
    phi: np.ndarray | None  # objective values, superiorized runs only
    pert_mag: np.ndarray | None  # ||beta_k v^k||, perturbed runs only
    pert_betas: np.ndarray | None  # beta_k, perturbed runs only
    pert_vectors: np.ndarray | None  # (rows, d): v^k, perturbed runs only
    xs: np.ndarray  # (kept, d): every record_stride-th iterate, and the final one
    xs_k: np.ndarray
    witness: np.ndarray
    fejer_constant: float
    eps: float
    rho: float
    record_stride: int
    family: object

    @property
    def n_rows(self):
        return len(self.residual)

    @property
    def final_x(self):
        return self.xs[-1]

    def _columns(self):
        """The CSV's ``(name, column)`` pairs after ``k``, in order."""
        cols = [(n, getattr(self, n)) for n in ("residual", "step", "dist_witness", "fejer_slack")]
        cols += [(f"d{j}", self.set_distances[:, j]) for j in range(len(self.monitored))]
        optional = (("phi", self.phi), ("pert_mag", self.pert_mag))
        return cols + [(n, col) for n, col in optional if col is not None]

    def to_csv(self, path):
        """Write a ``k,<column names>`` header and the scalar diagnostics, one row
        per iterate at full precision, to ``path``; return the text written."""
        cols = self._columns()
        table = np.column_stack([col for _, col in cols]).tolist()
        lines = [",".join(["k"] + [name for name, _ in cols])]
        lines += [",".join([str(k)] + [repr(v) for v in row]) for k, row in enumerate(table)]
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return text


@np.errstate(over="ignore", invalid="ignore")  # the guard and the trace judge a non-finite value
def _drive(family, schedule, relax, x0, stop, *, pert=None, objective=None, monitored=(),
           record_stride=1):
    record_stride = _whole(record_stride, "record_stride", lo=1)
    x = as_vector(x0, family.dim)
    z = family.witness
    c_fejer = relax.fejer_constant
    monitored = tuple(_whole(n, "monitored index", lo=0) for n in monitored)
    m = len(monitored)

    # float64 buffers: a row per iterate (residual, step, witness distance, slack, then phi and
    # beta_k), monitored distances, kept iterates and v^k; loop_vals holds c values an update
    rows, dists, kept, directions = (array("d") for _ in range(4))
    loop_vals, c = [], 1 + (objective is not None) + (pert is not None)
    # held: x^{k0}, ..., x^k by reference; measuring none refuses a bad index before k = 0
    B = max(1, 4096 // x.size)
    held, chunk = [], max(1, B // max(m, 1))
    family.distances(monitored, np.empty((0, x.size)))

    def measure(k0, n, final=False):
        # record x^{k0}, ..., x^{k0+n-1}; the iterate after them, unless final, gives the last step
        xs = np.array(held[: n + (not final)])
        del held[:n]  # the held arrays go before the temporaries below add to the peak
        dz, st = norm(xs - z), norm(xs[1:] - xs[:-1])
        sq = np.float_power(dz, 2.0)  # Python's v ** 2, bit for bit; numpy's v * v is not
        sl = sq[:-1] - sq[1:] - c_fejer * np.float_power(st, 2.0)
        st, sl = np.append(st, [0.0] * final), np.append(sl, [0.0] * final)  # no update follows the final row
        loop = np.array(loop_vals).reshape(n, c)  # residual, then phi and beta_k
        rows.frombytes(np.column_stack((loop[:, 0], st, dz[:n], sl, loop[:, 1:])).tobytes())
        loop_vals.clear()
        for i in range(0, n, chunk):  # at most two (chunk, m, d) scratch arrays: 4096 floats, or one row
            dists.frombytes(family.distances(monitored, xs[i : min(i + chunk, n)]).tobytes())
        kept.frombytes(xs[-k0 % record_stride : n : record_stride].tobytes())

    trees = {}
    clean = not np.signbit(x[x == 0.0]).any()  # x^k holds no -0.0 (see the module docstring)
    bounded = True  # x^k is finite (see the module docstring)
    pending = reason = None
    k = 0
    while True:
        plan = schedule.plan_at(k)
        key = plan.structure_key()
        T = trees.get(key)
        if T is None:
            T = trees[key] = output_operator(plan, family)
        u = x
        if pert is not None:
            b, v = pert(k, x)
            directions.frombytes(v.tobytes())
            if b != 0.0:
                u = x + b * v
        tu = T.apply(u)
        fixed = tu is u  # T_k fixes u exactly: the update is a zero step
        if fixed:
            # the scalar r keeps the bits of u - u below; norm(u - u) would be NaN exactly at
            # a non-finite u
            r = res = 0.0
            finite = u is x and bounded or np.all(np.isfinite(u))
        else:
            r = tu - u
            res = math.sqrt(np.add.reduce(r * r))  # float(norm(r)), bitwise, with less dispatch
            # a finite residual implies a finite tu; it may overflow while tu stays finite
            finite = math.isfinite(res) or np.all(np.isfinite(tu))
        if not finite:
            raise ValueError(f"numerical-divergence: non-finite iterate at k={k}")
        held.append(x)  # the driver never writes an iterate in place
        if len(held) > B:
            measure(k - B, B)

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
        loop_vals.append(res)
        if objective is not None:
            loop_vals.append(float(objective.value(x)))
        if pert is not None:
            loop_vals.append(b)
        if reason is not None:
            break
        lam = relax.lam(k)
        if lam == 1.0 or fixed and clean:  # at a fixed point tu is u
            x_next, clean, bounded = tu, clean and fixed, True
        else:
            x_next, clean = u + lam * r, clean or fixed and lam > 0.0
            bounded = fixed or lam * res <= 1e291  # see the module docstring
        # a fixed update at u = x moves at most the sign of a zero: its step is 0
        if stop.step_tol is not None and (
            fixed and u is x or float(norm(x_next - x)) <= stop.step_tol
        ):
            pending = "step"
        x = x_next
        k += 1

    measure(k - len(held) + 1, len(held), final=True)
    if k % record_stride:
        kept.frombytes(x.tobytes())
    table = np.frombuffer(rows).reshape(k + 1, -1)
    betas = table[:, -1] if pert is not None else None
    vectors = np.frombuffer(directions).reshape(-1, x.size) if pert is not None else None

    return Trace(
        n_updates=k, stop_reason=reason, residual=table[:, 0], step=table[:, 1],
        dist_witness=table[:, 2], fejer_slack=table[:, 3],
        set_distances=np.frombuffer(dists).reshape(k + 1, m), monitored=monitored,
        phi=table[:, 4] if objective is not None else None,
        pert_mag=norm(betas[:, None] * vectors) if pert is not None else None,
        pert_betas=betas, pert_vectors=vectors, xs=np.frombuffer(kept).reshape(-1, x.size),
        xs_k=np.append(np.arange(0, k, record_stride), k), witness=z.copy(),
        fejer_constant=c_fejer, eps=relax.eps, rho=relax.rho, record_stride=record_stride,
        family=family,
    )


def run(family, schedule, relax, x0, stop=StopRule(), *, monitored=(), record_stride=1):
    """Plain driver: x^{k+1} = x^k + lambda_k (T_k(x^k) - x^k) from ``x0``; returns a :class:`Trace`.

    ``family`` (an :class:`~strav.sets.OperatorFamily`) holds the inputs and their declared
    common point, ``schedule`` hands the plan of each k, ``relax`` the step sizes, validated
    against the certified interval, and ``stop`` the cap, residual and step criteria, the first to
    fire winning.  The distances to the ``monitored`` sets are recorded at every iterate, and every
    ``record_stride``-th full iterate is kept, the final one always.
    """
    return _drive(
        family, schedule, relax, x0, stop, monitored=monitored, record_stride=record_stride
    )


def run_perturbed(
    family, schedule, relax, perturb, y0, stop=StopRule(), *, monitored=(), record_stride=1
):
    """Perturbation-resilient variant: each update starts from y^k + beta_k v^k.

    The k-th update applies the lambda_k-relaxation of T_k to the perturbed
    point; with beta identically 0 the arithmetic path is the plain run's,
    so the traces agree bitwise.
    """
    return _drive(family, schedule, relax, y0, stop, pert=perturb.at, monitored=monitored,
                  record_stride=record_stride)


@np.errstate(over="ignore", invalid="ignore")
def check_fejer(trace, z, constant):
    """Audit ``||x^{k+1}-z||^2 <= ||x^k-z||^2 - c * ||x^{k+1}-x^k||^2`` on a trace.

    ``z`` must be fixed by every operator materialized during the run.  For
    the run's own witness the stored per-iteration scalars suffice; any
    other z needs a stride-1 trace (full iterates).  Like every inequality
    audit it returns a :class:`~strav.operators.CheckReport`: each step k is a sample, within
    ``1e-12 d_k^2 + 1e-15 (max|z| + d_k) d_k`` at ``d_k = ||x^k - z||``, and a failure's
    ``worst`` is ``(k,)`` for the worst failing step.
    """
    z = as_vector(z, trace.witness.shape[0])
    if not trace.family.check_common_point(z):
        raise ValueError("witness-not-fixed: z is not fixed by the materialized operators")
    K = trace.n_updates
    if np.array_equal(z, trace.witness):
        d = trace.dist_witness
    else:
        if trace.record_stride != 1:
            raise ValueError("full iterates unavailable (record_stride > 1); rerun with stride 1")
        d = norm(trace.xs - z)
    excess = d[1 : K + 1] ** 2 - d[:K] ** 2 + float(constant) * trace.step[:K] ** 2
    slack = 1e-12 * d[:K] ** 2 + 1e-15 * (np.abs(z).max() + d[:K]) * d[:K]  # each term scales as d_k^2
    return _report(f"fejer(c={float(constant):.6g})", excess, slack, (np.arange(K),))
