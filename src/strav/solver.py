"""Relaxed fixed-point drivers, plain and perturbed, with trace audits.

One private kernel runs the recurrence

    x^{k+1} = u^k + lambda_k * (T_k(u^k) - u^k),      u^k = x^k + beta_k v^k,

where T_k is the k-th plan's output operator and the perturbation term is
optional (u^k = x^k exactly when beta_k = 0).  The plain, perturbed, and
superiorized entry points all share this kernel, so reductions between
them hold bitwise, not just to rounding.

Scalar diagnostics (residual, step, witness distance, monotonicity slack,
per-set distances) are recorded every iteration; full iterates are thinned
by ``record_stride`` to bound memory, with the final iterate always kept.
The monitored distances of one iterate come from one
:meth:`~strav.sets.OperatorFamily.distances` call, which answers the
halfspaces and hyperplanes with one stacked matrix-vector product instead
of one projection per set.

A run builds one output operator per plan structure: ``_drive`` keeps a
dict from :meth:`~strav.gmsa.IterationPlan.structure_key` to the tree
:func:`~strav.gmsa.output_operator` built, for that run only.  The key
leaves out ``k`` and keeps ``eps``, so an invalid plan never meets a tree
built for a valid one.  A power-of-two run of 20,000 updates builds 15
trees instead of 20,001.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .gmsa import output_operator
from .numeric import _SLACK, _within, as_vector, norm

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
    "FejerReport",
    "check_fejer",
]


class RelaxationSchedule:
    """Step sizes lambda_k = rule(k) kept inside the certified interval.

    The monotonicity theory needs ``lambda_k in [eps, 1 + rho - eps]`` for a
    uniform modulus ``rho`` of the plan outputs; every value the rule emits
    is checked against that interval at use.  ``permissive=True`` widens
    the interval to ``[eps, 2 - eps]`` and zeroes the strong-monotonicity
    constant, since no quantitative guarantee survives out there.
    ``constant`` and ``cycle`` also check their values at construction.
    """

    def __init__(self, rule, eps, rho, *, permissive=False):
        eps, rho = float(eps), float(rho)
        self.lo, self.hi = self.interval(eps, rho, permissive)
        self.eps = eps
        self.rho = rho
        self.permissive = bool(permissive)
        self._rule = rule

    @staticmethod
    def interval(eps, rho, permissive=False):
        """The step interval ``(lo, hi)`` that ``eps`` and ``rho`` certify.

        Raises ValueError when eps lies outside (0, 1], rho is negative or NaN, or
        the interval is empty (permissive mode widens it to ``2 - eps``).
        """
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        if not rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {rho}")
        if permissive:
            return eps, 2.0 - eps
        if eps > (1.0 + rho) / 2.0 + _SLACK:
            raise ValueError(
                f"empty step range: eps={eps} exceeds (1 + rho)/2 with rho={rho}"
            )
        return eps, 1.0 + rho - eps

    def lam(self, k):
        return self._admit(float(self._rule(int(k))), f" at iteration {k}")

    def _admit(self, v, where=""):
        if not self.lo - _SLACK <= v <= self.hi + _SLACK:
            raise ValueError(f"step size {v}{where} outside [{self.lo}, {self.hi}]")
        return v

    @property
    def fejer_constant(self):
        """Strong-monotonicity constant eps/(1 + rho - eps); 0 in permissive mode."""
        if self.permissive:
            return 0.0
        return self.eps / (1.0 + self.rho - self.eps)

    @classmethod
    def constant(cls, value, eps, rho, **kw):
        return cls.cycle([value], eps, rho, **kw)

    @classmethod
    def cycle(cls, values, eps, rho, **kw):
        if not isinstance(values, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, Real) for v in values
        ):
            raise ValueError(f"a cycle needs a list of real step sizes, got {values!r}")
        vals = [float(v) for v in values]
        if not vals:
            raise ValueError("a cycle needs at least one step size")
        relax = cls(lambda k: vals[k % len(vals)], eps, rho, **kw)
        for v in vals:
            relax._admit(v)
        return relax

    @classmethod
    def sweep(cls, eps, rho, points=17, **kw):
        """Cycle a uniform grid of ``points >= 2`` values over the admissible interval."""
        if points < 2:
            raise ValueError(f"a sweep needs at least 2 points, got {points}")
        if points > sys.float_info.max:  # the grid divides by points - 1 as a float
            raise ValueError(f"a sweep needs at most {sys.float_info.max:.3e} points")
        lo, hi = cls.interval(float(eps), float(rho), kw.get("permissive", False))
        # each grid value is computed at use, so a huge ``points`` costs nothing
        span, den = hi - lo, points - 1
        return cls(lambda k: lo + span * (k % points) / den, eps, rho, **kw)


class PerturbationSchedule:
    """Summable magnitudes beta_k paired with unit-ball directions.

    ``beta`` maps k to beta_k >= 0.  ``direction`` always takes ``(k, x)``,
    so adversarial rules can react to the current iterate; a rule that
    ignores x still accepts it.  Direction norms are checked at use
    (<= 1 within slack).
    """

    def __init__(self, beta, direction):
        self._beta = beta
        self._direction = direction

    def at(self, k, x):
        b = float(self._beta(int(k)))
        if b < 0.0:
            raise ValueError(f"perturbation magnitude must be nonnegative, got {b} at k={k}")
        v = np.asarray(self._direction(int(k), x), dtype=float)
        nv = float(norm(v))
        if not _within(nv - 1.0):
            raise ValueError(f"direction norm {nv} exceeds 1 at k={k}")
        return b, v

    @classmethod
    def power(cls, c, p, direction):
        """beta_k = c / (k+1)^p with p > 1 (summable); c = 0 is the unperturbed limit."""
        c, p = float(c), float(p)
        if c < 0.0:
            raise ValueError("magnitude scale must be nonnegative")
        if c > 0.0 and p <= 1.0:
            raise ValueError(f"exponent must exceed 1 for a summable series, got {p}")
        return cls(lambda k: c / (k + 1) ** p, direction)

    @classmethod
    def from_lists(cls, betas, vectors):
        """Replay recorded (beta_k, v^k) pairs verbatim."""
        betas = [float(b) for b in betas]
        vectors = [np.asarray(v, dtype=float) for v in vectors]

        def beta(k):
            return betas[k] if k < len(betas) else 0.0

        def direction(k, x):
            return vectors[k] if k < len(vectors) else np.zeros_like(x)

        return cls(beta, direction)


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
        if self.max_iters < 0:
            raise ValueError("iteration cap must be nonnegative")
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
    perturbation was applied), ``dist_witness[k] = ||x^k - z||``, and
    ``fejer_slack[k]`` is the strong-monotonicity surplus at the run's own
    constant.  ``pert_betas``/``pert_vectors`` hold the aggregate
    perturbations actually applied, for bitwise replay.

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
    pert_betas: list | None
    pert_vectors: list | None
    xs: np.ndarray  # every record_stride-th iterate, and the final one
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

    def csv_header(self):
        return ",".join(["k"] + [name for name, _ in self._columns()])

    def to_csv(self, path):
        """Write the scalar diagnostics, one row per iterate, full precision."""
        table = np.column_stack([col for _, col in self._columns()]).tolist()
        lines = [self.csv_header()]
        lines += [",".join([str(k)] + [repr(v) for v in row]) for k, row in enumerate(table)]
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _drive(
    family,
    schedule,
    relax,
    x0,
    stop,
    *,
    pert=None,
    objective=None,
    monitored=(),
    record_stride=1,
):
    record_stride = int(record_stride)
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    x = as_vector(x0, family.dim)
    z = family.witness
    c_fejer = relax.fejer_constant
    monitored = tuple(int(n) for n in monitored)

    residual, step, dist_w, slack = [], [], [], []
    dists, phis, mags = [], [], []
    betas_log, vecs_log = [], []
    xs, xs_k = [], []

    trees = {}
    dz = float(norm(x - z))
    pending = None
    reason = None
    k = 0
    while True:
        plan = schedule.plan_at(k)
        key = plan.structure_key()
        T = trees.get(key)
        if T is None:
            T = trees[key] = output_operator(plan, family)
        if pert is not None:
            b, v = pert(k, x)
            betas_log.append(b)
            vecs_log.append(np.array(v, dtype=float))
            if b != 0.0:
                p = b * v
                u = x + p
                mag = float(norm(p))
            else:
                u = x
                mag = 0.0
            mags.append(mag)
        else:
            u = x
        tu = T.apply(u)
        res = float(norm(tu - u))
        # a finite residual implies a finite tu; it may overflow while tu stays finite
        if not math.isfinite(res) and not np.all(np.isfinite(tu)):
            raise ValueError(f"numerical-divergence: non-finite iterate at k={k}")

        residual.append(res)
        dist_w.append(dz)
        if monitored:
            dists.append(family.distances(monitored, x))
        if objective is not None:
            phis.append(float(objective.value(x)))
        if k % record_stride == 0:
            xs.append(x.copy())
            xs_k.append(k)

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
        if reason is not None:
            step.append(0.0)
            slack.append(0.0)
            break

        lam = relax.lam(k)
        x_next = tu if lam == 1.0 else u + lam * (tu - u)
        st = float(norm(x_next - x))
        dz_next = float(norm(x_next - z))
        slack.append(dz**2 - dz_next**2 - c_fejer * st**2)
        step.append(st)
        x, dz = x_next, dz_next
        k += 1
        if stop.step_tol is not None and st <= stop.step_tol:
            pending = "step"

    if not xs_k or xs_k[-1] != k:
        xs.append(x.copy())
        xs_k.append(k)

    return Trace(
        n_updates=k,
        stop_reason=reason,
        residual=np.asarray(residual),
        step=np.asarray(step),
        dist_witness=np.asarray(dist_w),
        fejer_slack=np.asarray(slack),
        set_distances=np.asarray(dists) if monitored else np.zeros((k + 1, 0)),
        monitored=monitored,
        phi=np.asarray(phis) if objective is not None else None,
        pert_mag=np.asarray(mags) if pert is not None else None,
        pert_betas=betas_log if pert is not None else None,
        pert_vectors=vecs_log if pert is not None else None,
        xs=np.asarray(xs),
        xs_k=np.asarray(xs_k),
        witness=z.copy(),
        fejer_constant=c_fejer,
        eps=relax.eps,
        rho=relax.rho,
        record_stride=record_stride,
        family=family,
    )


def run(family, schedule, relax, x0, stop=StopRule(), *, monitored=(), record_stride=1):
    """Plain driver: x^{k+1} = x^k + lambda_k (T_k(x^k) - x^k).

    Parameters
    ----------
    family : OperatorFamily
        Input operators with their declared common point.
    schedule : ControlSchedule
        Supplies the per-iteration plan.
    relax : RelaxationSchedule
        Step sizes, validated against the certified interval.
    x0 : array_like
        Starting point.
    stop : StopRule
        Cap / residual / step criteria; first hit wins.
    monitored : iterable of int
        Set indices whose distances are recorded every iteration.
    record_stride : int
        Keep every stride-th full iterate (final always kept).

    Returns
    -------
    Trace
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
    return _drive(
        family,
        schedule,
        relax,
        y0,
        stop,
        pert=perturb.at,
        monitored=monitored,
        record_stride=record_stride,
    )


@dataclass
class FejerReport:
    """Monotonicity audit at a caller-chosen constant."""

    passed: bool
    constant: float
    max_violation: float
    first_violating_k: int | None
    checked: int

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"fejer(c={self.constant:.6g}): {verdict} "
            f"(max violation {self.max_violation:.3e} over {self.checked} steps)"
        )


def check_fejer(trace, z, constant):
    """Audit ``||x^{k+1}-z||^2 <= ||x^k-z||^2 - c * ||x^{k+1}-x^k||^2`` on a trace.

    ``z`` must be fixed by every operator materialized during the run.  For
    the run's own witness the stored per-iteration scalars suffice; any
    other z needs a stride-1 trace (full iterates).  Step k is judged at
    scale ``||x^k - z||^2``.
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
    steps = trace.step[:K]
    dk = d[:K] ** 2
    slack = dk - d[1 : K + 1] ** 2 - float(constant) * steps**2
    if K == 0:
        return FejerReport(True, float(constant), 0.0, None, 0)
    viol = -slack
    bad = np.flatnonzero(~_within(viol, dk))
    return FejerReport(
        passed=bad.size == 0,
        constant=float(constant),
        max_violation=float(np.max(viol)),
        first_violating_k=int(bad[0]) if bad.size else None,
        checked=K,
    )

