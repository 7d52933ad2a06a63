"""Superiorization: nudge the feasibility iteration downhill on an objective.

Before the k-th feasibility update, a short inner loop takes M_k steps of
size beta_{k,n} along negated normalized subgradients, each direction
evaluated at the partially shifted point; a subgradient of norm at most
1e-12 counts as 0 and its step is skipped.  The shifted point then feeds
the relaxed feasibility operator.  Because the double series of step sizes
is summable, the perturbations are bounded and the feasibility guarantees
survive; the objective values are merely coaxed, not optimized.

The inner loop's total shift is applied through the same kernel as
:func:`strav.solver.run_perturbed`, in aggregate form
``beta_k * (sum_n beta_{k,n} v^{k,n} / beta_k)`` with
``beta_k = sum_n beta_{k,n}``, so replaying the recorded aggregates
through ``run_perturbed`` reproduces the trace bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import _finite_norm, _whole, _within, as_vector, norm
from .solver import StopRule, _drive, _perturbation

__all__ = [
    "ObjectiveOracle",
    "linear_objective",
    "squared_distance_objective",
    "max_affine_objective",
    "BetaGrid",
    "inner_directions",
    "run_superiorized",
    "AlternativesReport",
    "alternatives_diagnostic",
]

_ZERO_TOL = 1e-12
# An inner step costs about 11 us (linear objective, d = 2, numpy 2.4 on a
# 2-core host), so this ceiling keeps one update's inner loop near 0.1 s.
_MAX_INNER_STEPS = 10_000
_MIN_TAIL = 10  # strict decreases that back an alternative-2 verdict


@dataclass(frozen=True)
class ObjectiveOracle:
    """Convex objective access: value, one subgradient per point, optional minimizers.

    ``argmin_witnesses`` is consulted only by the alternatives diagnostic;
    leave it None when the minimizers are unknown.
    """

    value: callable
    subgradient: callable
    argmin_witnesses: tuple | None = None

    def witnesses(self):
        if not self.argmin_witnesses:
            raise ValueError("no-argmin-witness: oracle declares no minimizers")
        return [as_vector(w) for w in self.argmin_witnesses]


def linear_objective(c, argmin_witnesses=None):
    """phi(x) = <c, x>; the subgradient is constant."""
    c = as_vector(c)
    _finite_norm(c, "the norm of c overflows")  # each inner step divides c by it
    return ObjectiveOracle(
        value=lambda x: float(np.asarray(x, dtype=float) @ c),
        subgradient=lambda x: c.copy(),
        argmin_witnesses=_freeze(argmin_witnesses),
    )


def squared_distance_objective(target, argmin_witnesses=None):
    """phi(x) = ||x - target||^2, gradient 2(x - target)."""
    t = as_vector(target)
    if argmin_witnesses is None:
        argmin_witnesses = (t,)
    return ObjectiveOracle(
        value=lambda x: float(norm(np.asarray(x, dtype=float) - t) ** 2),
        subgradient=lambda x: 2.0 * (np.asarray(x, dtype=float) - t),
        argmin_witnesses=_freeze(argmin_witnesses),
    )


def max_affine_objective(rows, offsets, argmin_witnesses=None):
    """phi(x) = max_i (<rows_i, x> + offsets_i); subgradient from the first active row."""
    A = np.asarray(rows, dtype=float)
    b = np.asarray(offsets, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("need one offset per row")
    for i, row in enumerate(A):
        _finite_norm(row, f"the norm of rows[{i}] overflows")  # each inner step divides a row by it

    def value(x):
        return float(np.max(A @ np.asarray(x, dtype=float) + b))

    def subgradient(x):
        vals = A @ np.asarray(x, dtype=float) + b
        return A[int(np.argmax(vals))].copy()

    return ObjectiveOracle(value, subgradient, _freeze(argmin_witnesses))


def _freeze(witnesses):
    frozen = None if witnesses is None else tuple(as_vector(w) for w in witnesses)
    for i, w in enumerate(frozen or ()):  # the alternatives diagnostic judges at ||w||
        _finite_norm(w, f"the norm of argmin[{i}] overflows")
    return frozen


class BetaGrid:
    """Inner step counts M_k and sizes beta_{k,n} (1-based n, n <= M_k).

    The built-in :meth:`geometric` form ``c * 2^{-k} / M_k``, over the integer
    M_k that :meth:`M` reads, makes the double series sum to ``2c``.  A custom
    grid is trusted to be summable; the driver cannot verify an infinite tail.
    A step count above ``_MAX_INNER_STEPS`` is refused, a constant one (an int >= 0) at once.
    """

    def __init__(self, M, beta):
        self._M = M if callable(M) else (lambda k, m=_whole(M, "inner step count", lo=0): m)
        self._beta = beta
        if not callable(M):
            self.M(0)

    def M(self, k):
        m = int(self._M(k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0)))
        if m < 0:
            raise ValueError(f"inner step count must be nonnegative, got {m} at k={k}")
        if m > _MAX_INNER_STEPS:
            raise ValueError(f"inner step count at k={k} exceeds {_MAX_INNER_STEPS}")
        return m

    def beta(self, k, n):
        k = k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0)
        b = float(self._beta(k, n if type(n) is int and n >= 1 else _whole(n, "inner step n", lo=1)))
        if not 0.0 <= b < np.inf:
            raise ValueError(f"inner step {b} at (k={k}, n={n}) must be finite and nonnegative")
        return b

    def betas(self, k):
        return [self.beta(k, n) for n in range(1, self.M(k) + 1)]

    @classmethod
    def geometric(cls, c, M=1):
        c = float(c)
        if c < 0.0:
            raise ValueError("scale must be nonnegative")
        grid = cls(M, lambda k, n: c * 2.0 ** (-k) / grid.M(k))
        return grid


def inner_directions(oracle, y, betas):
    """Directions v^1..v^M of the inner loop at base point y.

    Direction m is the negated normalized subgradient taken at
    ``y + sum_{i<m} betas[i] * v^i``; a subgradient of norm <= 1e-12 is
    treated as 0 in the subdifferential and yields the zero direction (the
    shift for that inner step is skipped); one whose norm is not finite is refused.
    """
    y = np.asarray(y, dtype=float)
    point = y
    out = []
    for b in betas:
        s = np.asarray(oracle.subgradient(point), dtype=float)
        ns = _finite_norm(s, "numerical-divergence: objective subgradient norm is not finite")
        if ns <= _ZERO_TOL:
            v = np.zeros_like(y)
        else:
            v = -s / ns
            point = point + float(b) * v
        out.append(v)
    return out


def run_superiorized(family, schedule, relax, oracle, grid, y0, stop=StopRule(), *, monitored=(),
                     record_stride=1):
    """Feasibility run with objective-reducing inner perturbations; returns a :class:`~strav.solver.Trace`.

    Per iteration: the :func:`inner_directions` of ``oracle`` and the sizes
    from ``grid``, aggregated into a single perturbation, then the relaxed
    feasibility update.  The trace gains ``phi`` (objective at each iterate)
    and ``pert_mag`` columns, plus the raw aggregates for bitwise replay.
    """

    def pert(k, y):
        betas = grid.betas(k)
        beta_k = sum(betas)
        if beta_k == 0.0:
            return 0.0, np.zeros_like(y)
        if beta_k == np.inf:
            raise ValueError(f"inner steps at k={k} sum to inf; beta_k must be finite")
        try:
            vs = inner_directions(oracle, y, betas)
        except ValueError as exc:  # name the update that met it
            raise ValueError(f"{exc} at k={k}") from None
        e = -np.frexp(beta_k)[1]  # times 2^e the sum keeps its bits, and a subnormal product its precision
        shift = np.ldexp(betas[0], e) * vs[0]
        for b, v in zip(betas[1:], vs[1:]):
            shift = shift + np.ldexp(b, e) * v
        return _perturbation(k, y, beta_k, shift / np.ldexp(beta_k, e))

    return _drive(family, schedule, relax, y0, stop, pert=pert, objective=oracle,
                  monitored=monitored, record_stride=record_stride)


@dataclass
class AlternativesReport:
    """Which limb of the behavior dichotomy a finished run exhibits.

    ``outcome`` is ``alternative-1`` (the run ended at a declared
    minimizer), ``alternative-2`` (strict distance decrease toward every
    minimizer from ``k0`` on), or ``inconclusive`` (neither certified,
    with no ``violating_k`` for a run too short to judge; never an error).
    """

    outcome: str
    k0: int | None = None
    violating_k: int | None = None
    violating_witness: int | None = None
    final_gap: float | None = None

    def __str__(self):
        if self.outcome == "alternative-1":
            return f"ALTERNATIVE-1 (final iterate at a minimizer, gap {self.final_gap:.3e})"
        if self.outcome == "alternative-2":
            return f"ALTERNATIVE-2 (strict decrease from k0={self.k0})"
        if self.violating_k is None:
            return f"INCONCLUSIVE (fewer than {_MIN_TAIL} updates)"
        return f"INCONCLUSIVE (decrease broken at k={self.violating_k}, witness {self.violating_witness})"


def alternatives_diagnostic(trace, oracle):
    """Classify a finished superiorized run against the oracle's minimizers.

    First limb: the final iterate sits at some declared minimizer w, in
    both distance and objective value (at scales ``||w||`` and
    ``|phi(w)|``).  Second limb: there is a k0 such that for every
    recorded k >= k0 and every minimizer z, ``||y^{k+1} - z|| < ||y^k - z||``
    strictly; at least ``_MIN_TAIL`` such steps must back the claim.  Needs
    a stride-1 trace for the scan.
    """
    witnesses = oracle.witnesses()
    yK = trace.final_x
    for w in witnesses:
        phi_w = float(oracle.value(w))
        gap_d = float(norm(yK - w))
        gap_v = abs(float(oracle.value(yK)) - phi_w)
        if _within(gap_d, float(norm(w))) and _within(gap_v, abs(phi_w)):
            return AlternativesReport("alternative-1", final_gap=max(gap_d, gap_v))

    if trace.record_stride != 1:
        raise ValueError("full iterates unavailable (record_stride > 1); rerun with stride 1")
    K = trace.n_updates
    if K < _MIN_TAIL:
        return AlternativesReport("inconclusive")

    last_bad, bad_w = -1, None
    for idx, w in enumerate(witnesses):
        d = norm(trace.xs - w)
        broken = np.flatnonzero(~(d[1:] < d[:-1]))
        if broken.size:
            b = int(broken[-1])
            if b > last_bad:
                last_bad, bad_w = b, idx
    k0 = last_bad + 1
    if K - k0 >= _MIN_TAIL:
        return AlternativesReport("alternative-2", k0=k0)
    return AlternativesReport("inconclusive", violating_k=last_bad, violating_witness=bad_w)
