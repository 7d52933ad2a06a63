"""Control schedules: which plan runs at iteration k, and coverage audits.

A schedule maps k to an :class:`~strav.gmsa.IterationPlan` and declares,
per input index n, a window bound M_n: every M_n consecutive iterations
must touch index n.  ``verify_admissible`` checks that promise exhaustively
over a finite horizon; it refuses to guess bounds that were not declared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmsa import IterationPlan, StepSpec, rho_uniform

__all__ = [
    "f_value",
    "ControlSchedule",
    "ExplicitSchedule",
    "CyclicSchedule",
    "PowerOfTwoSchedule",
    "CustomSchedule",
    "uniform_modulus",
    "AdmissibilityReport",
    "verify_admissible",
]


def f_value(i):
    """Largest v with 2^v dividing i + 1.

    The sequence 0, 1, 0, 2, 0, 1, 0, 3, ... visits every n >= 0 exactly
    once in each block of 2^{n+1} consecutive indices, which is what makes
    the power-of-two schedule cover an infinite family with finite windows.
    """
    i = int(i)
    if i < 0:
        raise ValueError(f"index must be a natural number, got {i}")
    v = i + 1
    return (v & -v).bit_length() - 1


def _normalize_bounds(bounds):
    if bounds is None:
        return lambda n: None
    if callable(bounds):
        return bounds
    table = {int(n): int(m) for n, m in dict(bounds).items()}
    return lambda n: table.get(int(n))


class ControlSchedule:
    """Base schedule; subclasses fill in ``plan_at``.

    ``plan_at(k)`` returns the plan iteration k runs.  A schedule that
    stores its plans hands out those very objects, so one plan serves every
    iteration that runs it and its ``k`` is only the label it was built
    with; callers must not modify a plan.

    ``window_bounds`` (a mapping n -> M_n or a callable) declares the
    windows; undeclared indices get ``None``.  A schedule backed by a
    finite list keeps it as ``plans`` and derives its (K, M) metadata from it.
    """

    plans = None

    def __init__(self, window_bounds=None):
        self._bound = _normalize_bounds(window_bounds)

    def plan_at(self, k):
        raise NotImplementedError

    def window_bound(self, n):
        """Declared window M_n for input index n, or None when unknown."""
        return self._bound(n)

    def plan_metadata(self):
        """(K, M) = (max step count, max step width) over all plans, or None."""
        if self.plans is None:
            return None
        K = max(p.N for p in self.plans)
        M = max(max(p.steps[n].P for n in range(1, p.N + 1)) for p in self.plans)
        return (K, M)


class ExplicitSchedule(ControlSchedule):
    """Finite list of plans; asking beyond the list is a horizon error."""

    def __init__(self, plans, window_bounds=None):
        self.plans = list(plans)
        if not self.plans:
            raise ValueError("explicit schedule needs at least one plan")
        super().__init__(window_bounds)

    def plan_at(self, k):
        k = int(k)
        if not 0 <= k < len(self.plans):
            raise ValueError(
                f"horizon-exceeded: plan {k} requested, schedule ends at {len(self.plans) - 1}"
            )
        return self.plans[k]


class CyclicSchedule(ControlSchedule):
    """Template plans cycled: iteration k runs the stored ``plans[k mod len]``.

    Without an explicit declaration the window bound for any index used
    somewhere in the cycle defaults to the period, which is always sound.
    """

    def __init__(self, templates, window_bounds=None):
        self.plans = list(templates)
        if not self.plans:
            raise ValueError("cyclic schedule needs at least one template plan")
        super().__init__(window_bounds)
        self._covered = None

    def plan_at(self, k):
        return self.plans[int(k) % len(self.plans)]

    def window_bound(self, n):
        declared = self._bound(n)
        if declared is not None:
            return declared
        if self._covered is None:
            self._covered = frozenset().union(*(t.output_indices() for t in self.plans))
        return len(self.plans) if n in self._covered else None

    @classmethod
    def over_indices(cls, indices, eps=1.0, alpha=1.0):
        """One relaxation step per index, cycled in the given order."""
        templates = [
            IterationPlan(k=i, N=1, eps=eps, steps=[StepSpec.relaxation(-int(n), alpha)])
            for i, n in enumerate(indices)
        ]
        return cls(templates)


class PowerOfTwoSchedule(ControlSchedule):
    """Iteration k relaxes the single input ``f_value(k)``; window M_n = 2^{n+1}.

    One plan per value n of ``f_value`` is built on first use, labelled
    ``k = 2^n - 1`` (the first iteration with that value), and handed out
    for every k with ``f_value(k) == n``.
    """

    def __init__(self, eps=1.0, alpha=1.0):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        super().__init__(lambda n: 2 ** (int(n) + 1))
        self.eps = float(eps)
        self.alpha = float(alpha)
        self._templates = {}

    def plan_at(self, k):
        n = f_value(k)
        plan = self._templates.get(n)
        if plan is None:
            plan = self._templates[n] = IterationPlan(
                k=2**n - 1, N=1, eps=self.eps, steps=[StepSpec.relaxation(-n, self.alpha)]
            )
        return plan

    def plan_metadata(self):
        return (1, 1)


class CustomSchedule(ControlSchedule):
    """Arbitrary rule k -> plan; the caller declares window bounds and metadata."""

    def __init__(self, rule, window_bounds=None, metadata=None):
        super().__init__(window_bounds)
        self._rule = rule
        self._metadata = metadata

    def plan_at(self, k):
        return self._rule(int(k))

    def plan_metadata(self):
        return self._metadata


def uniform_modulus(schedule, eps):
    """``rho_uniform`` fed from the schedule's own (K, M) metadata."""
    meta = schedule.plan_metadata()
    if meta is None:
        raise ValueError("schedule declares no (K, M) metadata; pass rho explicitly")
    K, M = meta
    return rho_uniform(K, M, eps)


@dataclass
class AdmissibilityReport:
    """Outcome of a finite-horizon window audit."""

    passed: bool
    horizon: int
    windows: dict  # {n: M_n actually used}
    violations: list  # [(n, window start i)], first per index

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None

    def __str__(self):
        if self.passed:
            return f"admissible up to horizon {self.horizon} (exhaustive)"
        n, i = self.first_violation
        return f"index {n} missed by the window starting at {i} (horizon {self.horizon})"


def _window_audit(hit_sets, indices, bound_of, horizon):
    # membership is tested once per distinct set; a plan a schedule hands
    # out again keeps its set, so coding the sets is one lookup per k
    distinct = {}
    codes = np.fromiter(
        (distinct.setdefault(s, len(distinct)) for s in hit_sets),
        dtype=np.intp, count=len(hit_sets),
    )
    windows, violations = {}, []
    for n in sorted(int(n) for n in indices):
        M = bound_of(n)
        if M is None:
            raise ValueError(f"window bound for index {n} not declared; refusing to guess")
        M = int(M)
        if M < 1 or M - 1 > horizon:
            raise ValueError(f"window {M} for index {n} does not fit horizon {horizon}")
        windows[n] = M
        hits = np.fromiter((n in s for s in distinct), dtype=np.int64, count=len(distinct))[codes]
        cum = np.concatenate(([0], np.cumsum(hits)))
        counts = cum[M:] - cum[: len(hit_sets) - M + 1]  # one entry per window start
        miss = np.flatnonzero(counts == 0)
        if miss.size:
            violations.append((n, int(miss[0])))
    return AdmissibilityReport(not violations, horizon, windows, violations)


def verify_admissible(schedule, horizon, indices):
    """Exhaustively audit every full window of every requested index.

    For each n in ``indices`` and each window start i with
    ``i + M_n - 1 <= horizon``, the union of the plans' output index sets
    over the window must contain n.  The plan of every k = 0..horizon is
    looked up; a plan the schedule hands out for several k is validated
    once.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    hit_sets = [schedule.plan_at(k).output_indices() for k in range(horizon + 1)]
    return _window_audit(hit_sets, indices, schedule.window_bound, horizon)

