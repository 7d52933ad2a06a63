"""Control schedules: which plan runs at iteration k, and coverage audits.

A schedule maps k to an :class:`~strav.gmsa.IterationPlan` and gives a
window bound M_n per input index n: every M_n consecutive iterations must
touch index n.  A cyclic schedule derives it from its period and the
power-of-two schedule as 2^{n+1}; only a :class:`CustomSchedule` declares
it.  ``verify_admissible`` checks that promise exhaustively over a finite
horizon; it refuses to guess bounds that were not given.
Each audited index n is one sample of a ``CheckReport``: with ``g_n`` the
longest run of consecutive k in 0..horizon whose plans all miss n, its
excess ``g_n - M_n + 1`` is judged at scale 0, and is positive exactly when
some full window (start i with ``i + M_n - 1 <= horizon``) misses n.
The audit reads both built-in schedules by their progressions: plan i of a
cycle of L at k = i (mod L), template n at k = 2^n - 1 (mod 2^{n+1}).
"""

from __future__ import annotations

import numpy as np

from .gmsa import IterationPlan, StepSpec, rho_uniform
from .operators import _report

__all__ = [
    "f_value",
    "ControlSchedule",
    "CyclicSchedule",
    "PowerOfTwoSchedule",
    "CustomSchedule",
    "uniform_modulus",
    "verify_admissible",
]

_MAX_HORIZON = 10**7  # one intp code per k, 80 MB; verify_admissible says how long a lookup takes


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


def _dyadic_window(n):
    """M_n = 2^{n+1}, and inf for n >= 64, far beyond any audit horizon: no n-bit integer is built."""
    return 2 ** (int(n) + 1) if int(n) < 64 else np.inf


class ControlSchedule:
    """Base schedule: ``plan_at``, ``window_bound`` and ``plan_metadata``.

    ``plan_at(k)`` returns the plan iteration k runs, for every k >= 0: a
    schedule never ends.  A schedule that stores its plans hands out those
    very objects, so one plan serves every iteration that runs it and its
    ``k`` is only the label it was built with; callers must not modify a plan.

    Every subclass also gives ``window_bound(n)``, the window M_n for input
    index n or None when unknown, and ``plan_metadata()``, (K, M) = (max
    step count, max step width) over all plans or None.  Only a
    :class:`CyclicSchedule` keeps a finite plan list, as ``plans``.
    """

    plans = None

    def plan_at(self, k):
        raise NotImplementedError


class CyclicSchedule(ControlSchedule):
    """Template plans cycled: iteration k runs the stored ``plans[k mod len]``.

    A finite plan list runs only this way, so every index some plan uses is
    revisited forever: its window is the period, which is always sound, and
    any other index has none.  (K, M) is read off the plans.
    """

    def __init__(self, templates):
        self.plans = list(templates)
        if not self.plans:
            raise ValueError("cyclic schedule needs at least one template plan")

    def plan_at(self, k):
        return self.plans[int(k) % len(self.plans)]

    def _strides(self, horizon):
        return ((i, len(self.plans), p) for i, p in enumerate(self.plans[: horizon + 1]))

    def window_bound(self, n):
        return len(self.plans) if any(n in t.output_indices() for t in self.plans) else None

    def plan_metadata(self):
        K = max(p.N for p in self.plans)
        M = max(max(p.steps[n].P for n in range(1, p.N + 1)) for p in self.plans)
        return (K, M)

    @classmethod
    def over_indices(cls, indices, eps=1.0, alpha=1.0):
        """One relaxation step per index, cycled in the given order."""
        templates = [
            IterationPlan(k=i, N=1, eps=eps, steps=[StepSpec.relaxation(-int(n), alpha)])
            for i, n in enumerate(indices)
        ]
        return cls(templates)


class PowerOfTwoSchedule(ControlSchedule):
    """Iteration k relaxes the single input ``f_value(k)``; window M_n = 2^{n+1} (inf for n >= 64).

    One plan per value n of ``f_value`` is built on first use, labelled
    ``k = 2^n - 1`` (the first iteration with that value), and handed out
    for every k with ``f_value(k) == n``.  ``eps`` and ``alpha`` are judged
    by those plans' validation, before any update runs.
    """

    def __init__(self, eps=1.0, alpha=1.0):
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

    def _strides(self, horizon):
        return ((2**n - 1, 2 ** (n + 1), self.plan_at(2**n - 1)) for n in range((horizon + 1).bit_length()))

    def window_bound(self, n):
        return _dyadic_window(n)

    def plan_metadata(self):
        return (1, 1)


class CustomSchedule(ControlSchedule):
    """Arbitrary rule k -> plan; the caller declares the metadata and, as a
    callable n -> M_n or None, the window bounds (None: every index undeclared)."""

    def __init__(self, rule, window_bounds=None, metadata=None):
        self._rule = rule
        self._bound = window_bounds or (lambda n: None)
        self._metadata = metadata

    def plan_at(self, k):
        return self._rule(int(k))

    def window_bound(self, n):
        return self._bound(n)

    def plan_metadata(self):
        return self._metadata


def uniform_modulus(schedule, eps):
    """``rho_uniform`` fed from the schedule's own (K, M) metadata."""
    meta = schedule.plan_metadata()
    if meta is None:
        raise ValueError("schedule declares no (K, M) metadata; pass rho explicitly")
    K, M = meta
    return rho_uniform(K, M, eps)


def _plan_codes(schedule, horizon):
    """``(distinct, codes)``: the output index sets of the plans of k = 0..horizon, each
    mapped to its code in the order k first meets it, and the code of every k's set."""
    distinct = {}
    if type(schedule).plan_at in (CyclicSchedule.plan_at, PowerOfTwoSchedule.plan_at):
        codes = np.empty(horizon + 1, dtype=np.intp)
        for start, step, plan in schedule._strides(horizon):
            codes[start::step] = distinct.setdefault(plan.output_indices(), len(distinct))
        return distinct, codes
    return distinct, np.fromiter(
        (distinct.setdefault(schedule.plan_at(k).output_indices(), len(distinct)) for k in range(horizon + 1)),
        dtype=np.intp, count=horizon + 1)


def verify_admissible(schedule, horizon, indices):
    """Exhaustively audit every full window of every requested index.

    Returns a :class:`~strav.operators.CheckReport` named
    ``windows(horizon=H)``, one sample per index as the module docstring
    says; a failing report's ``worst`` is ``(n, i)``, the index that
    exceeds most and the first k of its longest miss run.  A horizon above
    ``_MAX_HORIZON`` is refused, and every bound is checked, before any
    plan is looked up.  A cyclic or power-of-two schedule's own ``plan_at`` is
    read a slice per plan (under 0.2 s at the ceiling on 2 cores), any other at
    every k (about 10 s); a plan met at several k derives its indices once.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    if horizon > _MAX_HORIZON:
        raise ValueError(f"horizon above the audit ceiling {_MAX_HORIZON:,}")
    ns = sorted(int(n) for n in indices)
    bounds = [schedule.window_bound(n) for n in ns]
    for n, M in zip(ns, bounds):
        if M is None:
            raise ValueError(f"window bound for index {n} not declared; refusing to guess")
        if not 1 <= M <= horizon + 1:
            raise ValueError(f"window {M} for index {n} does not fit horizon {horizon}")
    distinct, codes = _plan_codes(schedule, horizon)
    viol, starts = [], []  # per index: g_n - M_n + 1, start of its first longest miss run
    for n, M in zip(ns, bounds):
        hit = np.fromiter((n in s for s in distinct), dtype=bool, count=len(distinct))[codes]
        # the touches fenced by -1 and horizon + 1: the gaps between them are the miss runs
        fence = np.concatenate(([-1], np.flatnonzero(hit), [horizon + 1]))
        gaps = np.diff(fence) - 1
        i = int(np.argmax(gaps))
        viol.append(float(gaps[i] - int(M) + 1))
        starts.append(fence[i] + 1)
    return _report(f"windows(horizon={horizon})", np.array(viol), 0.0, (np.array(ns), np.array(starts)))
