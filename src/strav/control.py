"""Control schedules: which plan runs at iteration k, and coverage audits.

A schedule maps k to an :class:`~strav.gmsa.IterationPlan` and gives a
window bound M_n per input index n: every M_n consecutive iterations must
touch index n.  A cyclic schedule derives it from its period and the
power-of-two schedule as 2^{n+1}; only a :class:`CustomSchedule` declares
it.  ``verify_admissible`` checks that promise exhaustively over a finite
horizon; it refuses to guess bounds that were not given.
Each audited index n is one sample of a ``CheckReport``: with ``g_n`` the
longest run of consecutive k in 0..horizon whose plans all miss n, its
excess ``g_n - M_n + 1`` is judged at slack 0, and is positive exactly when
some full window (start i with ``i + M_n - 1 <= horizon``) misses n.
The audit reads each index's touches off one period of a built-in schedule:
plan i of a cycle of L runs at k = i (mod L), template n at 2^n - 1 (mod 2^{n+1}).
"""

from __future__ import annotations

import numpy as np

from .gmsa import IterationPlan, StepSpec, rho_uniform
from .numeric import _whole
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

_MAX_HORIZON = 10**7  # a per-k audit's codes, one intp per k, take 80 MB; verify_admissible says how long


def f_value(i):
    """Largest v with 2^v dividing i + 1.

    The sequence 0, 1, 0, 2, 0, 1, 0, 3, ... visits every n >= 0 exactly
    once in each block of 2^{n+1} consecutive indices, which is what makes
    the power-of-two schedule cover an infinite family with finite windows.
    """
    if type(i) is not int or i < 0:  # an int pays one test, not a call
        i = _whole(i, "index", lo=0)
    v = i + 1
    return (v & -v).bit_length() - 1


def _dyadic_window(n):
    """M_n = 2^{n+1}, and inf for n >= 64, far beyond any audit horizon: no n-bit integer is built."""
    return 2 ** (n + 1) if n < 64 else np.inf


class ControlSchedule:
    """Base schedule: ``plan_at``, ``window_bound`` and ``plan_metadata``.

    ``plan_at(k)`` returns the plan iteration k runs, for every k >= 0: a
    schedule never ends.  A schedule that stores its plans hands out those very
    objects, so one plan serves every iteration that runs it and its ``k`` is
    only the label it was built with.  Callers must not modify a plan; a run
    writes its one memo, ``_tree``, which changes no derived value.

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
        k = k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0)
        return self.plans[k % len(self.plans)]

    def _strides(self, horizon):
        return ((i, len(self.plans), p) for i, p in enumerate(self.plans[: horizon + 1]))

    def window_bound(self, n):
        n = _whole(n, "input index", lo=0)
        return len(self.plans) if any(n in t.output_indices() for t in self.plans) else None

    def plan_metadata(self):
        K = max(p.N for p in self.plans)
        M = max(max(p.steps[n].P for n in range(1, p.N + 1)) for p in self.plans)
        return (K, M)

    @classmethod
    def over_indices(cls, indices, eps=1.0, alpha=1.0):
        """One relaxation step per index, cycled in the given order."""
        templates = [
            IterationPlan(k=i, N=1, eps=eps, steps=[StepSpec.relaxation(-_whole(n, "input index", lo=0), alpha)])
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
        return _dyadic_window(_whole(n, "input index", lo=0))

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
        return self._rule(k if type(k) is int and k >= 0 else _whole(k, "iteration k", lo=0))

    def window_bound(self, n):
        return self._bound(n)

    def plan_metadata(self):
        return self._metadata


def uniform_modulus(schedule, eps):
    """``rho_uniform`` fed from the schedule's own (K, M) metadata."""
    meta = schedule.plan_metadata()
    if meta is None:
        raise ValueError("schedule declares no (K, M) metadata; pass rho explicitly")
    return rho_uniform(*meta, eps)


def _plan_codes(schedule, horizon):
    """``(distinct, codes, ks, steps)``: the output index sets of the plans of k = 0..horizon, coded in the
    order k first meets them; set ``codes[j]`` runs at ``ks[j]`` and every ``steps[j]`` k on (all the plans
    that hold an index share one step), or, with ``ks`` None, at k = j alone."""
    distinct = {}
    if type(schedule).plan_at in (CyclicSchedule.plan_at, PowerOfTwoSchedule.plan_at):  # by its progressions
        sites = (v for k, step, p in schedule._strides(horizon)
                 for v in (distinct.setdefault(p.output_indices(), len(distinct)), k, step))
        return (distinct, *np.fromiter(sites, dtype=np.intp).reshape(-1, 3).T)
    codes = (distinct.setdefault(schedule.plan_at(k).output_indices(), len(distinct)) for k in range(horizon + 1))
    return distinct, np.fromiter(codes, dtype=np.intp, count=horizon + 1), None, horizon + 1


def verify_admissible(schedule, horizon, indices):
    """Exhaustively audit every full window of every requested index.

    Returns a :class:`~strav.operators.CheckReport` named
    ``windows(horizon=H)``, one sample per index as the module docstring
    says; a failing report's ``worst`` is ``(n, i)``, the index that
    exceeds most and the first k of its longest miss run.  A horizon above
    ``_MAX_HORIZON`` is refused, and every bound is checked, before any
    plan is looked up.  A cyclic or power-of-two schedule's own ``plan_at`` is read once per
    plan of a period, whatever the horizon; any other at every k (about 10 s at the ceiling).
    """
    horizon = _whole(horizon, "horizon", lo=0)
    if horizon > _MAX_HORIZON:
        raise ValueError(f"horizon above the audit ceiling {_MAX_HORIZON:,}")
    ns = sorted({_whole(n, "input index", lo=0) for n in indices})
    bounds = [schedule.window_bound(n) for n in ns]
    for n, M in zip(ns, bounds):
        if M is None:
            raise ValueError(f"window bound for index {n} not declared; refusing to guess")
        if M == np.inf or _whole(M, f"window bound for index {n}", lo=1) > horizon + 1:
            raise ValueError(f"window {M} for index {n} does not fit horizon {horizon}")
    distinct, codes, ks, steps = _plan_codes(schedule, horizon)
    viol, starts = [], []  # per index: g_n - M_n + 1, start of its first longest miss run
    for n, M in zip(ns, bounds):
        hit = np.fromiter((n in s for s in distinct), dtype=bool, count=len(distinct))[codes]
        r, period = (np.flatnonzero(hit), steps) if ks is None else (ks[hit], steps[hit][:1])
        rep = r[:1] + period  # n's first touch, one period on: past the horizon when read per k
        # the touches up to rep, fenced: each later miss run repeats one of their gaps or cuts one short
        fence = np.concatenate(([-1], r, rep[rep <= horizon], [min([horizon, *rep]) + 1]))
        gaps = np.diff(fence) - 1
        i = int(np.argmax(gaps))
        viol.append(float(gaps[i] - M + 1))
        starts.append(fence[i] + 1)
    return _report(f"windows(horizon={horizon})", np.array(viol), 0.0, (np.array(ns), np.array(starts)))
