"""String stages as averaged compositions, plus their plan embeddings.

A string is a finite index sequence; its operator composes the referenced
inputs, first index applied first.  A stage averages several strings with
positive weights.  ``gdsa_to_gmsa`` rewrites a stage as an equivalent
iteration plan (one composition step per string, one final combination
step), and ``msa_embed`` extends a finite-family schedule to an infinite
one by padding with identities under a power-of-two tail so the window
conditions hold over all indices.
"""

from __future__ import annotations

import numpy as np

from .control import CustomSchedule, CyclicSchedule, f_value
from .gmsa import IterationPlan, StepSpec
from .numeric import _within
from .operators import Identity
from .sets import OperatorFamily

__all__ = [
    "StringStage",
    "direct_eval",
    "gdsa_to_gmsa",
    "rho_gdsa",
    "msa_embed",
]


class StringStage:
    """Weighted set of strings used at one iteration.

    ``strings`` holds each string as a tuple of input indices, the first
    applied first.  Weights are positive and sum to 1; with an explicit
    ``eps`` in (0, 1] they must additionally stay >= eps, matching the
    plan-level floor the stage translates into.
    """

    def __init__(self, strings, weights, k=0, eps=None):
        self.strings = tuple(tuple(int(i) for i in s) for s in strings)
        if not all(self.strings):
            raise ValueError("strings must be nonempty")
        if any(i < 0 for s in self.strings for i in s):
            raise ValueError("string indices are input-operator indices, >= 0")
        self.weights = tuple(float(w) for w in weights)
        self.k = int(k)
        if not self.strings:
            raise ValueError("a stage needs at least one string")
        if len(self.strings) != len(self.weights):
            raise ValueError("one weight per string required")
        floor = float(eps) if eps is not None else 0.0
        if eps is not None and not 0.0 < floor <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {floor}")
        if any(w <= 0.0 or w > 1.0 or w < floor for w in self.weights):
            raise ValueError(f"weights {self.weights} outside ({floor}, 1]")
        if not _within(abs(sum(self.weights) - 1.0)):
            raise ValueError(f"weights sum to {sum(self.weights)}, need 1")
        self.eps = floor if eps is not None else min(self.weights)


def direct_eval(stage, family, x):
    """Evaluate the stage operator directly: sum_t w_t * (U_{t_q} ... U_{t_1})(x)."""
    x = np.asarray(x, dtype=float)
    out = None
    for w, s in zip(stage.weights, stage.strings):
        y = x
        for i in s:
            y = family.operator(i).apply(y)
        out = w * y if out is None else out + w * y
    return out


def gdsa_to_gmsa(stage):
    """Rewrite a string stage as an equivalent iteration plan.

    Steps 1..|strings| compose the strings (application order preserved);
    step |strings|+1 averages them with the stage weights.  The plan always
    has that final combination step, even for a single string.
    """
    steps = {}
    n_strings = len(stage.strings)
    for n, s in enumerate(stage.strings, start=1):
        order = tuple(-i for i in s)
        steps[n] = StepSpec(2, set(order), order=order)
    steps[n_strings + 1] = StepSpec(
        1, range(1, n_strings + 1), weights=dict(zip(range(1, n_strings + 1), stage.weights))
    )
    return IterationPlan(k=stage.k, N=n_strings + 1, eps=stage.eps, steps=steps)


def rho_gdsa(gammas, q):
    """Stage modulus ``min(q^{-1} * inf_n (2 - gamma_n) * gamma_n, 1)``.

    ``gammas`` are the projection relaxations actually materialized (or any
    certified sub-collection bounding the infimum from below) and ``q`` the
    longest string length.  The per-leaf term ``(2 - gamma) * gamma`` is at
    most the leaf's certified ``(2 - gamma)/gamma`` for gamma <= 1, with
    equality at gamma = 1.  Validate empirically via ``check_fne`` before
    relying on it at gamma > 1.
    """
    q = int(q)
    if q < 1:
        raise ValueError("string length bound must be positive")
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("need at least one relaxation value")
    return min(min((2.0 - g) * g for g in gammas) / q, 1.0)


def msa_embed(operators, witness, msa_plans, *, window_bounds=None):
    """Pad a finite-family schedule into an infinite-family one.

    The base plans run as a :class:`~strav.control.CyclicSchedule`, which
    owns the declared window bounds, the cycle-length default and the
    (K, M) metadata; the padding only adds what the identity tail needs.

    Parameters
    ----------
    operators : sequence
        The finite family U_0..U_m as sets or operator nodes (index 0 is
        conventionally the identity).  Indices beyond m become identities.
    witness : array_like
        Common point declared for the padded family.
    msa_plans : sequence of IterationPlan
        Base plans, cycled over k; they may reference only indices 0..m.
    window_bounds : mapping or callable, optional
        Window bounds for the base indices 0..m, declared as for
        :class:`~strav.control.CyclicSchedule`: a base index some cycled
        plan touches defaults to the cycle length, which is always sound.
        Padded indices n > m get 2^{n+1} automatically.

    Returns
    -------
    (OperatorFamily, CustomSchedule)
        At iterations whose power-of-two index f_value(k) exceeds m, the
        base plan gains one trailing composition step with the identity
        pad U_{f_value(k)}, which changes the touched index set but not a
        single output value.  The metadata is the base cycle's (K, M)
        widened by that step: (K + 1, max(M, 2)).
    """
    ops = list(operators)
    m_top = len(ops) - 1
    if m_top < 0:
        raise ValueError("msa-index-error: need at least one operator")
    plans = list(msa_plans)
    if not plans:
        raise ValueError("msa-index-error: need at least one base plan")
    base = CyclicSchedule(plans, window_bounds)
    for p in base.plans:
        used = p.output_indices()
        if any(i > m_top for i in used):
            raise ValueError(
                f"msa-index-error: base plan touches index {max(used)}, family ends at {m_top}"
            )

    def generator(n):
        if n <= m_top:
            return ops[n]
        return Identity()

    family = OperatorFamily(generator, witness)

    def rule(k):
        plan = base.plan_at(k)
        f = f_value(k)
        if f <= m_top:
            return plan
        steps = dict(plan.steps)
        steps[plan.N + 1] = StepSpec(2, (plan.N, -f), order=(plan.N, -f))
        return plan.replaced(N=plan.N + 1, steps=steps)

    def bound(n):
        n = int(n)
        return 2 ** (n + 1) if n > m_top else base.window_bound(n)

    K, M = base.plan_metadata()
    schedule = CustomSchedule(rule, window_bounds=bound, metadata=(K + 1, max(M, 2)))
    return family, schedule
