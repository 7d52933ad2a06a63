"""Per-iteration blueprints for modular operator averaging.

An :class:`IterationPlan` lists ``N`` recursive build steps.  Step ``n``
consumes references ``J`` drawn from everything built before it: a
non-positive reference ``j`` means input operator ``U_{-j}``, a positive
one means the module produced by an earlier step.  The step kind ``c``
selects what is done with the references:

====  =========================  ==========================
c     parameters                 resulting module
====  =========================  ==========================
0     single input ref, alpha    relaxation of that input
1     weights on J               convex combination
2     order (onto J, length P)   composition, order[0] first
====  =========================  ==========================

The plan's output operator is the module of step ``N``.  Each step carries
a width ``P`` (1, |J|, or the composition length); the guaranteed modulus
of the output is ``eps / (2 * P_1 * ... * P_N)``, and a whole schedule of
plans is covered uniformly by ``eps / (2 * M^K)`` where ``K`` bounds the
step counts and ``M`` the widths.

These guarantees need the input operators behind the leaves to be strong
enough, which :func:`sqne_bound` and :func:`fne_bound` read off the leaves
of a given family: every input a step references must carry a constant of
at least 1/2, and every input a kind-0 step relaxes with alpha != 1 one of
at least 1 (a cutter on the one-point route, firmly nonexpansive on the
two-point route).  :func:`sqne_bound` reads each leaf's ``sqne_rho``,
:func:`fne_bound` its ``fne_rho``; a leaf whose constant is None (a black
box) meets neither condition.
"""

from __future__ import annotations

import math
import sys

from .numeric import _admits, _whole, _within
from .operators import Composition, ConvexComb, Relaxation

__all__ = [
    "StepSpec",
    "IterationPlan",
    "output_operator",
    "sqne_bound",
    "fne_bound",
    "rho_uniform",
]


class StepSpec:
    """One build step.  Immutable after construction.

    ``J`` is stored sorted; combination ``weights`` are given as a
    ``{reference: weight}`` mapping with one key per reference in ``J``,
    and stored aligned with the sorted ``J`` so two plans with equal
    content build identical trees.
    """

    __slots__ = ("c", "J", "alpha", "weights", "order")

    def __init__(self, c, J, alpha=None, weights=None, order=None):
        self.c = c if type(c) is int else _whole(c, "step kind c")
        self.J = tuple(sorted({j if type(j) is int else _whole(j, "reference") for j in J}))
        self.alpha = None if alpha is None else float(alpha)
        if weights is not None and not isinstance(weights, dict):
            raise TypeError(f"weights must map each reference to its weight, got {weights!r}")
        try:
            self.weights = None if weights is None else tuple(float(weights[j]) for j in self.J)
        except KeyError as exc:
            raise ValueError(f"invalid-plan: weight missing for reference {exc}") from exc
        for j in weights or ():
            if (j if type(j) is int else _whole(j, "weight reference")) not in self.J:
                raise ValueError(f"invalid-plan: weight for reference {j} outside J")
        self.order = None if order is None else tuple([j if type(j) is int else _whole(j, "order reference")
                                                       for j in order])

    @property
    def P(self):
        """Width of the step: 1, |J|, or the composition length."""
        if self.c == 0:
            return 1
        if self.c == 1:
            return len(self.J)
        return len(self.order) if self.order is not None else len(self.J)

    @classmethod
    def relaxation(cls, j, alpha):
        return cls(0, (j,), alpha=alpha)

    def __repr__(self):
        extras = {0: f"alpha={self.alpha}", 1: f"weights={self.weights}", 2: f"order={self.order}"}
        return f"<StepSpec c={self.c} J={self.J} {extras.get(self.c, '')}>"


class IterationPlan:
    """Blueprint for one iteration: N steps over inputs referenced lazily.

    Everything derived from the plan depends on its structure only (``N``,
    ``eps`` and the step contents), never on ``k``, and is computed once
    per plan: the validation issues, the output indices, the width product
    and :meth:`structure_key`.  A schedule hands out the plans it stores, so
    one plan serves every iteration that runs it.

    Parameters
    ----------
    k : int
        Label the plan was built with, such as the first iteration meant
        to run it (metadata only; the driver passes its own ``k``).
    N : int
        Number of build steps, >= 1, and the length of ``steps``.
    eps : float
        Plan-level floor in (0, 1]: combination weights and kind-0
        relaxations stay in [eps, 1] resp. [eps, 2 - eps].
    steps : sequence of StepSpec
        The steps in order, the n-th entry step n; stored as ``self.steps``,
        a dict keyed 1..N.
    """

    def __init__(self, k, N, eps, steps):
        self.k = k if type(k) is int else _whole(k, "plan label k")
        self.N = N if type(N) is int else _whole(N, "step count N")
        self.eps = float(eps)
        self.steps = dict(enumerate(steps, start=1))
        self._validation = None
        self._outputs = self._width = None  # made on first use: many plans are only validated
        self._key = None

    def structure_key(self):
        """Hashable identity of the plan without ``k``: plain data, which hashes in C.

        Plans with equal keys validate alike and share one tree over a family:
        :func:`output_operator` keeps each valid plan's tree there under its key.
        """
        if self._key is None:
            # a step that is not a StepSpec fails validation, so no tree is built for it
            steps = tuple([(s.c, s.J, s.alpha, s.weights, s.order) if isinstance(s, StepSpec) else (id(s),)
                           for s in self.steps.values()])
            self._key = (self.N, self.eps, steps)
        return self._key

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Structural validation: a tuple of ``(step, message)`` issues, empty
        when the plan is valid (step 0 is the plan as a whole).  Raises nothing."""
        if self._validation is None:
            self._validation = _validate(self)
        return self._validation

    def require_valid(self):
        issues = self.validate()
        if issues:
            raise ValueError("invalid-plan: " + "; ".join(f"step {n}: {m}" for n, m in issues))

    def output_indices(self):
        """Input indices reachable from step ``N``: a frozenset derived on the
        first call in one pass over the steps, each built from the earlier
        steps it references (validation keeps references below their step)."""
        if self._outputs is None:
            self.require_valid()
            sets = {}
            for n in range(1, self.N + 1):
                sets[n] = frozenset().union(*(sets[j] if j > 0 else (-j,) for j in self.steps[n].J))
            self._outputs = sets[self.N]
        return self._outputs

    def width_product(self):
        """Product of the step widths P_1 ... P_N, derived on the first call."""
        if self._width is None:
            self.require_valid()
            self._width = math.prod(self.steps[n].P for n in range(1, self.N + 1))
        return self._width


def _validate(plan):
    issues = []
    if plan.N < 1:
        issues.append((0, f"N must be >= 1, got {plan.N}"))
    if not 0.0 < plan.eps <= 1.0:
        issues.append((0, f"eps must lie in (0, 1], got {plan.eps}"))
    if len(plan.steps) != max(plan.N, 0):
        issues.append((0, f"need {plan.N} steps, got {len(plan.steps)}"))
        return tuple(issues)
    for n in range(1, plan.N + 1):
        s = plan.steps[n]
        if not isinstance(s, StepSpec):
            issues.append((n, "not a StepSpec"))
            continue
        if not s.J:
            issues.append((n, "empty reference set"))
            continue
        if max(s.J) > n - 1:
            issues.append((n, f"references {s.J} must stay below step {n}"))
        if s.c == 0:
            if len(s.J) != 1 or s.J[0] > 0:
                issues.append((n, "kind-0 steps take exactly one input reference (j <= 0)"))
            if s.alpha is None:
                issues.append((n, "kind-0 steps need alpha"))
            elif not _admits(s.alpha, plan.eps, 2.0 - plan.eps):
                issues.append((n, f"alpha {s.alpha} outside [eps, 2 - eps]"))
            if s.weights is not None or s.order is not None:
                issues.append((n, "kind-0 steps carry neither weights nor order"))
        elif s.c == 1:
            if s.weights is None:
                issues.append((n, "kind-1 steps need weights"))
            else:
                if not all(_admits(w, plan.eps, 1.0) for w in s.weights):
                    issues.append((n, f"weights {s.weights} outside [eps, 1]"))
                if not _within(abs(sum(s.weights) - 1.0)):
                    issues.append((n, f"weights sum to {sum(s.weights)}, need 1"))
            if s.alpha is not None or s.order is not None:
                issues.append((n, "kind-1 steps carry neither alpha nor order"))
        elif s.c == 2:
            if s.order is None:
                issues.append((n, "kind-2 steps need an application order"))
            else:
                if set(s.order) != set(s.J):
                    issues.append((n, f"order {s.order} must be onto the reference set {s.J}"))
                if len(s.order) < len(s.J):
                    issues.append((n, "order must be at least as long as the reference set"))
            if s.alpha is not None or s.weights is not None:
                issues.append((n, "kind-2 steps carry neither alpha nor weights"))
        else:
            issues.append((n, f"unknown step kind {s.c}"))
    return tuple(issues)


def output_operator(plan, family):
    """The plan's output operator: module ``N`` over the given family.

    The family keeps a valid plan's tree under its :meth:`~IterationPlan.structure_key`, so each
    structure's tree is built once, with a step referenced from several places as one shared node.
    """
    plan.require_valid()
    memo = family._trees.setdefault(plan.structure_key(), {})  # only a valid plan is keyed

    def build(m):
        if m <= 0:
            return family.operator(-m)
        node = memo.get(m)
        if node is None:
            s = plan.steps[m]
            if s.c == 0:
                node = Relaxation(build(s.J[0]), s.alpha)
            elif s.c == 1:
                node = ConvexComb([build(j) for j in s.J], s.weights)
            else:
                node = Composition([build(o) for o in s.order])
            memo[m] = node
        return node

    return build(plan.N)


def _plan_bound(plan, family, route, attr):
    # eps / (2 * prod P_i) (0.0 past the float range) once, over ``family``, every input a step
    # references carries ``attr`` >= 1/2 and every one a kind-0 step relaxes with alpha != 1, >= 1
    plan.require_valid()
    for n in range(1, plan.N + 1) if family is not None else ():
        s = plan.steps[n]
        relaxed = s.c == 0 and s.alpha != 1.0  # exactly: only alpha 1 passes its input's constant on
        need = 1.0 if relaxed else 0.5
        for j in s.J:
            # a positive reference is a module of this plan, judged through its own step
            rho = getattr(family.operator(-j), attr) if j <= 0 else math.inf
            if rho is None or rho < need:
                what = f"relaxes input {-j} by alpha {s.alpha}" if relaxed else f"references input {-j}"
                raise ValueError(
                    f"{route}-hypotheses-unmet: step {n} {what}, whose {attr} is {rho}, not at least {need}"
                )
    return plan.eps / (2.0 * min(plan.width_product(), sys.float_info.max))


def sqne_bound(plan, family=None):
    """Guaranteed one-point modulus ``eps / (2 * prod P_i)`` of the output.

    Over ``family``, raises ``sqne-hypotheses-unmet`` unless every input a
    step references has ``sqne_rho >= 1/2`` and every input a kind-0 step
    relaxes with alpha != 1 has ``sqne_rho >= 1`` (a cutter).  With no
    family, no leaf is judged.
    """
    return _plan_bound(plan, family, "sqne", "sqne_rho")


def fne_bound(plan, family=None):
    """Two-point modulus, same numeric value, under the two-point hypotheses.

    Over ``family``, raises ``fne-hypotheses-unmet`` unless every input a
    step references has ``fne_rho >= 1/2`` and every input a kind-0 step
    relaxes with alpha != 1 has ``fne_rho >= 1`` (firmly nonexpansive).
    """
    return _plan_bound(plan, family, "fne", "fne_rho")


def rho_uniform(K, M, eps):
    """Uniform modulus ``eps / (2 * M^K)``, 0.0 past the float range, for every plan with N <= K, P <= M."""
    K, M = _whole(K, "bound K", lo=1), _whole(M, "bound M", lo=1)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps / (2.0 * min(M**K, sys.float_info.max))
