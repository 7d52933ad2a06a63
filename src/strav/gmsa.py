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

These guarantees assume the input operators behind the leaves are strong
enough (modulus >= 1/2, and for kind-0 steps with alpha != 1 the referenced
input additionally a cutter on the one-point route or firmly nonexpansive
on the two-point route).  Those hypotheses live on the plan as
caller-asserted :class:`InputAssumptions` flags; they are deliberately not
inferred, because leaves may be black boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numeric import _SLACK, _within
from .operators import Composition, ConvexComb, Relaxation

__all__ = [
    "InputAssumptions",
    "StepSpec",
    "IterationPlan",
    "output_operator",
    "sqne_bound",
    "fne_bound",
    "rho_uniform",
]


@dataclass(frozen=True)
class InputAssumptions:
    """Caller-asserted properties of the input operators behind the leaves."""

    half_sqne: bool = True
    half_fne: bool = True
    cutters: bool = True
    firmly_nonexpansive: bool = True


class StepSpec:
    """One build step.  Immutable after construction.

    ``J`` is stored sorted; combination ``weights`` are given as a
    ``{reference: weight}`` mapping with one key per reference in ``J``,
    and stored aligned with the sorted ``J`` so two plans with equal
    content build identical trees.
    """

    __slots__ = ("c", "J", "alpha", "weights", "order")

    def __init__(self, c, J, alpha=None, weights=None, order=None):
        self.c = int(c)
        self.J = tuple(sorted({int(j) for j in J}))
        self.alpha = None if alpha is None else float(alpha)
        if weights is not None and not isinstance(weights, dict):
            raise TypeError(f"weights must map each reference to its weight, got {weights!r}")
        try:
            self.weights = None if weights is None else tuple(float(weights[j]) for j in self.J)
        except KeyError as exc:
            raise ValueError(f"invalid-plan: weight missing for reference {exc}") from exc
        for j in weights or ():
            if j not in self.J:
                raise ValueError(f"invalid-plan: weight for reference {j} outside J")
        self.order = None if order is None else tuple(int(o) for o in order)

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
    ``eps``, ``assume`` and the step contents), never on ``k``, and is
    computed once per plan: the validation issues, the index sets and
    :meth:`structure_key`.  A schedule hands out the plans it stores, so
    one plan serves every iteration that runs it.

    Parameters
    ----------
    k : int
        Label the plan was built with, such as the first iteration meant
        to run it (metadata only; the driver passes its own ``k``).
    N : int
        Number of build steps, >= 1.
    eps : float
        Plan-level floor in (0, 1]: combination weights and kind-0
        relaxations stay in [eps, 1] resp. [eps, 2 - eps].
    steps : dict or sequence
        ``{n: StepSpec}`` keyed 1..N, or a sequence in step order.
    assume : InputAssumptions
        Hypotheses on the input operators, asserted by the caller.
    """

    def __init__(self, k, N, eps, steps, assume=InputAssumptions()):
        self.k = int(k)
        self.N = int(N)
        self.eps = float(eps)
        if isinstance(steps, dict):
            self.steps = {int(n): s for n, s in steps.items()}
        else:
            self.steps = {n: s for n, s in enumerate(steps, start=1)}
        self.assume = assume
        self._validation = None
        self._index_sets = None  # made on first use: many plans are only validated
        self._key = None

    def replaced(self, **kw):
        """A new plan with some constructor fields swapped (steps are shared)."""
        args = dict(k=self.k, N=self.N, eps=self.eps, steps=self.steps, assume=self.assume)
        args.update(kw)
        return IterationPlan(**args)

    def structure_key(self):
        """Hashable identity of the plan without ``k``.

        Plans with equal keys validate alike and build equal trees over one
        family, so a driver may build one tree per key.
        """
        if self._key is None:
            steps = tuple((n, _step_key(s)) for n, s in sorted(self.steps.items()))
            self._key = (self.N, self.eps, self.assume, steps)
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

    # -- recursion ----------------------------------------------------------

    def index_set(self, n):
        """Input indices reachable from module n (``n <= 0``: the singleton ``{-n}``)."""
        n = int(n)
        if n <= 0:
            return frozenset({-n})
        self.require_valid()
        if n > self.N:
            raise ValueError(f"invalid-plan: no step {n} in a plan of {self.N} steps")
        if self._index_sets is None:
            self._index_sets = {}
        got = self._index_sets.get(n)
        if got is None:
            got = frozenset().union(*(self.index_set(j) for j in self.steps[n].J))
            self._index_sets[n] = got
        return got

    def output_indices(self):
        return self.index_set(self.N)

    def width_product(self):
        """Product of the step widths P_1 ... P_N."""
        self.require_valid()
        return math.prod(self.steps[n].P for n in range(1, self.N + 1))


def _step_key(s):
    if isinstance(s, StepSpec):
        return (s.c, s.J, s.alpha, s.weights, s.order)
    return (id(s),)  # not a StepSpec: the plan fails validation, so no tree is built for it


def _validate(plan):
    issues = []
    if plan.N < 1:
        issues.append((0, f"N must be >= 1, got {plan.N}"))
    if not 0.0 < plan.eps <= 1.0:
        issues.append((0, f"eps must lie in (0, 1], got {plan.eps}"))
    # the count first: a huge N is refused without building its key set
    if len(plan.steps) != max(plan.N, 0) or set(plan.steps) != set(range(1, plan.N + 1)):
        issues.append((0, f"steps must be keyed 1..{plan.N}, got {sorted(plan.steps)}"))
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
            elif not plan.eps - _SLACK <= s.alpha <= 2.0 - plan.eps + _SLACK:
                issues.append((n, f"alpha {s.alpha} outside [eps, 2 - eps]"))
            if s.weights is not None or s.order is not None:
                issues.append((n, "kind-0 steps carry neither weights nor order"))
        elif s.c == 1:
            if s.weights is None:
                issues.append((n, "kind-1 steps need weights"))
            else:
                if any(w < plan.eps - _SLACK or w > 1.0 + _SLACK for w in s.weights):
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

    Sub-modules are memoized per call, so a step referenced from several
    places is built exactly once and shared inside the tree.
    """
    plan.require_valid()
    memo = {}

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


def _plan_bound(plan, route, half, relaxed):
    # eps / (2 * prod P_i) once the plan asserts the flag ``half`` (inputs at
    # modulus >= 1/2) and, for a kind-0 step with alpha != 1, ``relaxed``
    plan.require_valid()
    if not getattr(plan.assume, half):
        raise ValueError(f"{route}-hypotheses-unmet: inputs not asserted {half}")
    for n in range(1, plan.N + 1):
        s = plan.steps[n]
        if s.c == 0 and abs(s.alpha - 1.0) > _SLACK and not getattr(plan.assume, relaxed):
            raise ValueError(
                f"{route}-hypotheses-unmet: step {n} relaxes with alpha={s.alpha} "
                f"but inputs are not asserted {relaxed}"
            )
    return plan.eps / (2.0 * plan.width_product())


def sqne_bound(plan):
    """Guaranteed one-point modulus ``eps / (2 * prod P_i)`` of the output.

    Raises ``sqne-hypotheses-unmet`` unless the plan asserts inputs at
    one-point modulus >= 1/2 and every kind-0 step uses alpha = 1 or
    relaxes a cutter.
    """
    return _plan_bound(plan, "sqne", "half_sqne", "cutters")


def fne_bound(plan):
    """Two-point modulus, same numeric value, under the two-point hypotheses.

    Raises ``fne-hypotheses-unmet`` unless the plan asserts inputs at
    two-point modulus >= 1/2 and every kind-0 step uses alpha = 1 or a
    firmly nonexpansive input.
    """
    return _plan_bound(plan, "fne", "half_fne", "firmly_nonexpansive")


def rho_uniform(K, M, eps):
    """Uniform modulus ``eps / (2 * M^K)`` covering every plan with N <= K, P <= M."""
    K, M = int(K), int(M)
    if K < 1 or M < 1:
        raise ValueError(f"bounds K, M must be positive, got K={K}, M={M}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps / (2.0 * M**K)
