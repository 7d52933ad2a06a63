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

from .control import CustomSchedule, CyclicSchedule, _dyadic_window, f_value
from .gmsa import IterationPlan, StepSpec
from .numeric import _admits, _within
from .operators import Identity
from .sets import OperatorFamily

__all__ = [
    "StringStage",
    "gdsa_to_gmsa",
    "msa_embed",
]


class StringStage:
    """Weighted set of strings used at one iteration.

    ``strings`` holds each string as a tuple of input indices, the first
    applied first.  Weights lie in (0, 1] and sum to 1; the least of them
    is the floor ``eps`` of the plan the stage translates into.
    """

    def __init__(self, strings, weights, k=0):
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
        if not all(w > 0.0 and _admits(w, 0.0, 1.0) for w in self.weights):
            raise ValueError(f"weights {self.weights} outside (0, 1]")
        if not _within(abs(sum(self.weights) - 1.0)):
            raise ValueError(f"weights sum to {sum(self.weights)}, need 1")


def gdsa_to_gmsa(stage):
    """Rewrite a string stage as an equivalent iteration plan.

    Steps 1..|strings| compose the strings (application order preserved);
    step |strings|+1 averages them with the stage weights, the least of
    which is the plan's floor.  The plan always has that final combination
    step, even for a single string.
    """
    orders = [tuple(-i for i in s) for s in stage.strings]
    steps = [StepSpec(2, set(order), order=order) for order in orders]
    refs = range(1, len(steps) + 1)
    steps.append(StepSpec(1, refs, weights=dict(zip(refs, stage.weights))))
    return IterationPlan(k=stage.k, N=len(steps), eps=min(*stage.weights, 1.0), steps=steps)


def msa_embed(operators, witness, msa_plans):
    """Pad a finite-family schedule into an infinite-family one.

    The base plans run as a :class:`~strav.control.CyclicSchedule`, which
    gives each base index it touches the cycle length as its window and the
    (K, M) metadata; the padding only adds what the identity tail needs:
    a padded index n > m gets the window 2^{n+1} (inf for n >= 64).

    Parameters
    ----------
    operators : sequence
        The finite family U_0..U_m as sets or operator nodes (index 0 is
        conventionally the identity).  Indices beyond m become identities.
    witness : array_like
        Common point declared for the padded family.
    msa_plans : sequence of IterationPlan
        Base plans, cycled over k; they may reference only indices 0..m.

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
    base = CyclicSchedule(msa_plans)
    for p in base.plans:
        used = p.output_indices()
        if any(i > m_top for i in used):
            raise ValueError(
                f"msa-index-error: base plan touches index {max(used)}, family ends at {m_top}"
            )

    def generator(n):
        return ops[n] if n <= m_top else Identity()

    family = OperatorFamily(generator, witness)

    def rule(k):
        plan = base.plan_at(k)
        f = f_value(k)
        if f <= m_top:
            return plan
        pad = StepSpec(2, (plan.N, -f), order=(plan.N, -f))
        return IterationPlan(plan.k, plan.N + 1, plan.eps, [*plan.steps.values(), pad])

    def bound(n):
        n = int(n)
        return _dyadic_window(n) if n > m_top else base.window_bound(n)

    K, M = base.plan_metadata()
    schedule = CustomSchedule(rule, window_bounds=bound, metadata=(K + 1, max(M, 2)))
    return family, schedule
