"""String-averaging stages rewritten as plans, plus their infinite embedding.

A string is a finite index sequence whose operator composes its inputs, first index first, and a
stage averages strings with positive weights: ``gdsa_to_gmsa`` rewrites a stage as a plan, and
``msa_embed`` pads a finite family with identities under a power-of-two tail, so every index keeps
a window.
"""

from __future__ import annotations

from .control import CustomSchedule, CyclicSchedule, _dyadic_window, f_value
from .gmsa import IterationPlan, StepSpec
from .numeric import _plain, _whole
from .operators import Identity
from .sets import OperatorFamily

__all__ = [
    "gdsa_to_gmsa",
    "msa_embed",
]


def gdsa_to_gmsa(strings, weights, k=0):
    """Rewrite the stage averaging ``strings`` (index sequences, first applied first)
    with ``weights``, one per string, as an equivalent iteration plan.

    Steps 1..|strings| compose the strings; step |strings|+1, there even for one string, averages them
    with the weights, the least of which is the plan's floor.  Refused here is only what the plan would
    misread: no string, an index below 0 (a string of plain ints >= 0 takes one test), or a weight
    count other than the string count.  The plan's ``validate`` judges an empty string and the weights.
    """
    orders = [tuple([-i for i in s]) if _plain(s, (int,), 0) else tuple(-_whole(i, "string index", lo=0) for i in s)
              for s in map(tuple, strings)]
    weights = [float(w) for w in weights]
    if not orders:
        raise ValueError("a stage needs at least one string")
    if len(orders) != len(weights):
        raise ValueError("one weight per string required")
    steps = [StepSpec(2, order, order=order) for order in orders]
    refs = range(1, len(steps) + 1)
    steps.append(StepSpec(1, refs, weights=dict(zip(refs, weights))))
    return IterationPlan(k=k, N=len(steps), eps=min(*weights, 1.0), steps=steps)


def msa_embed(operators, witness, msa_plans):
    """Pad a finite-family schedule into an infinite-family one.

    The base plans run as a :class:`~strav.control.CyclicSchedule`, which
    gives each base index it touches the cycle length as its window and the
    (K, M) metadata; the padding only adds what the identity tail needs:
    a padded index n > m gets the window 2^{n+1} (inf for n >= 64).

    ``operators`` is the finite family U_0..U_m as sets or operator nodes (index 0 is conventionally
    the identity); indices beyond m become identities.  ``witness`` is the padded family's declared
    common point, and ``msa_plans`` the base plans, cycled over k, which may reference only indices
    0..m.  Returns ``(OperatorFamily, CustomSchedule)``.  At iterations whose power-of-two index
    f_value(k) exceeds m, the base plan gains one trailing composition step with the identity pad
    U_{f_value(k)}, which changes the touched index set but not a single output value.  The
    metadata is the base cycle's (K, M) widened by that step: (K + 1, max(M, 2)).
    """
    ops = list(operators)
    m_top = len(ops) - 1
    base = CyclicSchedule(msa_plans)
    for p in base.plans:
        used = p.output_indices()
        if any(i > m_top for i in used):
            raise ValueError(f"msa-index-error: base plan touches index {max(used)}, family ends at {m_top}")

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
        n = _whole(n, "input index", lo=0)
        return _dyadic_window(n) if n > m_top else base.window_bound(n)

    K, M = base.plan_metadata()
    schedule = CustomSchedule(rule, window_bounds=bound, metadata=(K + 1, max(M, 2)))
    return family, schedule
