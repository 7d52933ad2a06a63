"""Ready-made problem instances shared by the tests and the demos.

No library module imports this one.  :func:`axis_halfspace_family`, the
config's ``axis_halfspaces`` generator, is re-exported from :mod:`strav.config`.

The geometry here is chosen so that finite runs can certify the
asymptotic statements: in :func:`axis_halfspace_family` the thresholds
widen within each coordinate class, so once the iterate satisfies the
first (tightest) constraint of a class it satisfies every deeper one of
that class exactly.  A family whose deep constraints tighten instead can
never be certified to 1e-6 at a finite horizon under power-of-two
control, because indices above ~16 are not touched within 1e5 iterations.
"""

from __future__ import annotations

import numpy as np

from .config import axis_halfspace_family
from .gmsa import IterationPlan, StepSpec
from .numeric import _whole
from .operators import Primitive, Relaxation
from .sets import Box, Halfspace, OperatorFamily
from .superiorize import linear_objective

__all__ = [
    "axis_halfspace_family",
    "random_halfspace_family",
    "two_halfspace_family",
    "box_linear_fixture",
    "random_plan_corpus",
]


def random_halfspace_family(dim, count, seed, witness=None, gammas=None):
    """Finite family of halfspaces through the witness; a rule ``gammas`` relaxes set n by ``gammas(n)``:
    its input is ``Relaxation(Primitive(set), gammas(n))``, or the exact projection where that is 1."""
    rng = np.random.default_rng(seed)
    w = np.zeros(dim) if witness is None else np.asarray(witness, dtype=float)
    sets = []
    for n in range(_whole(count, "set count", lo=0)):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        h = Halfspace(a, float(a @ w))
        gamma = 1.0 if gammas is None else gammas(n)
        sets.append(h if gamma == 1.0 else Relaxation(Primitive(h), gamma))
    return OperatorFamily.from_sets(sets, w)


def two_halfspace_family():
    """``x_1 <= 0`` and ``x_2 <= 0`` in the plane, witness at the corner."""
    sets = [Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)]
    return OperatorFamily.from_sets(sets, np.zeros(2))


def box_linear_fixture():
    """Unit box feasibility plus phi(x) = x_1 + x_2, minimized at the origin vertex.

    Returns (family, oracle); the box corner (0, 0) is both feasible and
    the unique minimizer of phi over the box.
    """
    family = OperatorFamily.from_sets([Box([0.0, 0.0], [1.0, 1.0])], np.array([0.0, 0.0]))
    oracle = linear_objective([1.0, 1.0], argmin_witnesses=[np.array([0.0, 0.0])])
    return family, oracle


def _combination_weights(rng, size, eps):
    # each weight >= eps, total exactly 1; requires size * eps <= 1
    free = 1.0 - size * eps
    cuts = rng.dirichlet(np.ones(size))
    return tuple(eps + free * c for c in cuts)


def _random_plan(rng, k, n_inputs, eps, max_steps=3, max_width=4, c0_alpha_one=False):
    """One random valid plan over input indices 0..n_inputs-1.

    Kind-1 sizes respect the weight floor (|J| <= 1/eps); ``c0_alpha_one``
    pins every kind-0 relaxation at alpha = 1, which keeps the two-point
    hypotheses intact when leaves are relaxed beyond gamma = 1.
    """
    N = int(rng.integers(1, max_steps + 1))
    steps = []
    for n in range(1, N + 1):
        inputs = [-int(i) for i in rng.choice(n_inputs, size=min(n_inputs, max_width), replace=False)]
        earlier = list(range(1, n))
        pool = inputs + earlier
        c = int(rng.integers(0, 3))
        if c == 0:
            j = inputs[int(rng.integers(len(inputs)))]
            if c0_alpha_one or rng.random() < 0.4:
                alpha = 1.0
            else:
                alpha = float(rng.uniform(eps, 2.0 - eps))
            steps.append(StepSpec.relaxation(j, alpha))
        else:
            size = int(rng.integers(1, min(max_width, len(pool), int(1.0 / eps) if c == 1 else max_width) + 1))
            refs = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
            if c == 1:
                w = _combination_weights(rng, size, eps)
                steps.append(StepSpec(1, refs, weights=dict(zip(sorted(refs), w))))
            else:
                width = int(rng.integers(size, max_width + 1))
                extra = [refs[int(rng.integers(size))] for _ in range(width - size)]
                order = list(refs) + extra
                rng.shuffle(order)
                steps.append(StepSpec(2, refs, order=tuple(order)))
    return IterationPlan(k=k, N=N, eps=eps, steps=steps)


def random_plan_corpus(size, seed, n_inputs=8, eps_choices=(0.1, 0.5, 1.0), **kw):
    """A seeded list of random valid plans; eps cycles through the choices."""
    rng = np.random.default_rng(seed)
    plans = []
    for k in range(_whole(size, "corpus size", lo=0)):
        eps = float(rng.choice(eps_choices))
        plans.append(_random_plan(rng, k, n_inputs, eps, **kw))
    return plans
