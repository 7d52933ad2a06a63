"""Earlier schemes as plans: each runs through ``run`` bitwise as its hand loop.

The paper's modular string averaging has "a variety of earlier algorithms
as special cases".  Each test below writes one of them as iteration
plans, cycles them for 50 updates, most at step size 1 (so x^{k+1} =
T(x^k)), and compares every iterate, byte for byte, with a short hand loop
that spells out the scheme's own arithmetic in the order the plan's tree
performs it.  One more scheme nests modules as no classical one does.

The last test does the same for any plan: a recursive evaluator written from
the step fields and each set's ``project`` alone is run against the tree
:func:`~strav.gmsa.output_operator` builds, on seeded random corpora.
"""

import itertools

import numpy as np

from strav.control import CyclicSchedule
from strav.dsa import gdsa_to_gmsa
from strav.fixtures import random_halfspace_family, random_plan_corpus
from strav.gmsa import IterationPlan, StepSpec, output_operator
from strav.numeric import _within, norm
from strav.solver import RelaxationSchedule, StopRule, run

UPDATES = 50
FAMILY = random_halfspace_family(4, 6, seed=3)  # halfspaces <a_i, x> <= 0 with unit normals
X0 = np.random.default_rng(4).standard_normal(4) * 3.0


def _project(x, i):
    # the projection onto halfspace i: x - (t / <a, a>) a where t = <a, x> - b > 0
    s = FAMILY.operator(i).set
    t = float(x @ s.a) - s.b
    return x - (t / float(s.a @ s.a)) * s.a if t > 0.0 else x


def _relax(x, i, alpha):
    # x + alpha (P_i(x) - x), as a kind-0 step's tree computes it
    return x + alpha * (_project(x, i) - x)


def _assert_runs_as(plans, scheme, relax=RelaxationSchedule.constant(1.0, 0.5, 0.5)):
    # the plans cycled; scheme is the hand update, called once per update in turn
    trace = run(FAMILY, CyclicSchedule(plans), relax, X0, StopRule(UPDATES, None, None), record_stride=1)
    xs = [X0]
    for _ in range(UPDATES):
        xs.append(scheme(xs[-1]))
    assert trace.n_updates == UPDATES
    assert trace.xs.tobytes() == np.array(xs).tobytes()


def test_kaczmarz_art():
    """Kaczmarz (1937); ART of Gordon, Bender and Herman (1970): one sweep of
    relaxed projections at alpha 1.5, input 0 first, as a composition of kind-0 steps."""
    steps = [StepSpec.relaxation(-i, 1.5) for i in range(6)]
    plan = IterationPlan(0, 7, 0.5, [*steps, StepSpec(2, range(1, 7), order=range(1, 7))])

    def sweep(x):
        for i in range(6):
            x = _relax(x, i, 1.5)
        return x

    _assert_runs_as([plan], sweep)


def test_cimmino():
    """Cimmino (1938): the weighted mean of all projections, one kind-1 step.  Its
    sum runs in the plan's sorted-J order, -5 to 0, so input 5 comes first."""
    w = [0.1, 0.15, 0.2, 0.25, 0.2, 0.1]
    plan = IterationPlan(0, 1, 0.1, [StepSpec(1, range(-5, 1), weights={-i: w[i] for i in range(6)})])

    def mean(x):
        out = w[5] * _project(x, 5)
        for i in range(4, -1, -1):
            out = out + w[i] * _project(x, i)
        return out

    _assert_runs_as([plan], mean)


def test_string_averaging_projections():
    """String-averaging projections of Censor, Elfving and Herman (2001), built by
    ``gdsa_to_gmsa``: each string's projections in its order, then the weighted sum
    of the string ends, the first string's term first."""
    strings, weights = [(0, 1, 2), (3, 4), (5, 0, 3)], [0.5, 0.3, 0.2]

    def average(x):
        out = None
        for string, w in zip(strings, weights):
            y = x
            for i in string:
                y = _project(y, i)
            out = w * y if out is None else out + w * y
        return out

    _assert_runs_as([gdsa_to_gmsa(strings, weights)], average)


def test_nested_strings_run_as_one_string():
    """A composition of two strings (steps 1 and 2) is the string of their
    inputs in order, 0 to 4, projected one after another with no sum."""
    plan = IterationPlan(0, 3, 1.0, [StepSpec(2, (0, -1, -2), order=(0, -1, -2)),
                                     StepSpec(2, (-3, -4), order=(-3, -4)),
                                     StepSpec(2, (1, 2), order=(1, 2))])

    def string(x):
        for i in range(5):
            x = _project(x, i)
        return x

    _assert_runs_as([plan], string)


def test_block_iterative_projections():
    """Block-iterative projections of Aharoni and Censor (1989): each update averages the
    projections onto one block of sets and relaxes the average by lambda_k = 1.5; the
    blocks, which may overlap, are cycled.  Each block is one kind-1 plan, the driver's
    step size is the relaxation, and a block's sum runs in sorted-J order, its largest
    input first."""
    blocks = [{2: 0.5, 1: 0.25, 0: 0.25}, {3: 0.6, 2: 0.4}, {5: 0.3, 4: 0.3, 0: 0.4}]
    plans = [IterationPlan(k, 1, min(w.values()), [StepSpec(1, [-i for i in w], weights={-i: v for i, v in w.items()})])
             for k, w in enumerate(blocks)]
    turn = itertools.cycle(blocks)

    def block_step(x):
        w = next(turn)
        terms = [v * _project(x, i) for i, v in w.items()]  # the dicts list each block's inputs downward
        return x + 1.5 * (sum(terms[1:], terms[0]) - x)

    # an average of projections carries sqne_rho 1, so lambda may range over [eps, 2 - eps]
    _assert_runs_as(plans, block_step, RelaxationSchedule.constant(1.5, 0.25, 1.0))


def test_composition_of_averages_of_strings_of_relaxations():
    """A nested scheme that none of the classical ones covers, though the paper's modular
    averaging admits it: six relaxed projections (steps 1-6), three strings of them (7-9,
    step 1 shared by strings 7 and 9), two averages of strings (10, 11, string 8 in both),
    and the composition of the two averages (12).  Every sum runs in the order the tree's
    does, so the iterates agree bit for bit."""
    alphas = [1.5, 0.5, 1.2, 1.5, 0.8, 1.5]
    strings = {7: (1, 2), 8: (4, 3), 9: (5, 6, 1)}  # module numbers; module m relaxes input m - 1
    steps = [StepSpec.relaxation(-i, a) for i, a in enumerate(alphas)]
    steps += [StepSpec(2, order, order=order) for order in strings.values()]
    steps += [StepSpec(1, (7, 8), weights={7: 0.6, 8: 0.4}), StepSpec(1, (8, 9), weights={8: 0.5, 9: 0.5}),
              StepSpec(2, (10, 11), order=(10, 11))]
    plan = IterationPlan(0, 12, 0.4, steps)

    def string(x, m):
        for module in strings[m]:
            x = _relax(x, module - 1, alphas[module - 1])
        return x

    def nested(x):
        x = 0.6 * string(x, 7) + 0.4 * string(x, 8)
        return 0.5 * string(x, 8) + 0.5 * string(x, 9)

    _assert_runs_as([plan], nested)


CORPUS_FAMILY = random_halfspace_family(4, 8, seed=5)  # random_plan_corpus draws inputs 0..7


def _evaluate(plan, m, x):
    """Module m of ``plan`` at x, one point or a (B, d) batch, by the formulas of the step kinds:
    a relaxation ``x + alpha (y - x)``, a combination summed in the stored order of ``J``,
    a composition in ``order``; a leaf is its set's ``project``."""
    if m <= 0:
        return CORPUS_FAMILY.operator(-m).set.project(x)
    s = plan.steps[m]
    if s.c == 0:
        return x + s.alpha * (_evaluate(plan, s.J[0], x) - x)
    if s.c == 1:
        terms = [w * _evaluate(plan, j, x) for j, w in zip(s.J, s.weights)]
        return sum(terms[1:], terms[0])
    for o in s.order:
        x = _evaluate(plan, o, x)
    return x


def test_reference_evaluator_matches_every_built_tree():
    """1,500 seeded plans, each at one point and at a batch of 8 rows."""
    rng = np.random.default_rng(6)
    bitwise = 0
    for seed in range(5):
        for plan in random_plan_corpus(300, seed=seed):
            tree = output_operator(plan, CORPUS_FAMILY)
            # a relaxation at alpha 1 hands its child's point y on, where the evaluator sums
            # x + (y - x): another order, equal to y only to rounding.  Everywhere else both
            # sum the same terms in the same order, so the bits must agree.
            exact = not any(s.c == 0 and s.alpha == 1.0 for s in plan.steps.values())
            for x in (rng.standard_normal(4) * 3.0, rng.standard_normal((8, 4)) * 3.0):
                got, want = tree.apply(x), _evaluate(plan, plan.N, x)
                assert got.shape == want.shape
                if exact:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.all(_within(norm(got - want), norm(x)))
            bitwise += exact
    assert bitwise > 1000  # 1,022 of the 1,500 plans are compared bit for bit
