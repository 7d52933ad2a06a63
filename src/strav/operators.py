"""Operator trees with a confidence calculus for contraction-type moduli.

A node is one of five kinds: the metric projection onto a convex set (``Primitive``), the identity,
a relaxation of a child (a relaxed projection too: :meth:`Relaxation.apply` is the one relaxation
rule), a convex combination of children, or a composition applied left to right.  Nodes are
immutable; the quantitative constants below are derived once at construction and never recomputed.
So is a pass-through node's ``apply``, with no frame of its own: a projection applies its set's
``project``, a relaxation at alpha 1 its child's ``apply`` (at alpha 0 the identity's); a point it
fixes comes back as the very array passed in, as does one a relaxation's child hands back.  A node's
``set`` is its fixed-point set, if any: a projection's, passed up by a relaxation at alpha > 0.
:func:`_each` (one point) and :func:`_sweep` (a batch) are the one formula of a halfspace or
hyperplane projection.  A node's ``_rows`` are the rows it applies, none by default: a projection's
set's where :mod:`strav.sets` offers them, its child's at alpha 1, and its children's, in order, for
a :class:`Composition` whose children all have rows (nested strings too) and whose ``apply`` is its
class's own: it runs them in one loop, :func:`_through` or :func:`_sweep`, in the float operations
of child by child, so the same bits.  As a halfspace's ``project`` does, such a composition hands a
float64 ndarray of its shape (d,) to :func:`_through` after one type test, and anything else to
``np.asarray`` first, which hands such an array back as itself: the same object either way.

A long string reads ahead at one point: after a row whose set holds x, it takes the dots of the next
``4096 // d`` rows at most in one ``np.matmul(normals[:, None, :], x)`` and goes on at the first row
that moves x.  A stacked (1, d) @ (d,) product runs numpy's dot on each row, so it is ``x.dot(a)``
bit for bit, but for the sign of an exactly-zero dot, which moves no row on either path (t is then
-b, or a zero that hands x on).  A read costs about five dots, so only a string of more than 8 rows,
at ``4096 // d >= 8``, is long, and it stacks its rows at its first read; any other keeps a plain
tuple of rows and stacks none.

A convex combination of long strings sweeps a batch (``x.ndim > 1``) through all of them at once
while the block (strings x points x d) holds at most ``8 * 4096`` floats, stacked longest first at
its first such batch, so step j runs on the strings longer than j; one point, a short string or a
larger block goes child by child.  A step keeps :func:`_sweep`'s bits: one ``np.matmul``, a gemv
per string over its whole batch as ``x @ a`` makes, ``np.maximum`` at a floor of 0 or -inf (a
hyperplane's t, kept) and ``np.einsum`` into a zeroed block.  Against child by child, 4 strings of
15 rows took 0.68-0.74 times as long at 200 points in R^20, 0.88-0.95 at 24,000-32,000 floats, 1.14
at 64,000, and 1.38 and 1.88 at d = 100 and 500; two one-row strings, 1.2 times.  A batch row is not
the one-point bits: ``x @ a`` is one gemv whose row sums depend on the row's place in the batch
(numpy 2.4.6: chunks of 2, 3 or 5 of 203 rows differ from the whole at d = 20 to 2,000, chunks of
4 or 8 agree; row by row ``x.dot(a)`` differs at every d tried), so ``T.apply(xs)[i]`` is
``T.apply(xs[i])`` only to rounding, and no path splits a string's batch.

Constants attached to a node
----------------------------
``sqne_rho``
    The node T satisfies ``||T(x)-z||^2 <= ||x-z||^2 - rho*||T(x)-x||^2``
    for every fixed point z of T, with ``rho = sqne_rho``.  ``None`` means
    the calculus gives no guarantee.
``fne_rho``
    The node satisfies the two-point strengthening
    ``||T(x)-T(y)||^2 <= ||x-y||^2 - rho*||(x-T(x))-(y-T(y))||^2``.
    At ``rho >= 0`` this implies nonexpansiveness, ``||T(x)-T(y)|| <=
    ||x-y||``, and the calculus never derives a negative ``rho``.

The identity carries ``+inf`` for both constants (it satisfies the
inequalities for every rho) and is skipped when counting composition or
combination factors, so padding a tree with identities never degrades a
derived modulus.

Derivation rules
----------------
* ``alpha``-relaxation of a child with constant ``rho``: ``(1+rho-alpha)/alpha``
  for ``alpha`` in (0, 1+rho], no guarantee beyond;
* projection: 1 on both routes, so ``Relaxation(Primitive(set), gamma)`` carries
  ``(2-gamma)/gamma``, at least 1/2 on a config's gamma range (0, 4/3];
* convex combination or composition of m non-identity children: the minimum
  over them, divided by m for a composition only.

Where both the direct rule and the two-point route apply, ``sqne_rho``
takes the larger certified value, so ``fne_rho`` set implies ``sqne_rho``
set with ``sqne_rho >= fne_rho``.

The sampling checkers at the bottom probe these inequalities on seeded points.  Checks at one budget
and center share one memoised draw, and checks of one node there one memoised probe: the one-point
check judges its points, the two-point checks the pairs ``(x_i, x_{(i+1) mod count})``.  With
``h = x - y`` (``y = z`` for one point), ``g = T(x) - T(y)`` and ``r = h - g``, each check's excess
is ``<r, rho r - g - h>``, a factored form that cancels no two rounded squares; the nonexpansive check
is the two-point one at rho 0.  Every inequality audit, these and :func:`strav.solver.check_fejer`,
passes a sample whose excess is at most a slack sized from its own terms, with no absolute floor:
the same verdict at every scale.  Here it is ``1e-12 <h, h> + 1e-15 m (||h|| + ||g||)``, ``m`` the
anchor's largest |coordinate| plus the radius: the rounding of the squares, and of ``T(x)`` computed
at magnitude ``m``; ``||g||`` counts too, as a sample may round onto ``z`` while ``T(z)`` still
differs from ``z``.  It is formed only past a largest excess above 0, ``1e-15 m`` first: finite
wherever ``1e-15 m (||h|| + ||g||)`` is, as at any anchor of finite norm while ``||g||`` stays near
``||h|| <= 4 radius``.  A slack that overflows fails its sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .numeric import _admits, _finite_norm, _whole, _within, as_vector, norm

__all__ = [
    "OperatorNode",
    "Primitive",
    "Identity",
    "Relaxation",
    "ConvexComb",
    "Composition",
    "SampleBudget",
    "CheckReport",
    "check_sqne",
    "check_fne",
    "check_nonexpansive",
]


def _each(x, rows):
    # x (d,) through the rows (a, b, a @ a, one-sided) in order, handed on where a set holds it
    for a, b, asq, one_sided in rows:
        t = float(x.dot(a)) - b  # x.dot(a) is x @ a with less dispatch
        if not (t == 0.0 or t < 0.0 and one_sided):  # a NaN t steps, to NaN
            x = x - (t / asq) * a
    return x


def _through(x, rows):
    # a composition's rows at one point: a long string reads ahead (see the module docstring)
    return rows.through(x) if type(rows) is _String else _each(x, rows)


_AHEAD = 8  # the fewest rows a read-ahead takes (see the module docstring)
_F8 = np.dtype(float)  # a float64 array's dtype; an equal dtype of another identity takes np.asarray
_STACKED = 8 * 4096  # the most floats a convex combination's stacked strings hold (see the module docstring)


class _String(tuple):
    """A composition's rows, more than ``_AHEAD`` at ``4096 // d >= _AHEAD``: a string that reads
    ahead, its normals (n, 1, d) and offsets stacked at its first read."""

    _stack = None

    def through(self, x):
        i, n = 0, len(self)
        while i < n:
            a, b, asq, one_sided = self[i]
            i += 1
            t = float(x.dot(a)) - b
            if not (t == 0.0 or t < 0.0 and one_sided):
                x = x - (t / asq) * a
            elif n - i >= _AHEAD:
                i = self.ahead(x, i)
        return x

    def ahead(self, x, i):
        # the first of rows i, ..., i + 4096 // d - 1 that moves x, or the row past them: by the signs
        # of dot - b, a set holds x where dot <= b (one-sided) or dot == b (a NaN dot moves x)
        if self._stack is None:  # the hyperplanes' offsets bound dot from below, as -inf a halfspace's
            a, b, _, one_sided = zip(*self)
            lo = None if all(one_sided) else np.where(one_sided, -math.inf, b)[:, None]
            self._stack = np.array(a)[:, None, :], np.array(b)[:, None], lo
        normals, hi, lo = self._stack
        j = min(i + 4096 // x.size, len(self))
        dots = np.matmul(normals[i:j], x)  # (j - i, 1): x.dot(a) row by row, see the module docstring
        hold = dots <= hi[i:j]
        if lo is not None:
            hold &= dots >= lo[i:j]
        k = int(hold.argmin())
        return j if hold[k, 0] else i + k


def _sweep(x, rows):
    # a batch x (..., d) through the rows in order, each step as strav.sets states it, x - step over it
    for a, b, asq, one_sided in rows:
        t = x @ a - b
        step = np.einsum("...,j->...j", (np.maximum(t, 0.0) if one_sided else t) / asq, a)
        x = np.subtract(x, step, out=step)
    return x


def _gap(tx, x):
    with np.errstate(over="ignore", invalid="ignore"):
        return norm(tx - x)


def _residual_at(node, z):
    # the residual at a finite z (as_vector's): 0.0, with no arithmetic, where node hands z back
    tz = node.apply(z)
    return 0.0 if tz is z else float(_gap(tz, z))


def _relaxed_constant(rho, alpha):
    # alpha-relaxation of a child carrying constant rho; alpha = 0 is the
    # identity, and the rule is only valid up to alpha = 1 + rho.
    if alpha == 0.0:
        return math.inf
    if rho is None or alpha > 1.0 + rho:
        return None
    return (1.0 + rho - alpha) / alpha


def _best(*values):
    return max((v for v in values if v is not None), default=None)


def _combined_constants(children, composed):
    # (sqne, fne): per route the least constant of the m non-identity children (None once one has
    # none, +inf when there are none), over m for a composition; sqne takes the better route
    active = [c for c in children if not isinstance(c, Identity)]
    m = max(len(active), 1) if composed else 1
    sqne, fne = (None if None in v else min(v, default=math.inf) / m
                 for v in ([c.sqne_rho for c in active], [c.fne_rho for c in active]))
    return _best(sqne, fne), fne


class OperatorNode:
    """Abstract immutable operator; concrete kinds derive the constants."""

    sqne_rho = None
    fne_rho = None
    dim = None
    set = None  # the node's fixed-point set, where it has one (see the module docstring)
    children_ = ()
    _rows = ()  # (a, b, a @ a, one-sided) of each projection apply runs, in order; see _through
    _shape = None  # (dim,) where a composition runs its rows at one point

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def residual(self, x):
        """Norm of ``T(x) - x`` along the last axis: inf or NaN, unwarned, where it overflows."""
        x = np.asarray(x, dtype=float)
        return _gap(self.apply(x), x)

    def children(self):
        return self.children_

    def __repr__(self):
        return f"<{type(self).__name__} sqne={self.sqne_rho} fne={self.fne_rho}>"


class Primitive(OperatorNode):
    """Metric projection onto the convex set ``set_``: its ``apply`` is the set's ``project``, and it
    carries 1 on both routes.  A relaxed projection is ``Relaxation(Primitive(set_), gamma)``."""

    def __init__(self, set_):
        self.set = set_
        self.dim = set_.dim
        self.sqne_rho = self.fne_rho = 1.0
        self.apply = set_.project
        self._rows = getattr(set_, "_rows", ())


class Identity(OperatorNode):
    """The identity; fixed by everything, inert in every derivation."""

    sqne_rho = math.inf
    fne_rho = math.inf

    def apply(self, x):
        return np.asarray(x, dtype=float)


class Relaxation(OperatorNode):
    """``x + alpha*(child(x) - x)`` for ``alpha`` in [0, 2]: the one relaxation formula.

    Fixed points of the child, and so its ``set``, are preserved for every alpha > 0; alpha = 2 is
    the reflection.  A point the child hands back comes back as itself.
    """

    def __init__(self, child, alpha):
        alpha = float(alpha)
        if not _admits(alpha, 0.0, 2.0):
            raise ValueError(f"relaxation parameter must lie in [0, 2], got {alpha}")
        self.child = child
        self.children_ = (child,)
        self.alpha = alpha
        self.dim = child.dim
        direct = _relaxed_constant(child.sqne_rho, alpha)
        two_point = _relaxed_constant(child.fne_rho, alpha)
        self.fne_rho = two_point
        self.sqne_rho = _best(direct, two_point)
        if alpha in (0.0, 1.0):  # the identity, or the child itself
            self.apply = child.apply if alpha else Identity().apply
        self.set = child.set if alpha else None
        self._rows = child._rows if alpha == 1.0 else ()

    def apply(self, x):
        x = np.asarray(x, dtype=float)  # so a list's point the child fixes comes back as its array's bits
        p = self.child.apply(x)
        return p if p is x else x + self.alpha * (p - x)  # p is x: the child fixes x


def _common_dim(children):
    dims = {c.dim for c in children if c.dim is not None}
    if len(dims) > 1:
        raise ValueError(f"dim-mismatch: children of dimensions {sorted(dims)}")
    return dims.pop() if dims else None


class ConvexComb(OperatorNode):
    """Weighted average ``sum_j w_j * child_j(x)`` with positive weights summing to 1."""

    def __init__(self, children, weights):
        children = tuple(children)
        weights = tuple(float(w) for w in weights)
        if not children:
            raise ValueError("convex combination needs at least one child")
        if len(children) != len(weights):
            raise ValueError("one weight per child required")
        if not all(w > 0.0 and _admits(w, 0.0, 1.0) for w in weights):
            raise ValueError("weights must lie in (0, 1]")
        if not _within(abs(sum(weights) - 1.0)):
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        self.children_ = children
        self.weights = weights
        self.dim = _common_dim(children)
        self.sqne_rho, self.fne_rho = _combined_constants(children, composed=False)
        self._strings, self._stack = all(type(c._rows) is _String for c in children), None  # see the docstring

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 and self._strings and x.shape[-1] == self.dim and x.size * len(self.weights) <= _STACKED:
            return self._stacked(x)
        out = self.weights[0] * self.children_[0].apply(x)
        for w, child in zip(self.weights[1:], self.children_[1:]):
            out += w * child.apply(x)
        return out

    def _stacked(self, x):  # see the module docstring
        if self._stack is None:  # pad rows (a @ a = 0, so they count as no string) are never read
            order = sorted(range(len(self.weights)), key=lambda i: -len(self.children_[i]._rows))  # stable
            steps = list(zip_longest(*(self.children_[i]._rows for i in order), fillvalue=(np.zeros(self.dim), 0, 0, 1)))
            a, b, asq, one_sided = zip(*(r for step in steps for r in step))  # floor 0 clamps t, -inf keeps it
            consts = np.array((b, asq, np.where(one_sided, 0.0, -math.inf))).reshape(3, len(steps), -1)
            self._stack = (np.array(a).reshape(len(steps), len(order), -1), consts.transpose(1, 0, 2),
                           np.count_nonzero(consts[1], axis=1), [order.index(i) for i in range(len(order))])
        normals, consts, counts, place = self._stack
        lead, shape = (1,) * (x.ndim - 1), (len(place),) + x.shape
        xs, (ys, step) = np.broadcast_to(x, shape), np.empty((2,) + shape)  # x only read; 2 blocks for all steps
        for a, c, k in zip(normals, consts, counts):
            b, asq, floor = c[:, :k].reshape(3, k, *lead, 1)
            t = np.matmul(xs[:k], a[:k].reshape(k, *lead[1:], -1, 1)) - b
            np.einsum("i...,id->i...d", (np.maximum(t, floor) / asq)[..., 0], a[:k], out=step[:k])
            np.subtract(xs[:k], step[:k], out=ys[:k])
            xs = ys
        out = self.weights[0] * ys[place[0]]  # the images summed in child order, as apply sums them
        for w, i in zip(self.weights[1:], place[1:]):
            out += w * ys[i]
        return out


class Composition(OperatorNode):
    """Composition of children applied left to right (first listed, first applied)."""

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ValueError("composition needs at least one child")
        self.children_ = children
        self.dim = _common_dim(children)
        self.sqne_rho, self.fne_rho = _combined_constants(children, composed=True)
        if type(self).apply is Composition.apply and all(c._rows for c in children):
            rows = tuple(r for c in children for r in c._rows)
            self._rows = _String(rows) if len(rows) > _AHEAD and 4096 // self.dim >= _AHEAD else rows
            self._shape = (self.dim,)

    def apply(self, x):
        if type(x) is np.ndarray and x.shape == self._shape and x.dtype is _F8:  # one point: see the docstring
            return _through(x, self._rows)
        out = np.asarray(x, dtype=float)
        if self._rows and out.ndim and out.shape[-1] == self.dim:  # see the module docstring
            return (_through if out.ndim == 1 else _sweep)(out, self._rows)
        for child in self.children_:
            out = child.apply(out)
        return out


# ---------------------------------------------------------------------------
# sampling checkers


@dataclass(frozen=True)
class SampleBudget:
    """How much random probing a checker may spend.

    ``radius`` bounds the sampling ball around the anchor point (the
    declared fixed point for the one-point check, a caller-supplied center
    otherwise); at most 1e150, so the judged squares stay finite.
    """

    count: int = 500
    seed: int = 0
    radius: float = 2.0

    def __post_init__(self):
        _whole(self.count, "sample count", lo=1)
        if not 0.0 < self.radius <= 1e150:
            raise ValueError(f"sampling radius must be finite and positive, at most 1e150, got {self.radius!r}")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality audit: sampled points or the steps of a trace."""

    name: str
    passed: bool
    max_violation: float
    samples: int
    worst: tuple | None = None

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name}: {verdict} (max violation {self.max_violation:.3e}, {self.samples} samples)"


@lru_cache(maxsize=1)
def _draw(budget, center):
    # budget.count seeded points in the radius's ball around center (float64 bytes), read-only (count, d)
    center, rng = np.frombuffer(center), np.random.default_rng(budget.seed)
    g = rng.standard_normal((budget.count, center.shape[0]))
    lengths = norm(g)
    lengths[lengths == 0.0] = 1.0
    radii = budget.radius * rng.random(budget.count) ** (1.0 / center.shape[0])
    g /= lengths[:, None]  # center + (g / lengths) * radii, in place on the fresh draw
    g *= radii[:, None]
    xs = np.add(g, center, out=g)
    xs.flags.writeable = False
    return xs


@lru_cache(maxsize=1)
def _probe(node, budget, center):
    """:func:`_draw`'s points around ``center`` (float64 bytes), which every node's probe there
    shares, their read-only images under ``node``, and a list that :func:`_pairs` fills once.

    The draw is pure, so a memo hit returns bitwise what a fresh call would.  The memo keys the node
    by identity and keeps it alive, with one probe until the next: 40 KB at 500 points in R^5 (100 KB
    once paired) and 6.4 MB at 200 points in R^2000 (16 MB once paired), the draw included."""
    xs = _draw(budget, center)
    tx = node.apply(xs)
    tx.flags.writeable = False
    return xs, tx, []  # _pairs fills the list on the first two-point check


def _dot(a, b):
    # row-wise inner products of two (count, d) arrays
    return np.einsum("ij,ij->i", a, b)


def _pairs(node, budget, center):
    # the probe's x, their successors y (wrapping around), x - y, T(x) - T(y): made once, read-only
    if budget.count < 2:
        raise ValueError("a pair check needs a sample count of at least 2")
    xs, tx, pairs = _probe(node, budget, center.tobytes())
    if not pairs:
        ys = np.concatenate((xs[1:], xs[:1]))
        h, g = xs - ys, tx - np.concatenate((tx[1:], tx[:1]))
        ys.flags.writeable = h.flags.writeable = g.flags.writeable = False
        pairs += xs, ys, h, g
    return pairs


def _report(name, excess, slack, points):
    # one sample per entry of excess; max_violation is the largest (0.0 for an empty audit, which
    # passes); a failing report keeps the worst sample among those past their finite slack
    top = float(excess.max()) if excess.size else 0.0
    if callable(slack):  # a sampling checker's: formed only past a largest excess above 0 (NaN too)
        if top <= 0.0:
            return CheckReport(name, True, top, excess.size)
        slack = slack()
    ok = (excess <= slack) & (slack < np.inf)
    if ok.all():
        return CheckReport(name, True, top, excess.size)
    i = int(np.argmax(np.where(ok, -np.inf, excess)))
    return CheckReport(name, False, top, excess.size, tuple(p[i].copy() for p in points))


def _two_point(name, rho, h, g, points, anchor, radius):
    # see the module docstring; at rho = inf, +inf where r is nonzero and 0 where it is (inf * 0 is NaN)
    r = h - g
    excess = np.where(r.any(axis=1), math.inf, 0.0) if rho == math.inf else _dot(r, float(rho) * r - g - h)

    def slack():  # inf, unwarned, where it overflows
        hh, m = _dot(h, h), 1e-15 * (float(np.abs(anchor).max()) + radius)
        with np.errstate(over="ignore"):
            return 1e-12 * hh + m * (np.sqrt(hh) + np.sqrt(_dot(g, g)))

    return _report(name, excess, slack, points)


def check_sqne(node, rho, z, budget=SampleBudget()):
    """Probe the one-point inequality at modulus ``rho`` around fixed point ``z``: a ``z`` the node
    does not fix (at scale ``||z||``) makes the check vacuous, and raises ``witness-not-fixed``."""
    z = as_vector(z, node.dim)
    scale = _finite_norm(z, "witness-not-fixed: the norm of the declared fixed point overflows")
    rz = _residual_at(node, z)
    if not _within(rz, scale):
        raise ValueError(f"witness-not-fixed: residual {rz:.3e} at the declared fixed point")
    xs, tx, _ = _probe(node, budget, z.tobytes())
    return _two_point(f"sqne(rho={rho})", rho, xs - z, tx - z, (xs,), z, budget.radius)


def check_fne(node, rho, budget=SampleBudget(), *, center):
    """Probe the two-point inequality at modulus ``rho`` on pairs around ``center``."""
    center = as_vector(center, node.dim)
    xs, ys, h, g = _pairs(node, budget, center)
    return _two_point(f"fne(rho={rho})", rho, h, g, (xs, ys), center, budget.radius)


def check_nonexpansive(node, budget=SampleBudget(), *, center):
    """Probe ``||T(x) - T(y)|| <= ||x - y||`` on pairs around ``center``: :func:`check_fne` at rho 0.
    So a pass of ``check_fne`` at any rho >= 0 on the same probe implies one here: the excess grows
    with rho term by term, and the slack does not depend on it."""
    return replace(check_fne(node, 0.0, budget, center=center), name="nonexpansive")
