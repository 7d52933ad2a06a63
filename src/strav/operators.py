"""Operator trees with a confidence calculus for contraction-type moduli.

A node is one of five kinds: a relaxed metric projection onto a convex set
(``Primitive``), the identity, a relaxation of a child, a convex
combination of children, or a composition applied left to right.  Nodes
are immutable; the quantitative constants below are derived once at
construction and never recomputed.  So is a pass-through node's ``apply``,
with no frame of its own: a projection at gamma 1 applies its set's
``project``, a relaxation at alpha 1 its child's ``apply`` (at alpha 0 the
identity's); a point it fixes comes back as the very array passed in.
:func:`_through` is the one single-point formula of a halfspace or
hyperplane projection.  A node's ``_rows`` are the rows it applies, none by
default: its set's at gamma 1 where :mod:`strav.sets` offers them, its
child's at alpha 1, and its children's, in order, for a :class:`Composition`
whose children all have rows (nested strings too) and whose ``apply`` is
its class's own.  For one point ``_through`` runs them in the float
operations of child by child, so the same bits; a batch goes child by child.

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
* projection with relaxation ``gamma`` in (0, 4/3]: both constants equal
  ``(2-gamma)/gamma``;
* ``alpha``-relaxation of a child with constant ``rho``: ``(1+rho-alpha)/alpha``
  for ``alpha`` in (0, 1+rho], no guarantee beyond;
* convex combination: minimum over non-identity children;
* composition of m non-identity children: minimum over them divided by m.

Where both the direct rule and the two-point route apply, ``sqne_rho``
takes the larger certified value, so ``fne_rho`` set implies ``sqne_rho``
set with ``sqne_rho >= fne_rho``.

The sampling checkers at the bottom probe these inequalities empirically
on seeded points and report the worst violation found.  All three judge one
probe: ``count`` seeded points around the anchor and their images, drawn
and applied once and memoised, so checks of one node with one budget and
center share the draw.  :func:`check_sqne` judges the points; the two-point
checkers judge the ``count`` pairs ``(x_i, x_{(i+1) mod count})``, whose
arrays the first of them derives and the memo keeps with the probe.  With
``d = x - z``, ``f = T(x) - x``, ``h = x - y``, ``g = T(x) - T(y)`` and
``r = h - g``, a sample's violation is a row-wise inner product:
``<f, (1+rho) f + 2d>`` at scale ``<d, d>`` (one point), ``<r, rho r - g - h>``
at scale ``<h, h>`` (two points), or ``sqrt<g, g> - sqrt<h, h>``.  These
factored forms cancel no two rounded squares of size ``radius^2``.  Every
inequality audit, these checkers and :func:`strav.solver.check_fejer` on a
trace, returns a :class:`CheckReport` judged by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numeric import _admits, _whole, _within, as_vector, norm

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


def _through(x, rows):
    # x (d,) through the rows (a, b, a @ a, one-sided) in order, handed on where a set holds it
    for a, b, asq, one_sided in rows:
        t = float(x.dot(a)) - b  # x.dot(a) is x @ a with less dispatch
        if not (t == 0.0 or t < 0.0 and one_sided):  # a NaN t steps, to NaN
            x = x - (t / asq) * a
    return x


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


def _min_over(values):
    # None propagates: a single unknown child voids the guarantee.
    values = list(values)
    return None if None in values else min(values, default=math.inf)


def _combined_constants(children):
    # (sqne, fne, m): minima over the m non-identity children, with sqne
    # taking the better of the direct and the two-point route
    active = [c for c in children if not isinstance(c, Identity)]
    fne = _min_over(c.fne_rho for c in active)
    return _best(_min_over(c.sqne_rho for c in active), fne), fne, len(active)


class OperatorNode:
    """Abstract immutable operator; concrete kinds derive the constants."""

    sqne_rho = None
    fne_rho = None
    dim = None
    children_ = ()
    _rows = ()  # (a, b, a @ a, one-sided) of each projection apply runs, in order; see _through

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def residual(self, x):
        """Norm of ``T(x) - x`` along the last axis."""
        x = np.asarray(x, dtype=float)
        return norm(self.apply(x) - x)

    def children(self):
        return self.children_

    def __repr__(self):
        return f"<{type(self).__name__} sqne={self.sqne_rho} fne={self.fne_rho}>"


class Primitive(OperatorNode):
    """Relaxed metric projection ``x + gamma*(P_C(x) - x)`` onto a convex set.

    Parameters
    ----------
    set_ : ProjectableSet
        Target set; only its ``project`` method and ``dim`` are used.
    gamma : float
        Relaxation in (0, 4/3].  gamma = 1 is the plain projection.
    """

    def __init__(self, set_, gamma=1.0):
        gamma = float(gamma)
        if not 0.0 < gamma <= 4.0 / 3.0:
            raise ValueError(f"gamma must lie in (0, 4/3], got {gamma}")
        rho = (2.0 - gamma) / gamma
        self.set = set_
        self.gamma = gamma
        self.dim = set_.dim
        self.sqne_rho = rho
        self.fne_rho = rho
        if gamma == 1.0:
            self.apply = set_.project
            self._rows = getattr(set_, "_rows", ())

    def apply(self, x):
        x = np.asarray(x, dtype=float)  # so a list's point inside comes back as its array's bits
        p = self.set.project(x)
        return p if p is x else x + self.gamma * (p - x)  # p is x: x lies in the set


class Identity(OperatorNode):
    """The identity; fixed by everything, inert in every derivation."""

    sqne_rho = math.inf
    fne_rho = math.inf

    def apply(self, x):
        return np.asarray(x, dtype=float)


class Relaxation(OperatorNode):
    """``x + alpha*(child(x) - x)`` for ``alpha`` in [0, 2].

    Fixed points of the child are preserved for every alpha > 0; alpha = 2
    is the reflection.
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
        self._rows = child._rows if alpha == 1.0 else ()

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.alpha * (self.child.apply(x) - x)


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
        self.sqne_rho, self.fne_rho, _ = _combined_constants(children)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        out = self.weights[0] * self.children_[0].apply(x)
        for w, child in zip(self.weights[1:], self.children_[1:]):
            out += w * child.apply(x)
        return out


class Composition(OperatorNode):
    """Composition of children applied left to right (first listed, first applied)."""

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ValueError("composition needs at least one child")
        self.children_ = children
        self.dim = _common_dim(children)
        sqne, fne, m = _combined_constants(children)
        m = max(m, 1)  # identities only: both constants stay +inf
        self.sqne_rho = None if sqne is None else sqne / m
        self.fne_rho = None if fne is None else fne / m
        if type(self).apply is Composition.apply and all(c._rows for c in children):
            self._rows = tuple(r for c in children for r in c._rows)

    def apply(self, x):
        out = np.asarray(x, dtype=float)
        if self._rows and out.shape == self._rows[0][0].shape:  # one point: see the module docstring
            return _through(out, self._rows)
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


def _ball_samples(rng, center, radius, count):
    d = center.shape[0]
    g = rng.standard_normal((count, d))
    lengths = norm(g)
    lengths[lengths == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / d)
    g /= lengths[:, None]  # center + (g / lengths) * radii, in place on the fresh draw
    g *= radii[:, None]
    return np.add(g, center, out=g)


@lru_cache(maxsize=1)
def _probe(node, budget, center):
    """``budget.count`` seeded points around ``center`` (float64 bytes), their images under
    ``node``, each a read-only ``(count, d)`` array, and a list that :func:`_pairs` fills once.

    The draw is pure, so a memo hit returns bitwise what a fresh call would.  The memo keys the
    node by identity and keeps it alive, with one probe until the next: 40 KB at 500 points in R^5
    (100 KB once paired), 6.4 MB at 200 points in R^2000 (16 MB once paired).
    """
    rng = np.random.default_rng(budget.seed)
    xs = _ball_samples(rng, np.frombuffer(center), budget.radius, budget.count)
    tx = node.apply(xs)
    xs.flags.writeable = tx.flags.writeable = False
    return xs, tx, []  # _pairs fills the list on the first two-point check


def _dot(a, b):
    # row-wise inner products of two (count, d) arrays
    return np.einsum("ij,ij->i", a, b)


def _moved(f):
    # the violation at rho = inf: +inf where the row moves, 0 where the node
    # fixes it (the finite form would multiply inf by 0 there)
    return np.where(f.any(axis=1), math.inf, 0.0)


def _pairs(node, budget, center):
    # the probe's x, their successors y (wrapping around), x - y, T(x) - T(y): made once, read-only
    if budget.count < 2:
        raise ValueError("a pair check needs a sample count of at least 2")
    center = as_vector(center, node.dim)
    xs, tx, pairs = _probe(node, budget, center.tobytes())
    if not pairs:
        ys = np.concatenate((xs[1:], xs[:1]))
        h, g = xs - ys, tx - np.concatenate((tx[1:], tx[:1]))
        ys.flags.writeable = h.flags.writeable = g.flags.writeable = False
        pairs += xs, ys, h, g
    return pairs


def _report(name, viol, scale, points):
    # one sample per entry of viol; max_violation is the largest raw
    # violation (0.0 for an empty audit, which passes); a failing report
    # keeps the worst sample among those that fail at their own scale
    ok = _within(viol, scale)
    passed = bool(ok.all())
    i = None if passed else int(np.argmax(np.where(ok, -np.inf, viol)))
    return CheckReport(
        name=name,
        passed=passed,
        max_violation=float(viol.max()) if viol.size else 0.0,
        samples=viol.size,
        worst=None if passed else tuple(p[i].copy() for p in points),
    )


def check_sqne(node, rho, z, budget=SampleBudget()):
    """Probe the one-point inequality at modulus ``rho`` around fixed point ``z``.

    Each sample is judged at scale ``||x - z||^2``.  ``z`` must be fixed by
    the node (at scale ``||z||``); otherwise the check is vacuous and a
    ``witness-not-fixed`` error is raised instead of reporting anything.
    """
    z = as_vector(z, node.dim)
    rz = float(node.residual(z))
    if not _within(rz, float(norm(z))):
        raise ValueError(f"witness-not-fixed: residual {rz:.3e} at the declared fixed point")
    xs, tx, _ = _probe(node, budget, z.tobytes())
    d, f = xs - z, tx - xs
    viol = _moved(f) if rho == math.inf else _dot(f, (1.0 + float(rho)) * f + 2.0 * d)
    return _report(f"sqne(rho={rho})", viol, _dot(d, d), (xs,))


def check_fne(node, rho, budget=SampleBudget(), *, center):
    """Probe the two-point inequality at modulus ``rho`` on pairs around ``center``, at scale ``||x - y||^2``."""
    xs, ys, h, g = _pairs(node, budget, center)
    r = h - g
    viol = _moved(r) if rho == math.inf else _dot(r, float(rho) * r - g - h)
    return _report(f"fne(rho={rho})", viol, _dot(h, h), (xs, ys))


def check_nonexpansive(node, budget=SampleBudget(), *, center):
    """Probe plain Lipschitz-1 behavior on pairs around ``center``, at scale ``||x - y||``."""
    xs, ys, h, g = _pairs(node, budget, center)
    dxy = np.sqrt(_dot(h, h))
    return _report("nonexpansive", np.sqrt(_dot(g, g)) - dxy, dxy, (xs, ys))
