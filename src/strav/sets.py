"""Projectable convex sets and the lazily materialized input-operator family.

Every set variant carries an exact nearest-point rule.  ``project`` accepts
a single vector or a row-stacked batch and returns the same shape; a point
already inside comes back unchanged (bitwise for the polyhedral variants),
a single one perhaps as the very array passed in (see ``project``).  A halfspace or hyperplane
projects one point by :func:`strav.operators._each` and a batch by :func:`strav.operators._sweep`
on its row, built at construction: the loops a string of them runs, offered as ``_rows`` only while
``project`` is the library's own.  A batch's step is the outer product
``np.einsum("...,j->...j", t / (a @ a), a)`` of its offsets ``t``, each entry one exact product
added onto einsum's zeroed output: +0.0 for a zero offset, so an inactive row keeps its -0.0s.
``distance`` is always the norm of ``x - project(x)`` so the two operations
can never disagree.

:meth:`OperatorFamily.distances` answers many sets at once: it stacks the
halfspaces and hyperplanes into one normal matrix and repeats each set's
own arithmetic row by row.
Axis-aligned normals therefore give the per-set values bit for bit; other
normals agree to rounding, because a matrix-vector product may sum its
terms in another order than the per-set dot product.
A (B, d) block of points gets each row's one-point bits: ``np.matmul``
runs one matrix-vector product per stacked point, where ``X @ normals.T``
would not, and the rest is elementwise, row-wise or asked point by point.
The (B, m) offsets are taken for the whole block, in the result where every
set is linear; the projection arithmetic runs only on the (point, set) pairs
whose clamped offset is nonzero, and the others get +0.0, which it would give
them at a finite point.  So the scratch is the offsets and 2 d + 5 floats per
active pair.  A block with a row holding inf or NaN runs every pair in two
(B, m, d) arrays, and so does one whose active pairs outweigh it: a pair costs
the sparse path about 6 floats more.
"""

from __future__ import annotations

import math

import numpy as np

from .numeric import _finite_norm, _whole, _within, as_vector, norm
from .operators import Identity, OperatorNode, Primitive, _each, _residual_at, _sweep

__all__ = [
    "ProjectableSet",
    "Halfspace",
    "Hyperplane",
    "Ball",
    "Box",
    "AffineSubspace",
    "OperatorFamily",
]


class ProjectableSet:
    """Base class: a nonempty closed convex subset of R^dim with exact projection."""

    dim = None

    def project(self, x):
        """Nearest point of the set to each row of ``x``, in the shape of ``x``.

        The result may be ``x`` itself (a single point inside a halfspace),
        so it must not be modified in place.
        """
        raise NotImplementedError

    def distance(self, x):
        x = np.asarray(x, dtype=float)
        return norm(x - self.project(x))

    def _check_dim(self, x):
        if x.shape[-1] != self.dim:
            raise ValueError(f"dim-mismatch: point of dimension {x.shape[-1]}, set of {self.dim}")


class _LinearConstraint(ProjectableSet):
    """``<a, x> <= b`` (one-sided) or ``<a, x> = b`` with a != 0."""

    _one_sided = True

    def __init__(self, a, b):
        self.a = as_vector(a)
        self.b = float(b)
        with np.errstate(over="ignore"):
            self._asq = float(self.a @ self.a)
        name = type(self).__name__.lower()
        if self._asq == 0.0:
            raise ValueError(f"{name} normal must be nonzero")
        if not math.isfinite(self._asq):
            raise ValueError(f"{name} normal's squared norm overflows")
        if not math.isfinite(self.b):  # a NaN offset projects to NaN, an infinite one is empty or all
            raise ValueError(f"{name} offset must be finite, got {self.b}")
        self.dim = self.a.shape[0]
        self._row = ((self.a, self.b, self._asq, self._one_sided),)
        self._rows = self._row if type(self).project is _LinearConstraint.project else ()

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape == self.a.shape:  # one point: the formula of strav.operators._each
            return _each(x, self._row)
        self._check_dim(x)
        return _sweep(x, self._row)


class Halfspace(_LinearConstraint):
    """``{x : <a, x> <= b}`` with a != 0."""


class Hyperplane(_LinearConstraint):
    """``{x : <a, x> = b}`` with a != 0."""

    _one_sided = False


class Ball(ProjectableSet):
    """Closed Euclidean ball of positive radius."""

    def __init__(self, center, radius):
        self.center = as_vector(center)
        self.radius = float(radius)
        if not self.radius > 0.0:  # NaN too; an infinite radius is the whole space
            raise ValueError("ball radius must be positive")
        self.dim = self.center.shape[0]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        diff = x - self.center
        with np.errstate(over="ignore"):
            dist = norm(diff)
        outside = dist > self.radius
        if np.any(dist == np.inf):  # those rows pull along diff over its largest entry, of finite norm
            diff = diff / np.where((dist == np.inf)[..., None], np.abs(diff).max(axis=-1, keepdims=True), 1.0)
            dist = norm(diff)
        pull = np.divide(self.radius, dist, out=np.ones_like(dist), where=outside)
        pulled = self.center + pull[..., None] * diff
        return np.where(outside[..., None], pulled, x)


class Box(ProjectableSet):
    """Coordinate box ``{x : lo <= x <= hi}``."""

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, self.lo.shape[0])
        if np.any(self.lo > self.hi):
            raise ValueError("box needs lo <= hi coordinatewise")
        self.dim = self.lo.shape[0]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        return np.clip(x, self.lo, self.hi)


class AffineSubspace(ProjectableSet):
    """``offset + span(basis)`` for an orthonormal basis, given row-wise."""

    def __init__(self, basis, offset):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.size == 0:
            raise ValueError("basis must be a nonempty 2-D array of row vectors")
        gram = basis @ basis.T
        if not _within(np.max(np.abs(gram - np.eye(basis.shape[0])))):
            raise ValueError("basis rows must be orthonormal")
        self.basis = basis
        self.offset = as_vector(offset, basis.shape[1])
        self.dim = basis.shape[1]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        shifted = x - self.offset
        return self.offset + (shifted @ self.basis.T) @ self.basis


class OperatorFamily:
    """Lazily materialized, memoized family ``n -> U_n`` of input operators.

    Parameters
    ----------
    generator : callable
        Maps a natural number to either a :class:`ProjectableSet` (projected
        onto at gamma 1) or an :class:`~strav.operators.OperatorNode`, such
        as ``Primitive(set, gamma)`` for a relaxed projection.
    witness : array_like
        Declared common point.  Materializing index n spot-checks that the
        witness is fixed by U_n (at scale ``||witness||``); a violation is a
        construction error, not a silent degradation.

    ``size`` is the number of inputs of a finite family (see :meth:`from_sets`) and None for a
    generated one.  Two concurrent materializations of the same index are harmless: the memo
    insert is idempotent and nodes are immutable.  The family also keeps the tree that
    :func:`~strav.gmsa.output_operator` builds for each plan structure: that memo grows by one
    tree per distinct structure ever built, as ``_ops`` grows per input; ROADMAP item 9 bounds both.
    """

    size = None

    def __init__(self, generator, witness):
        self._generator = generator
        self.witness = as_vector(witness)
        self._witness_norm = _finite_norm(self.witness, "family-error: the witness's norm overflows")
        self.dim = self.witness.shape[0]
        self._ops = {}
        self._stacks = {}
        self._trees = {}  # plan structure key -> its modules, filled by gmsa.output_operator

    def operator(self, n):
        """Materialize (once) and return the input operator U_n."""
        n = n if type(n) is int and n >= 0 else _whole(n, "family-error: operator index", lo=0)  # before _ops
        node = self._ops.get(n)
        if node is not None:
            return node
        try:
            raw = self._generator(n)
        except Exception as exc:
            raise ValueError(f"family-error: generator failed at index {n}: {exc}") from exc
        if isinstance(raw, OperatorNode):
            node = raw
        elif isinstance(raw, ProjectableSet):
            node = Primitive(raw)
        else:
            raise ValueError(
                f"family-error: generator returned {type(raw).__name__} at index {n}"
            )
        if node.dim is not None and node.dim != self.dim:
            raise ValueError(
                f"family-error: operator {n} has dimension {node.dim}, family has {self.dim}"
            )
        rz = _residual_at(node, self.witness)  # inf or NaN where it overflows, which fails _within
        if not _within(rz, self._witness_norm):
            raise ValueError(
                f"family-error: declared common point not fixed by operator {n} (residual {rz:.3e})"
            )
        return self._ops.setdefault(n, node)

    def distance(self, n, x):
        """Distance from x to the n-th set (0 for an identity pad)."""
        op = self.operator(n)
        if isinstance(op, Primitive):
            return op.set.distance(x)
        if isinstance(op, Identity):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0
        raise ValueError(f"family-error: no set distance available for index {n}")

    def distances(self, indices, x):
        """Distances from a point x (d,) to the sets at ``indices``, in that order: (m,).

        Agrees with ``[self.distance(n, x) for n in indices]`` to rounding
        (see the module docstring).  A block x of shape (B, d) gives (B, m),
        row i bitwise the call at ``x[i]``.  The first call for an index
        tuple materializes its operators, refuses one with no set distance
        and stacks their polyhedral sets; later calls reuse the stacks.
        """
        key = tuple(indices)
        if not all(type(n) is int for n in key):  # read before the memo, as in operator
            key = tuple(_whole(n, "family-error: operator index", lo=0) for n in key)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks.setdefault(key, _DistanceStack(self, key))
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"dim-mismatch: expected (d,) or (B, d) points with d = {self.dim}, got {x.shape}"
            )
        return stack.distances(self, x.reshape(-1, self.dim)).reshape(*x.shape[:-1], len(key))

    @property
    def materialized(self):
        return sorted(self._ops)

    def check_common_point(self, z):
        """Whether every materialized operator fixes z, at scale ``||z||``; refused where that overflows."""
        z = as_vector(z, self.dim)
        scale = _finite_norm(z, "witness-not-fixed: the norm of z overflows")
        return all(_within(_residual_at(self._ops[n], z), scale) for n in self.materialized)  # NaN fails

    @classmethod
    def from_sets(cls, sets, witness):
        """Finite family over an explicit list of sets (or operator nodes)."""
        sets = list(sets)

        def generator(n):
            if n >= len(sets):
                raise IndexError(f"finite family of size {len(sets)} has no index {n}")
            return sets[n]

        fam = cls(generator, witness)
        fam.size = len(sets)
        return fam


class _DistanceStack:
    """The sets at one index tuple, grouped for :meth:`OperatorFamily.distances`.

    On a (B, d) block of points, the halfspaces and hyperplanes repeat their
    ``project`` arithmetic, then ``distance``'s norm of ``x - project(x)``.
    Boxes, balls, affine subspaces and identity pads are asked of the per-set
    ``distance`` one point at a time; any other node is refused at build.
    """

    def __init__(self, family, indices):
        linear, self.rest = [], []
        for pos, n in enumerate(indices):
            op = family.operator(n)
            s = op.set if isinstance(op, Primitive) else None
            if isinstance(s, _LinearConstraint):
                linear.append((pos, s))
            elif s is not None or isinstance(op, Identity):
                self.rest.append((pos, n))
            else:
                raise ValueError(f"family-error: no set distance available for index {n}")
        self.size = len(indices)
        self.linear_pos = np.array([pos for pos, _ in linear], dtype=np.intp)
        self.normals = np.array([s.a for _, s in linear])
        self.offsets = np.array([s.b for _, s in linear])
        self.asq = np.array([s._asq for _, s in linear])
        # np.maximum with -inf leaves an equality row's offset unclamped
        self.floor = np.array([0.0 if s._one_sided else -np.inf for _, s in linear])

    def distances(self, family, x):
        out = np.empty((len(x), self.size))
        if self.linear_pos.size:  # an all-linear stack takes its offsets in out, in order
            coef = np.empty((len(x), len(self.normals))) if self.rest else out
            np.matmul(self.normals, x[:, :, None], out=coef[:, :, None])  # normals @ x, row by row
            coef -= self.offsets
            np.divide(np.maximum(coef, self.floor, out=coef), self.asq, out=coef)
            # numpy buffers a broadcast ufunc operand, a copy of the block at this size, where a
            # broadcast assignment or a take into out (mode "clip") needs no buffer
            d, m = x.shape[1], len(self.normals)
            if np.count_nonzero(coef) * (d + 6) <= coef.size * d and np.isfinite(x).all():
                live = np.flatnonzero(coef)  # the active pairs alone (see the module docstring)
                dist = coef.take(live)
                coef.fill(0.0)
                step, xs = np.empty((2, live.size, d))
                step[...] = dist[:, None]
                step *= np.take(self.normals, live % m, axis=0, out=xs, mode="clip")
                np.take(x, live // m, axis=0, out=xs, mode="clip")
            else:  # every pair
                live, dist = None, coef
                step, xs = np.empty((2, len(x)) + self.normals.shape)
                step[...], xs[...] = coef[:, :, None], self.normals
                step *= xs
                xs[...] = x[:, None, :]
            np.subtract(xs, step, out=step)  # x - (x - step), each written over the steps
            np.subtract(xs, step, out=step)
            step *= step  # norm's squares and sum, in place
            np.sqrt(np.add.reduce(step, axis=-1, out=dist), out=dist)
            if live is not None:
                np.put(coef, live, dist)
            if self.rest:
                out[:, self.linear_pos] = coef
        for pos, n in self.rest:
            out[:, pos] = [family.distance(n, p) for p in x]
        return out
