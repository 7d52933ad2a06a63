"""Projectable convex sets and the lazily materialized input-operator family.

Every set variant carries an exact nearest-point rule.  ``project`` accepts a single vector or a
row-stacked batch and returns the same shape, and refuses any other shape (a 0-d one too) as
``dim-mismatch``; a point already inside comes back unchanged (bitwise for the polyhedral variants),
a single one perhaps as the very array passed in (see ``project``).  A halfspace or hyperplane
projects one point by :func:`strav.operators._each` and a batch by :func:`strav.operators._sweep`
on its row, built at construction: the loops a string of them runs, offered as ``_rows`` only while
``project`` is the library's own.  A float64 ndarray of the set's shape (d,) reaches ``_each`` after
one type test; any other input (a list, another dtype or byte order, a subclass, a batch) takes
``np.asarray`` first.  The test passes only arrays ``np.asarray`` hands back as themselves, so both
paths give the same object, bits and errors.  A batch's step is the outer product
``np.einsum("...,j->...j", t / (a @ a), a)`` of its offsets ``t``, each entry one exact product
added onto einsum's zeroed output: +0.0 for a zero offset, so an inactive row keeps its -0.0s.

A halfspace's ``distance`` is its clamped offset over the norm of its normal,
``max(<a, x> - b, 0) / ||a||``, and a hyperplane's is ``|<a, x> - b| / ||a||``; an inactive point
reads +0.0.  Every other set's ``distance`` is the norm of ``x - project(x)``, and so is that of a
halfspace or hyperplane whose ``project`` a subclass overrides.

:meth:`OperatorFamily.distances` answers many sets at once: it stacks the normals of the halfspaces
and hyperplanes and takes their closed form for a whole (B, d) block, and asks every other set once
per block.  It agrees with ``distance`` bit for bit for axis-aligned normals and to rounding
otherwise, because a matrix-vector product may sum its terms in another order than the per-set dot
product.  A block row keeps its one-point bits: ``np.matmul`` runs one matrix-vector product per
stacked point, where ``X @ normals.T`` would not, and every other set projects a batch row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .numeric import _finite_norm, _whole, _within, as_vector, norm
from .operators import _F8, Identity, OperatorNode, Primitive, _each, _residual_at, _sweep

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
        if x.shape[-1:] != (self.dim,):  # a 0-d x has no last axis
            raise ValueError(f"dim-mismatch: point of shape {x.shape}, set of dimension {self.dim}")


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
        self.dim, self._shape, self._norm = self.a.shape[0], self.a.shape, math.sqrt(self._asq)
        self._row = ((self.a, self.b, self._asq, self._one_sided),)
        self._rows = self._row if type(self).project is _LinearConstraint.project else ()

    def project(self, x):
        if not (type(x) is np.ndarray and x.shape == self._shape and x.dtype is _F8):  # see the docstring
            x = np.asarray(x, dtype=float)
            if x.shape != self._shape:
                self._check_dim(x)
                return _sweep(x, self._row)
        return _each(x, self._row)  # one point: the formula of strav.operators._each

    def distance(self, x):
        if not self._rows:  # a subclass's own project: the gap to it
            return super().distance(x)
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        t = x @ self.a - self.b
        return abs(np.maximum(t, 0.0) if self._one_sided else t) / self._norm  # abs: never -0.0


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
        shifted = (x - self.offset)[..., None, :]  # a row's own vector-matrix products: its one-point bits
        return self.offset + np.matmul(np.matmul(shifted, self.basis.T), self.basis)[..., 0, :]


class OperatorFamily:
    """Lazily materialized, memoized family ``n -> U_n`` of input operators.

    ``generator`` maps a natural number to a :class:`ProjectableSet` (projected onto) or an
    :class:`~strav.operators.OperatorNode`, such as ``Relaxation(Primitive(set), gamma)`` for a
    relaxed projection.  ``witness`` is the declared common point: materializing index n
    spot-checks that U_n fixes it (at scale ``||witness||``), and a violation is a construction
    error, not a silent degradation.

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
        """Distance from x to the n-th set, the ``set`` of U_n (0 for an identity pad)."""
        op = self.operator(n)
        if op.set is not None:
            return op.set.distance(x)
        if isinstance(op, Identity):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0
        raise ValueError(f"family-error: no set distance available for index {n}")

    def distances(self, indices, x):
        """Distances from a point x (d,) to the sets at ``indices``, in that order: (m,).

        Agrees with ``[self.distance(n, x) for n in indices]``, bitwise for
        axis-aligned normals (see the module docstring).  A block x of shape
        (B, d) gives (B, m), row i bitwise the call at ``x[i]``.  The first
        call for an index tuple materializes its operators, refuses one with
        no set distance and stacks their polyhedral sets; later calls reuse
        the stacks.
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

    On a (B, d) block of points, the halfspaces and hyperplanes whose ``project`` is the library's
    own take ``distance``'s closed form together.  Every other set and identity pad is asked of
    the per-set ``distance`` once per block; any other node is refused at build.
    """

    def __init__(self, family, indices):
        linear, self.rest = [], []
        for pos, n in enumerate(indices):
            op = family.operator(n)
            s = op.set
            if isinstance(s, _LinearConstraint) and s._rows:
                linear.append((pos, s))
            elif s is not None or isinstance(op, Identity):
                self.rest.append((pos, n))
            else:
                raise ValueError(f"family-error: no set distance available for index {n}")
        self.size = len(indices)
        self.linear_pos = np.array([pos for pos, _ in linear], dtype=np.intp)
        self.normals = np.array([s.a for _, s in linear])
        self.offsets = np.array([s.b for _, s in linear])
        self.norms = np.array([s._norm for _, s in linear])
        # np.maximum with -inf leaves an equality row's offset unclamped, and abs takes |t|
        self.floor = np.array([0.0 if s._one_sided else -np.inf for _, s in linear])

    def distances(self, family, x):
        out = np.empty((len(x), self.size))
        if self.linear_pos.size:  # an all-linear stack takes its offsets in out, in order
            coef = np.empty((len(x), len(self.normals))) if self.rest else out
            np.matmul(self.normals, x[:, :, None], out=coef[:, :, None])  # normals @ x, row by row
            coef -= self.offsets
            np.abs(np.maximum(coef, self.floor, out=coef), out=coef)
            coef /= self.norms
            if self.rest:
                out[:, self.linear_pos] = coef
        for pos, n in self.rest:
            out[:, pos] = family.distance(n, x)
        return out
