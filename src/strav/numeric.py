"""Finite-dimensional real vector arithmetic shared by every other module.

Vectors are plain 1-D numpy float arrays.  All helpers broadcast over
leading axes so a batch of points, stacked row-wise, can be pushed through
in a single call; reductions run along the last axis.  numpy sums a row shorter than 8 in order
(a longer one pairwise), so :func:`norm` sums a batch of short rows a column at a time: the same
bits, in one inner loop per column rather than per row.

Tolerances
----------
An audited inequality (a sampled modulus, nonexpansiveness, Fejer monotonicity) passes within a
slack sized from its own terms, with no absolute floor (see :mod:`strav.operators`), so a scale
neither hides a violation nor raises a false alarm.  :func:`_within` (``excess <= 1e-9 + 1e-12 *
scale``, at a finite scale) judges what is no audited inequality: a fixed point, whose scale
``||z||`` is 0 at the origin, a weight sum, a unit norm, orthonormal rows.  ``_SLACK`` is the
smaller slack for interval membership of exact user constants (step sizes, alpha, weight floors):
they are chosen, not computed, so they need room only for the rounding of the bound itself.
:func:`_admits` is the one membership rule: its slack is relative at the positive floor, so a
floor of 1e-13 refuses 0, and absolute at the top.

:func:`_whole` refuses, never truncates, a count, index or reference other than an int (not a
bool) or numpy integer; ``config._int`` still reads ``100000.0``, ``BetaGrid.M`` truncates a
callable's count.  On hot paths (``f_value``, ``plan_at``, ``lam``, ``at``, ``BetaGrid``,
``StepSpec``, ``IterationPlan``, ``OperatorFamily.operator`` and ``.distances``) it runs only
past ``type(v) is int``, and a memo is read after that test: ``1.0`` and ``True`` hash as ``1``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["as_vector", "norm"]

_SLACK = 1e-12  # float slack on interval-membership checks
_MAX = float(np.finfo(float).max)


def _within(excess, scale=1.0):
    """True where ``excess <= 1e-9 + 1e-12 * scale`` at a finite scale, elementwise."""
    # an infinite scale would pass any excess, an overflowed one included
    return (excess <= 1e-9 + 1e-12 * scale) & (scale < np.inf)


def _whole(v, what, lo=None):
    """``int(v)`` for an int (not a bool) or numpy integer not below ``lo``; else ValueError naming ``what``."""
    if (type(v) is int or isinstance(v, (int, np.integer)) and type(v) is not bool) and (lo is None or v >= lo):
        return int(v)
    raise ValueError(f"{what} must be an integer{'' if lo is None else f' >= {lo}'}, got {v!r}")


def _plain(v, types=(int, float), low=-_MAX):
    """Whether each entry of ``v`` is of a type in ``types`` (a bool is of none) and in [low, float max]."""
    return all(type(x) in types and low <= x <= _MAX for x in v)


def _admits(v, lo, hi):
    """True when ``lo <= v <= hi`` up to ``_SLACK``: relative to ``lo`` below, absolute above."""
    return lo - _SLACK * lo <= v <= hi + _SLACK


def as_vector(x, dim=None):
    """``x`` as a 1-D float array: nonempty, finite and, given ``dim``, of that dimension;
    otherwise ValueError.  It is ``np.asarray(x, dtype=float)``: ``x`` itself when already one.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have positive dimension")
    if not np.isfinite(v).all():
        raise ValueError("non-finite coordinate in vector")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dim-mismatch: expected dimension {dim}, got {v.shape[0]}")
    return v


def _finite_norm(x, refusal):
    """``float(norm(x))`` of one point; ValueError ``refusal`` where it is not finite, and no numpy warning."""
    with np.errstate(over="ignore"):
        size = float(norm(x))
    if not size < np.inf:
        raise ValueError(refusal)
    return size


def norm(x):
    """Euclidean norm along the last axis: the sum of squares ``np.linalg.norm(x, axis=-1)`` computes for
    real input, bit for bit, without its dispatch cost."""
    sq = np.square(np.asarray(x, dtype=float))
    if sq.ndim > 1 and 0 < sq.shape[-1] < 8:  # see the module docstring
        return np.sqrt(reduce(np.add, sq.T).T)
    return np.sqrt(np.add.reduce(sq, axis=-1))

