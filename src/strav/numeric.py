"""Finite-dimensional real vector arithmetic shared by every other module.

Vectors are plain 1-D numpy float arrays.  All helpers broadcast over
leading axes so a batch of points, stacked row-wise, can be pushed through
in a single call; reductions run along the last axis.

Tolerances
----------
An audited inequality (a sampled modulus, Fejer monotonicity, a fixed
point, a weight sum) holds when its excess passes :func:`_within`:
``excess <= 1e-9 + 1e-12 * scale``, with ``scale`` the largest term of the
inequality, which every caller already computes.  The relative part absorbs
the rounding of large terms, so a check at radius 1e6 raises no false
alarm, while a genuine violation grows with the terms too.  An inequality
whose scale overflowed to infinity never passes.

``_SLACK`` is the smaller slack for interval membership of exact user
constants (step sizes, alpha, weight floors): they are chosen, not
computed, so they need room only for the rounding of the bound itself.
:func:`_admits` is the one membership rule: its slack is relative at the
positive floor, so a floor of 1e-13 refuses 0, and absolute at the top.

:func:`_whole` refuses, never truncates, a count, index or reference other than an int (not a
bool) or numpy integer; ``config._int`` still reads ``100000.0``, ``BetaGrid.M`` truncates a
callable's count.  On hot paths (``f_value``, ``plan_at``, ``lam``, ``at``, ``BetaGrid``,
``StepSpec``, ``IterationPlan``, ``OperatorFamily.operator`` and ``.distances``) it runs only
past ``type(v) is int``, and a memo is read after that test: ``1.0`` and ``True`` hash as ``1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_vector", "norm"]

_SLACK = 1e-12  # float slack on interval-membership checks


def _within(excess, scale=1.0):
    """True where ``excess <= 1e-9 + 1e-12 * scale`` at a finite scale, elementwise."""
    # an infinite scale would pass any excess, an overflowed one included
    return (excess <= 1e-9 + 1e-12 * scale) & (scale < np.inf)


def _whole(v, what, lo=None):
    """``int(v)`` for an int (not a bool) or numpy integer not below ``lo``; else ValueError naming ``what``."""
    if (type(v) is int or isinstance(v, (int, np.integer)) and type(v) is not bool) and (lo is None or v >= lo):
        return int(v)
    raise ValueError(f"{what} must be an integer{'' if lo is None else f' >= {lo}'}, got {v!r}")


def _admits(v, lo, hi):
    """True when ``lo <= v <= hi`` up to ``_SLACK``: relative to ``lo`` below, absolute above."""
    lo, hi = _admitted(lo, hi)
    return lo <= v <= hi


def _admitted(lo, hi):
    """The closed interval :func:`_admits` tests ``v`` against, for a caller that tests many."""
    return lo - _SLACK * lo, hi + _SLACK


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


def norm(x):
    """Euclidean norm along the last axis.

    The same sum of squares ``np.linalg.norm(x, axis=-1)`` computes for real
    input, bit for bit, without its dispatch cost.
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.add.reduce(x * x, axis=-1))

