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
alarm, while a genuine violation grows with the terms too.

``_SLACK`` is the smaller slack for interval membership of exact user
constants (step sizes, alpha, weight floors): they are chosen, not
computed, so they need room only for the rounding of the bound itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_vector", "norm"]

_SLACK = 1e-12  # float slack on interval-membership checks


def _within(excess, scale=1.0):
    """True where ``excess <= 1e-9 + 1e-12 * scale``, elementwise."""
    return excess <= 1e-9 + 1e-12 * scale


def as_vector(x, dim=None):
    """Validate ``x`` as a finite 1-D float vector and return a copy-safe array.

    Parameters
    ----------
    x : array_like
        Coordinates of a single point.
    dim : int, optional
        Require this exact dimension.

    Raises
    ------
    ValueError
        On non-1-D input, empty input, non-finite coordinates, or a
        dimension mismatch.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have positive dimension")
    if not np.all(np.isfinite(v)):
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

