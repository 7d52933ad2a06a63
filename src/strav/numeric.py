"""Finite-dimensional real vector arithmetic shared by every other module.

Vectors are plain 1-D numpy float arrays.  All helpers broadcast over
leading axes so a batch of points, stacked row-wise, can be pushed through
in a single call; reductions run along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Tolerance", "DEFAULT_TOL", "as_vector", "norm"]

_SLACK = 1e-12  # float slack on interval-membership checks


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative comparison slack used by checkers and monitors."""

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        if self.abs_eps < 0.0 or self.rel_eps < 0.0:
            raise ValueError("tolerance slacks must be nonnegative")
        if self.abs_eps == 0.0 and self.rel_eps == 0.0:
            raise ValueError("at least one of abs_eps, rel_eps must be positive")


DEFAULT_TOL = Tolerance()


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
    """Euclidean norm along the last axis."""
    return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

