"""Total variation distance, the distance that parameterizes the
mixing-time definition (Eq. 2)."""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["total_variation_distance"]


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Return ``||p - q||_tv = (1/2) sum_j |p_j - q_j|``.

    This is the standard normalization (in [0, 1]); the paper's Eq. (2)
    writes the unhalved sum, which differs only by the constant factor 2
    and does not change which walk length first crosses a threshold when
    epsilon is scaled accordingly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise GraphError("distributions must be 1-D arrays of equal length")
    return 0.5 * float(np.abs(p - q).sum())
