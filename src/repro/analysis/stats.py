"""Statistical helpers shared by experiments and benchmarks."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

__all__ = ["ecdf", "spearman"]


def ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted unique values, cumulative fraction <= value)``."""
    values = np.asarray(values)
    if values.size == 0:
        raise ReproError("ECDF of an empty sample is undefined")
    unique, counts = np.unique(values, return_counts=True)
    return unique, np.cumsum(counts) / values.size


def spearman(first: np.ndarray, second: np.ndarray) -> float:
    """Return the Spearman rank correlation of two samples."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.size != b.size or a.size < 2:
        raise ReproError("samples must match in length (>= 2)")

    def _ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        ranks = np.empty(values.size)
        ranks[order] = np.arange(values.size, dtype=float)
        # average ranks over ties
        unique, inverse, counts = np.unique(
            values, return_inverse=True, return_counts=True
        )
        sums = np.zeros(unique.size)
        np.add.at(sums, inverse, ranks)
        return sums[inverse] / counts[inverse]

    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)
