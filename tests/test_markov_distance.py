"""Unit tests for distribution distances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.markov import total_variation_distance


class TestTotalVariation:
    def test_identical_is_zero(self):
        p = np.array([0.5, 0.5])
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        assert total_variation_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_known_value(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        assert total_variation_distance(p, q) == pytest.approx(0.3)

    def test_symmetry(self):
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.1, 0.6, 0.3])
        assert total_variation_distance(p, q) == total_variation_distance(q, p)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(GraphError):
            total_variation_distance(np.ones(2) / 2, np.ones(3) / 3)
