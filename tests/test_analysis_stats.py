"""Unit tests for statistics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ecdf, spearman
from repro.errors import ReproError


class TestEcdf:
    def test_values_and_fractions(self):
        values, fractions = ecdf(np.array([3, 1, 3, 2]))
        assert np.array_equal(values, [1, 2, 3])
        assert np.allclose(fractions, [0.25, 0.5, 1.0])

    def test_single_value(self):
        values, fractions = ecdf(np.array([7]))
        assert np.array_equal(values, [7])
        assert np.array_equal(fractions, [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            ecdf(np.array([]))


class TestSpearman:
    def test_perfect_monotone(self):
        a = np.array([1, 2, 3, 4, 5])
        assert spearman(a, a**3) == pytest.approx(1.0)

    def test_reversed(self):
        a = np.array([1, 2, 3, 4])
        assert spearman(a, -a) == pytest.approx(-1.0)

    def test_ties_handled(self):
        a = np.array([1, 2, 2, 3])
        b = np.array([1, 2, 2, 3])
        assert spearman(a, b) == pytest.approx(1.0)

    def test_constant_input_zero(self):
        assert spearman(np.ones(4), np.arange(4)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            spearman(np.ones(3), np.ones(2))
