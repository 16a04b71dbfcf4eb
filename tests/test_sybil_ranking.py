"""Unit tests for defense-induced rankings (the Viswanath view)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.sybil import (
    accept_top,
    ranking_order,
    standard_attack,
    walk_probability_ranking,
)


@pytest.fixture(scope="module")
def ranked_attack():
    honest = barabasi_albert(250, 4, seed=0)
    attack = standard_attack(honest, 4, sybil_scale=0.3, seed=0)
    scores = walk_probability_ranking(attack.graph, trusted=0)
    return attack, scores


class TestScores:
    def test_shape_and_nonnegative(self, ranked_attack):
        attack, scores = ranked_attack
        assert scores.size == attack.graph.num_nodes
        assert np.all(scores >= 0)

    def test_sybils_rank_low(self, ranked_attack):
        """The common core of all ranking defenses: Sybils concentrate at
        the bottom of the ranking from an honest trusted node."""
        attack, scores = ranked_attack
        order = ranking_order(scores)
        top_half = set(order[: attack.num_honest].tolist())
        sybils_in_top = sum(1 for s in attack.sybil_nodes if int(s) in top_half)
        assert sybils_in_top < 0.25 * attack.num_sybil

    def test_longer_walks_flatten_scores(self, ranked_attack):
        attack, _ = ranked_attack
        short = walk_probability_ranking(attack.graph, 0, walk_length=2)
        long = walk_probability_ranking(attack.graph, 0, walk_length=200)
        assert short.std() > long.std()

    def test_invalid_walk_length(self, ranked_attack):
        attack, _ = ranked_attack
        with pytest.raises(SybilDefenseError):
            walk_probability_ranking(attack.graph, 0, walk_length=0)


class TestRankingUtilities:
    def test_order_descending(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert np.array_equal(ranking_order(scores), [1, 2, 0])

    def test_order_tie_break_by_id(self):
        scores = np.array([0.5, 0.5, 0.9])
        assert np.array_equal(ranking_order(scores), [2, 0, 1])

    def test_accept_top(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert np.array_equal(accept_top(scores, 2), [1, 3])

    def test_accept_top_bounds(self):
        with pytest.raises(SybilDefenseError):
            accept_top(np.array([0.5]), 2)
