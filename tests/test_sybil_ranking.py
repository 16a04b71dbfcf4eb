"""Unit tests for defense-induced rankings (the Viswanath view)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.sybil import (
    accept_top,
    ranking_correlation,
    ranking_order,
    ranking_overlap,
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

    def test_overlap_identical(self):
        scores = np.array([0.3, 0.2, 0.9])
        assert ranking_overlap(scores, scores, 2) == 1.0

    def test_overlap_disjoint(self):
        a = np.array([1.0, 0.9, 0.1, 0.0])
        b = np.array([0.0, 0.1, 0.9, 1.0])
        assert ranking_overlap(a, b, 2) == 0.0

    def test_correlation_perfect(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert ranking_correlation(a, a * 10) == pytest.approx(1.0)

    def test_correlation_reversed(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert ranking_correlation(a, -a) == pytest.approx(-1.0)

    def test_correlation_shape_mismatch(self):
        with pytest.raises(SybilDefenseError):
            ranking_correlation(np.ones(3), np.ones(4))


class TestModulatedRanking:
    def test_zero_trust_close_to_plain_ranking_order(self, ranked_attack):
        """With alpha = 0 the modulated chain is the plain chain; the
        induced orders agree with the plain-walk score (SybilRank's)."""
        from repro.sybil import SybilRank, modulated_walk_ranking, ranking_correlation

        attack, _ = ranked_attack
        plain = SybilRank(attack.graph).run([0]).normalized
        modulated = modulated_walk_ranking(attack.graph, 0, 0.0)
        assert ranking_correlation(plain, modulated) > 0.99

    def test_scores_bounded_by_stationary_normalization(self, ranked_attack):
        from repro.sybil import modulated_walk_ranking

        attack, _ = ranked_attack
        scores = modulated_walk_ranking(attack.graph, 0, 0.5, walk_length=200)
        # long modulated walks converge to stationary => scores -> 1
        assert np.all(scores >= 0)
        assert scores.mean() == pytest.approx(1.0, abs=0.2)

    def test_modulation_contains_sybil_mass(self, ranked_attack):
        """At a fixed short walk length, raising the stay probability
        reduces the probability mass that escapes into the Sybil region
        (the INFOCOM'11 trust-modulation effect)."""
        from repro.markov import delta_block, evolve_block
        from repro.mixing.trust import ModulatedOperator

        attack, _ = ranked_attack
        start = delta_block(attack.graph.num_nodes, [0])
        masses = []
        for alpha in (0.0, 0.7):
            op = ModulatedOperator.build(attack.graph, alpha)
            dist = evolve_block(op.matrix, start, 10)
            masses.append(dist[attack.num_honest :].sum())
        assert masses[1] < masses[0]

    def test_invalid_walk_length(self, ranked_attack):
        from repro.sybil import modulated_walk_ranking

        attack, _ = ranked_attack
        with pytest.raises(SybilDefenseError):
            modulated_walk_ranking(attack.graph, 0, 0.2, walk_length=0)
