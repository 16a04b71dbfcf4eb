"""Unit tests for SybilRank and SybilDefender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.graph import Graph
from repro.sybil import (
    SybilDefender,
    SybilDefenderConfig,
    SybilRank,
    SybilRankConfig,
    standard_attack,
)


@pytest.fixture(scope="module")
def rank_attack():
    honest = barabasi_albert(300, 4, seed=0)
    return standard_attack(honest, 5, seed=0)


class TestSybilRankConfig:
    def test_invalid_params(self):
        with pytest.raises(SybilDefenseError):
            SybilRankConfig(num_iterations=0)
        with pytest.raises(SybilDefenseError):
            SybilRankConfig(total_trust=0)

    def test_default_iterations_log_n(self, rank_attack):
        ranker = SybilRank(rank_attack.graph)
        expected = int(np.ceil(np.log2(rank_attack.graph.num_nodes)))
        assert ranker.num_iterations == expected

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            SybilRank(Graph.from_edges([(0, 1)]))


class TestSybilRankRun:
    def test_trust_conserved(self, rank_attack):
        ranker = SybilRank(rank_attack.graph)
        result = ranker.run(seeds=[0, 3])
        assert result.trust.sum() == pytest.approx(1.0)

    def test_sybils_rank_at_bottom(self, rank_attack):
        ranker = SybilRank(rank_attack.graph)
        result = ranker.run(seeds=[0, 5, 9])
        accepted = result.accepted(rank_attack.num_honest)
        honest_frac, per_edge = rank_attack.evaluate_accepted(accepted)
        assert honest_frac > 0.95
        assert per_edge < 3.0

    def test_early_termination_matters(self, rank_attack):
        """With many iterations trust equilibrates to stationary and
        the Sybil separation largely vanishes — the reason SybilRank
        terminates early."""
        early = SybilRank(rank_attack.graph).run(seeds=[0])
        late = SybilRank(
            rank_attack.graph, SybilRankConfig(num_iterations=600)
        ).run(seeds=[0])

        def sybil_gap(result):
            honest_mean = result.normalized[: rank_attack.num_honest].mean()
            sybil_mean = result.normalized[rank_attack.num_honest :].mean()
            return honest_mean - sybil_mean

        assert sybil_gap(early) > 3 * abs(sybil_gap(late))

    def test_multiple_seeds_spread_trust(self, rank_attack):
        single = SybilRank(rank_attack.graph).run(seeds=[0])
        multi = SybilRank(rank_attack.graph).run(seeds=list(range(10)))
        assert multi.normalized.std() <= single.normalized.std() + 1e-9

    def test_invalid_seeds(self, rank_attack):
        ranker = SybilRank(rank_attack.graph)
        with pytest.raises(SybilDefenseError):
            ranker.run(seeds=[])
        with pytest.raises(SybilDefenseError):
            ranker.run(seeds=[10**7])

    def test_accepted_bounds(self, rank_attack):
        result = SybilRank(rank_attack.graph).run(seeds=[0])
        with pytest.raises(SybilDefenseError):
            result.accepted(10**7)


class TestSybilDefenderConfig:
    def test_invalid_params(self):
        with pytest.raises(SybilDefenseError):
            SybilDefenderConfig(num_walks=0)
        with pytest.raises(SybilDefenseError):
            SybilDefenderConfig(hit_threshold=0)
        with pytest.raises(SybilDefenseError):
            SybilDefenderConfig(calibration_samples=1)
        with pytest.raises(SybilDefenseError):
            SybilDefenderConfig(tolerance=0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            SybilDefender(Graph.from_edges([(0, 1), (1, 2)]))


class TestSybilDefenderJudgment:
    @pytest.fixture(scope="class")
    def defender_setup(self):
        honest = barabasi_albert(400, 4, seed=1)
        attack = standard_attack(honest, 5, sybil_scale=0.25, seed=1)
        defender = SybilDefender(
            attack.graph, SybilDefenderConfig(num_walks=40, seed=2)
        )
        return attack, defender

    def test_calibration_returns_center_scale(self, defender_setup):
        _, defender = defender_setup
        center, scale = defender.calibrate(0)
        assert center > 0
        assert scale >= 1.0

    def test_honest_nodes_pass(self, defender_setup):
        attack, defender = defender_setup
        rng = np.random.default_rng(3)
        flagged = sum(
            defender.is_sybil(int(s), judge=0)
            for s in rng.choice(attack.num_honest, 15, replace=False)
        )
        assert flagged <= 2

    def test_sybil_nodes_flagged(self, defender_setup):
        attack, defender = defender_setup
        rng = np.random.default_rng(4)
        flagged = sum(
            defender.is_sybil(int(s), judge=0)
            for s in rng.choice(attack.sybil_nodes, 15, replace=False)
        )
        assert flagged >= 10

    def test_accepted_set_composition(self, defender_setup):
        attack, defender = defender_setup
        rng = np.random.default_rng(5)
        candidates = np.concatenate(
            [
                rng.choice(attack.num_honest, 10, replace=False),
                rng.choice(attack.sybil_nodes, 10, replace=False),
            ]
        )
        accepted = defender.accepted_set(0, candidates)
        honest_kept = int(np.count_nonzero(accepted < attack.num_honest))
        sybil_kept = accepted.size - honest_kept
        assert honest_kept >= 8
        assert sybil_kept <= honest_kept

    def test_accepted_set_equals_one_by_one_verdicts(self, defender_setup):
        """The grouped suspect blocks give the verdicts ``is_sybil``
        gives one suspect at a time, blocks spanning 32 suspects too."""
        attack, defender = defender_setup
        rng = np.random.default_rng(6)
        candidates = rng.choice(attack.graph.num_nodes, 40, replace=False)
        accepted = defender.accepted_set(0, candidates)
        expected = [int(c) for c in candidates if not defender.is_sybil(int(c), 0)]
        assert accepted.tolist() == expected

    def test_frequent_hit_count_equals_its_grouped_entry(self, defender_setup):
        attack, defender = defender_setup
        nodes = [0, 7, attack.sybil_nodes[0], 7]
        offsets = [1, 2, 999, 5]
        grouped = defender.frequent_hit_counts(nodes, offsets)
        for node, offset, count in zip(nodes, offsets, grouped):
            assert defender.frequent_hit_count(int(node), offset) == count

    def test_grouped_calibration_keeps_each_sample_seed(self, defender_setup):
        """Calibration draws the judge at offset 1 and peer i at offset
        2 + i in one block; the median of the one-at-a-time samples is
        the same center."""
        _, defender = defender_setup
        center, _ = defender.calibrate(0)
        cfg = defender._config
        from repro.markov import walk_endpoints

        peers = walk_endpoints(
            defender.graph,
            np.zeros(cfg.calibration_samples - 1, dtype=np.int64),
            defender.walk_length,
            seed=cfg.seed + 13,
        )
        samples = [defender.frequent_hit_count(0, 1)] + [
            defender.frequent_hit_count(int(p), 2 + i) for i, p in enumerate(peers)
        ]
        assert center == float(np.median(samples))
