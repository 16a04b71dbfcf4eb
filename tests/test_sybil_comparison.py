"""Unit tests for the uniform cross-defense harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.sybil import (
    DEFENSE_NAMES,
    FUSION_DEFENSE_NAMES,
    STRUCTURE_DEFENSE_NAMES,
    PriorConfig,
    compare_defenses,
    defense_scores,
    evaluate_defense,
    inject_sybils,
    roc_auc,
    standard_attack,
    wild_sybil_region,
)
from repro.sybil.comparison import _run_defense


@pytest.fixture(scope="module")
def attack():
    honest = barabasi_albert(250, 4, seed=0)
    return standard_attack(honest, 5, seed=0)


class TestEvaluateDefense:
    @pytest.mark.parametrize("defense", DEFENSE_NAMES)
    def test_every_defense_runs(self, attack, defense):
        outcome = evaluate_defense(
            attack, defense, suspect_sample=60, dataset="ba", seed=1
        )
        assert outcome.defense == defense
        assert 0.0 <= outcome.honest_acceptance <= 1.0
        assert outcome.sybils_per_attack_edge >= 0.0

    def test_unknown_defense_rejected(self, attack):
        with pytest.raises(SybilDefenseError):
            evaluate_defense(attack, "sybilshield")

    def test_sybil_verifier_rejected(self, attack):
        with pytest.raises(SybilDefenseError):
            evaluate_defense(attack, "ranking", verifier=attack.num_honest)


class TestCompareDefenses:
    def test_all_defenses_separate_the_attack(self, attack):
        """The Viswanath observation in miniature: every defense gives
        honest nodes a better deal than the Sybil region."""
        outcomes = compare_defenses(attack, suspect_sample=60, seed=2)
        assert len(outcomes) == len(DEFENSE_NAMES)
        for outcome in outcomes:
            max_per_edge = attack.num_sybil / attack.num_attack_edges
            assert outcome.honest_acceptance > 0.5, outcome.defense
            # <= not <: SybilDefender's revisit statistic degenerates on
            # this tiny, well-leaked scenario (its documented weak
            # regime) and accepts the whole sample; every other defense
            # stays strictly below the pool
            assert outcome.sybils_per_attack_edge <= max_per_edge, outcome.defense
        strict = [o for o in outcomes if o.defense != "sybildefender"]
        assert all(
            o.sybils_per_attack_edge
            < attack.num_sybil / attack.num_attack_edges
            for o in strict
        )

    def test_subset_of_defenses(self, attack):
        outcomes = compare_defenses(
            attack, defenses=("ranking", "sumup"), suspect_sample=40, seed=3
        )
        assert [o.defense for o in outcomes] == ["ranking", "sumup"]

    def test_registry_covers_both_families(self):
        assert set(DEFENSE_NAMES) == set(STRUCTURE_DEFENSE_NAMES) | set(
            FUSION_DEFENSE_NAMES
        )
        assert set(FUSION_DEFENSE_NAMES) == {"sybilframe", "sybilfuse"}


class TestOneRunTwoViews:
    @pytest.mark.parametrize("defense", DEFENSE_NAMES)
    def test_views_equal_the_public_wrappers(self, attack, defense):
        """One run of a defense yields exactly what ``defense_scores``
        and ``evaluate_defense`` each report."""
        run = _run_defense(attack, defense, suspect_sample=60, seed=1)
        views = run.scores()
        scores = defense_scores(attack, defense, suspect_sample=60, seed=1)
        assert np.array_equal(views.nodes, scores.nodes)
        assert np.array_equal(views.scores, scores.scores)
        assert views.auc == scores.auc
        assert run.outcome("ba") == evaluate_defense(
            attack, defense, suspect_sample=60, dataset="ba", seed=1
        )


class TestTopologyCoverage:
    """Every defense runs under both Sybil-region shapes (the shared
    parametrized fixture covers powerlaw and wild)."""

    @pytest.mark.parametrize("defense", DEFENSE_NAMES)
    def test_every_defense_runs_on_each_topology(
        self, topology_attack, defense
    ):
        outcome = evaluate_defense(
            topology_attack, defense, suspect_sample=40, seed=4
        )
        assert 0.0 <= outcome.honest_acceptance <= 1.0
        scores = defense_scores(
            topology_attack, defense, suspect_sample=40, seed=4
        )
        assert scores.nodes.size == scores.scores.size
        assert 0.0 <= scores.auc <= 1.0


class TestZeroAttackEdgeMetamorphic:
    """With zero attack edges the Sybil region is disconnected from the
    honest region: no defense has any excuse to rank a Sybil above an
    honest node.  Score ties are fine (ids break them honest-first),
    but a strictly higher-scoring Sybil is a bug."""

    @pytest.fixture(scope="class")
    def disconnected(self):
        honest = barabasi_albert(150, 4, seed=1)
        return inject_sybils(honest, wild_sybil_region(30, seed=1), 0, seed=1)

    @pytest.mark.parametrize("defense", DEFENSE_NAMES)
    def test_all_honest_rank_above_all_sybils(self, disconnected, defense):
        assert disconnected.num_attack_edges == 0
        scores = defense_scores(
            disconnected,
            defense,
            suspect_sample=60,
            seed=5,
            prior_config=PriorConfig(behavior_noise=0.0, seed=5),
        )
        honest_mask = scores.nodes < disconnected.num_honest
        honest_scores = scores.scores[honest_mask]
        sybil_scores = scores.scores[~honest_mask]
        assert honest_mask.any() and (~honest_mask).any()
        # weak inequality + honest-first id tiebreak == honest-first ranking
        assert honest_scores.min() >= sybil_scores.max(), defense
        assert honest_scores.mean() > sybil_scores.mean(), defense
        assert scores.auc >= 0.5


class TestRocAuc:
    def test_known_auc_with_ties(self):
        """The pinned midrank fixture: the tied middle pair straddles the
        label boundary, worth exactly half a win -> AUC 0.875, where the
        old id-tiebreak accounting would have claimed 1.0."""
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        is_sybil = np.array([False, False, True, True])
        assert roc_auc(scores, is_sybil) == pytest.approx(0.875)

    def test_perfect_and_reversed_separation(self):
        labels = np.array([False, False, True, True])
        assert roc_auc(np.array([4.0, 3.0, 2.0, 1.0]), labels) == 1.0
        assert roc_auc(np.array([1.0, 2.0, 3.0, 4.0]), labels) == 0.0

    def test_all_tied_scores_give_half(self):
        """Constant scores carry no information; id-order tie-breaking
        used to report perfect separation here."""
        scores = np.zeros(10)
        labels = np.arange(10) >= 6
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(SybilDefenseError):
            roc_auc(np.array([1.0, 2.0]), np.array([False, False]))
        with pytest.raises(SybilDefenseError):
            roc_auc(np.array([1.0]), np.array([True]))


class TestPrivacyFrontierTopologies:
    """The privacy-utility sweep holds under both Sybil-region shapes
    and at every shared perturbation depth."""

    def test_frontier_runs_on_each_topology(self, sybil_topology):
        from repro.privacy import privacy_utility_frontier

        honest = barabasi_albert(120, 3, seed=2)
        frontier = privacy_utility_frontier(
            honest,
            ts=(0, 3),
            topology=sybil_topology,
            defenses=("sybilrank", "sumup"),
            suspect_sample=40,
            num_sources=10,
            seed=2,
            target="ba120",
        )
        assert frontier.topology == sybil_topology
        assert frontier.baseline.edge_overlap == 1.0
        assert frontier.privacy[1] > 0.0
        assert frontier.mean_aucs[1] <= frontier.mean_aucs[0] + 0.02
        for outcome in frontier.points[1].outcomes:
            assert 0.0 <= outcome.honest_acceptance <= 1.0

    def test_perturbed_attack_still_scores_every_level(
        self, topology_attack, perturbation_level
    ):
        from repro.privacy import perturb_links
        from repro.sybil.attack import SybilAttack

        perturbed = SybilAttack(
            perturb_links(topology_attack.graph, perturbation_level, seed=4),
            topology_attack.num_honest,
            topology_attack.attack_edges,
        )
        scores = defense_scores(perturbed, "sybilrank", suspect_sample=40, seed=4)
        assert 0.0 <= scores.auc <= 1.0
