"""Robustness tests: degenerate and hostile inputs across the API.

Every measurement should either handle or cleanly reject disconnected
graphs, dangling nodes, stars, single edges and near-empty inputs — the
shapes a user's real edge-list export actually contains.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cores import core_structure, coreness_ecdf
from repro.errors import GraphError, ReproError
from repro.expansion import envelope_expansion, source_expansion
from repro.generators import barabasi_albert
from repro.graph import (
    Graph,
    betweenness_centrality,
    largest_connected_component,
)
from repro.analysis.experiments import betweenness_distributions
from repro.anonymity import walk_anonymity_profile
from repro.digraph import directed_mixing_profile
from repro.graph.metrics import average_clustering
from repro.markov import delta_block, evolve_block, walk_block
from repro.mixing import (
    is_fast_mixing,
    modulated_mixing_profile,
    sampled_mixing_profile,
    slem,
    spectral_summary,
)
from repro.sybil import defense_scores, evaluate_defense, evaluate_gatekeeper
from tests.helpers import random_digraph


@pytest.fixture
def disconnected():
    """Two components plus two isolated nodes."""
    return Graph.from_edges([(0, 1), (1, 2), (3, 4)], num_nodes=7)


class TestDisconnectedGraphs:
    def test_mixing_profile_never_converges(self, disconnected):
        """A reducible chain cannot reach the global stationary
        distribution; the profile reports that honestly (TVD floor)."""
        profile = sampled_mixing_profile(
            disconnected, walk_lengths=[1, 50], sources=[0], seed=0
        )
        assert profile.mean[-1] > 0.1

    def test_slem_rejects_with_diagnosis(self, disconnected):
        """The repeated eigenvalue 1 used to surface as an opaque
        numerical result (dense path) or Lanczos failure (sparse path);
        the guard now names the problem and the remedy."""
        with pytest.raises(GraphError, match="disconnected"):
            slem(disconnected)

    def test_slem_of_largest_component_works(self, disconnected):
        component, _ = largest_connected_component(disconnected)
        # the component is the bipartite path 0-1-2: a periodic chain
        assert slem(component) == 1.0

    def test_core_structure_counts_components(self, disconnected):
        structure = core_structure(disconnected)
        # the 1-core is the two non-trivial components
        assert structure.num_cores[1] == 2

    def test_source_expansion_sees_only_own_component(self, disconnected):
        result = source_expansion(disconnected, 3)
        assert result.level_sizes.sum() == 2  # component {3, 4}

    def test_walks_stay_in_component(self, disconnected):
        walk = walk_block(disconnected, [3], 40, seed=0)
        assert set(walk.ravel().tolist()) <= {3, 4}

    def test_lcc_extraction_is_the_fix(self, disconnected):
        lcc, ids = largest_connected_component(disconnected)
        assert lcc.num_nodes == 3
        assert slem(lcc) == 1.0  # the bipartite path 0-1-2


class TestIsolatedNodes:
    def test_transition_operator_isolated_absorbing(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        dist = evolve_block(g, delta_block(3, [2]), 10)[:, 0]
        assert dist[2] == 1.0

    def test_coreness_ecdf_includes_zero(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        values, fractions = coreness_ecdf(g)
        assert values[0] == 0
        assert fractions[-1] == pytest.approx(1.0)

    def test_envelope_expansion_from_isolated_source(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=4)
        meas = envelope_expansion(g, sources=[3])
        assert meas.set_sizes.size == 0  # no frontier to measure


class TestExtremeTopologies:
    def test_single_edge_graph(self):
        g = Graph.from_edges([(0, 1)])
        assert slem(g) == pytest.approx(1.0)  # bipartite, period 2
        profile = sampled_mixing_profile(g, walk_lengths=[2], sources=[0], lazy=True)
        assert profile.tvd.shape == (1, 1)

    def test_star_measurements(self):
        from repro.generators import star_graph

        g = star_graph(30)
        structure = core_structure(g)
        assert structure.degeneracy == 1
        meas = envelope_expansion(g)
        # hub envelope: |S|=1, |N(S)|=30; leaf: two levels
        assert meas.neighbor_counts.max() == 30

    def test_two_cliques_chained_through_weak_node(self):
        k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        k4b = [(i + 4, j + 4) for i, j in k4a]
        chain = [(3, 8), (8, 4)]  # node 8 has degree 2 < 3
        g = Graph.from_edges(k4a + k4b + chain)
        structure = core_structure(g)
        assert structure.num_cores[2] == 1  # chain node survives k=2
        assert structure.num_cores[3] == 2  # pruned at k=3: cliques split

    def test_very_dense_graph(self):
        from repro.generators import complete_graph

        g = complete_graph(40)
        profile = sampled_mixing_profile(g, walk_lengths=[1, 2], num_sources=5)
        assert profile.mean[-1] < 0.05


class TestFloatSourceIds:
    """Graph-layer entry points check node ids as the engines do: a cast
    would silently measure nodes 0 and 1 for ``[0.7, 1.9]``."""

    @pytest.mark.parametrize(
        "measure",
        [
            lambda g, s: sampled_mixing_profile(g, walk_lengths=[1], sources=s),
            lambda g, s: envelope_expansion(g, sources=s),
            lambda g, s: betweenness_centrality(g, sources=s),
        ],
        ids=["mixing", "expansion", "betweenness"],
    )
    def test_float_ids_rejected(self, measure):
        g = barabasi_albert(200, 3, seed=1)
        with pytest.raises(GraphError, match="integer dtype, got float64"):
            measure(g, [0.7, 1.9])


def _suspect_sample(count: int) -> int:
    """Map the counts 0 and -1 to suspect samples 1 and -1, both below
    the two suspects (one honest, one Sybil) a sample needs."""
    return 2 * count + 1


class TestSampleCounts:
    """Every sample count is checked before its draw: a count below 1
    is one library error, not numpy's ``ValueError``, an ``IndexError``
    or a profile whose mean is NaN."""

    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert(60, 3, seed=1)

    @pytest.fixture(scope="class")
    def attack(self, graph):
        from repro.sybil import standard_attack

        return standard_attack(graph, 3, seed=0)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "measure",
        [
            lambda g, a, k: sampled_mixing_profile(g, [1, 2], num_sources=k),
            lambda g, a, k: is_fast_mixing(g, num_sources=k),
            lambda g, a, k: spectral_summary(g, fast_sources=k, seed=0),
            lambda g, a, k: modulated_mixing_profile(g, 0.5, [1], num_sources=k),
            lambda g, a, k: envelope_expansion(g, num_sources=k),
            lambda g, a, k: walk_anonymity_profile(g, [1], num_senders=k),
            lambda g, a, k: directed_mixing_profile(
                random_digraph(30, 120, seed=2), [1], num_sources=k
            ),
            lambda g, a, k: average_clustering(g, sample=k),
            lambda g, a, k: betweenness_distributions(
                ["wiki_vote"], num_sources=k, scale=0.05
            ),
            lambda g, a, k: evaluate_gatekeeper(a, [0.2], num_controllers=k),
            lambda g, a, k: evaluate_defense(
                a, "ranking", suspect_sample=_suspect_sample(k)
            ),
            lambda g, a, k: defense_scores(
                a, "ranking", suspect_sample=_suspect_sample(k)
            ),
        ],
        ids=[
            "sampled_mixing_profile",
            "is_fast_mixing",
            "spectral_summary",
            "modulated_mixing_profile",
            "envelope_expansion",
            "walk_anonymity_profile",
            "directed_mixing_profile",
            "average_clustering",
            "betweenness_distributions",
            "evaluate_gatekeeper",
            "evaluate_defense",
            "defense_scores",
        ],
    )
    def test_count_below_minimum_rejected(self, graph, attack, measure, count):
        with pytest.raises(ReproError, match="at least"):
            measure(graph, attack, count)


class TestSeedDeterminism:
    """Identical seeds must give identical numbers everywhere."""

    def test_mixing_profile_deterministic(self, ba_small):
        a = sampled_mixing_profile(ba_small, walk_lengths=[3], num_sources=8, seed=5)
        b = sampled_mixing_profile(ba_small, walk_lengths=[3], num_sources=8, seed=5)
        assert np.array_equal(a.tvd, b.tvd)
        assert np.array_equal(a.sources, b.sources)

    def test_expansion_deterministic(self, ba_small):
        a = envelope_expansion(ba_small, num_sources=6, seed=6)
        b = envelope_expansion(ba_small, num_sources=6, seed=6)
        assert np.array_equal(a.set_sizes, b.set_sizes)

    def test_defense_deterministic(self, ba_small):
        from repro.sybil import GateKeeper, GateKeeperConfig, standard_attack

        attack = standard_attack(ba_small, 4, seed=7)
        cfg = GateKeeperConfig(num_distributors=10, seed=7)
        a = GateKeeper(attack.graph, cfg).run(0)
        b = GateKeeper(attack.graph, cfg).run(0)
        assert np.array_equal(a.admitted, b.admitted)
