"""Differential, exact-oracle and property tests for the fusion layer.

Three independent oracles pin the loopy-BP engine:

* the **chunk/worker grid** — posteriors must be *bit-identical* for
  every execution plan, because message updates only read the previous
  round's state and chunks write disjoint slices;
* the **sequential oracle** (:func:`repro.oracles.loopy_belief_propagation`)
  — a per-edge scalar replay of the same IEEE operations;
* **brute-force enumeration** — on graphs small enough to sum over all
  2^n labelings, BP must reproduce the exact marginals on trees (it is
  exact there) and approximate them on near-trees.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles
from repro.errors import SybilDefenseError
from repro.generators import (
    barabasi_albert,
    complete_graph,
    path_graph,
    star_graph,
)
from repro.graph.core import Graph
from repro.graph.ops import disjoint_union, with_edges_added
from repro.parallel import execution
from repro.sybil import (
    FusionConfig,
    PriorConfig,
    SybilAttack,
    SybilFrame,
    SybilFuse,
    extract_priors,
    loopy_belief_propagation,
    standard_attack,
    wild_sybil_region,
)
from tests.helpers import relabeled


@pytest.fixture(scope="module")
def attack():
    honest = barabasi_albert(120, 3, seed=0)
    return standard_attack(honest, 5, seed=0)


@pytest.fixture(scope="module")
def priors(attack):
    return extract_priors(attack, 0)


def exact_marginals(
    graph: Graph, priors: np.ndarray, homophily: float
) -> np.ndarray:
    """Brute-force pairwise-MRF marginals by summing all 2^n labelings."""
    n = graph.num_nodes
    potential = np.array(
        [[homophily, 1.0 - homophily], [1.0 - homophily, homophily]]
    )
    phi = np.stack([1.0 - priors, priors], axis=1)
    edges = list(graph.edges())
    marginals = np.zeros((n, 2))
    for assignment in range(2**n):
        labels = [(assignment >> i) & 1 for i in range(n)]
        weight = np.prod([phi[i, labels[i]] for i in range(n)]) * np.prod(
            [potential[labels[u], labels[v]] for u, v in edges]
        )
        for i in range(n):
            marginals[i, labels[i]] += weight
    return marginals / marginals.sum(axis=1, keepdims=True)


def random_tree(num_nodes: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (int(rng.integers(v)), v) for v in range(1, num_nodes)
    ]
    return Graph.from_edges(edges, num_nodes=num_nodes)


class TestDifferential:
    """Bit-identity across execution plans — the engine's core contract."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, None])
    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_chunk_worker_grid_bit_identical(
        self, attack, priors, chunk_size, workers
    ):
        base = loopy_belief_propagation(attack.graph, priors)
        with execution(chunk_size=chunk_size, workers=workers):
            other = loopy_belief_propagation(attack.graph, priors)
        assert np.array_equal(base.beliefs, other.beliefs)
        assert base.rounds == other.rounds
        assert base.delta == other.delta

    def test_sequential_oracle_bit_identical(self, attack, priors):
        batched = loopy_belief_propagation(attack.graph, priors)
        sequential = oracles.loopy_belief_propagation(attack.graph, priors)
        assert np.array_equal(batched.beliefs, sequential.beliefs)
        assert batched.converged == sequential.converged
        assert batched.rounds == sequential.rounds

    def test_sequential_oracle_with_per_edge_potentials(self, attack, priors):
        """SybilFrame's heterogeneous potentials keep the contract."""
        frame = SybilFrame(attack.graph)
        confidences = frame.edge_confidences(priors)
        with execution(chunk_size=13):
            batched = loopy_belief_propagation(
                attack.graph, priors, edge_potentials=confidences
            )
        sequential = oracles.loopy_belief_propagation(
            attack.graph, priors, edge_potentials=confidences
        )
        assert np.array_equal(batched.beliefs, sequential.beliefs)

    def test_defense_results_plan_invariant(self, attack, priors):
        """The full defenses inherit bit-identity from engine + walks."""
        for cls in (SybilFrame, SybilFuse):
            base = cls(attack.graph, FusionConfig(seed=4)).run(0, priors)
            with execution(chunk_size=17, workers=3):
                chunked = cls(attack.graph, FusionConfig(seed=4)).run(0, priors)
            field = "posterior" if cls is SybilFrame else "scores"
            assert np.array_equal(getattr(base, field), getattr(chunked, field))


class TestExactMarginals:
    """BP is exact on trees; the enumeration oracle pins it."""

    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), star_graph(7), random_tree(9, 3), random_tree(10, 11)],
        ids=["path6", "star7", "tree9", "tree10"],
    )
    def test_tree_marginals_exact(self, graph):
        rng = np.random.default_rng(42)
        priors = rng.uniform(0.1, 0.9, graph.num_nodes)
        result = loopy_belief_propagation(
            graph, priors, edge_potentials=0.8, damping=0.0,
            max_rounds=200, tol=1e-14,
        )
        expected = exact_marginals(graph, priors, 0.8)
        assert result.converged
        assert np.allclose(result.beliefs, expected, atol=1e-9)

    def test_near_tree_marginals_close(self):
        """One extra edge makes a single loop: BP stays a good
        approximation (no exactness guarantee, hence the loose bar)."""
        tree = random_tree(8, 5)
        graph = with_edges_added(tree, np.array([[0, 7]]))
        assert graph.num_edges == tree.num_edges + 1
        rng = np.random.default_rng(7)
        priors = rng.uniform(0.2, 0.8, graph.num_nodes)
        result = loopy_belief_propagation(
            graph, priors, edge_potentials=0.75, damping=0.0,
            max_rounds=300, tol=1e-12,
        )
        expected = exact_marginals(graph, priors, 0.75)
        assert result.converged
        assert np.abs(result.beliefs - expected).max() < 0.05

    def test_isolated_nodes_keep_their_priors(self):
        graph = Graph.from_edges([(0, 1)], num_nodes=4)
        priors = np.array([0.3, 0.9, 0.2, 0.7])
        result = loopy_belief_propagation(graph, priors)
        assert result.converged
        assert np.allclose(result.beliefs[2], [0.8, 0.2])
        assert np.allclose(result.beliefs[3], [0.3, 0.7])


@st.composite
def star_attacks(draw):
    """A star honest region (trusted center) under a clique Sybil attack,
    plus the same attack with one extra victim edge."""
    leaves = draw(st.integers(min_value=4, max_value=8))
    sybil_n = draw(st.integers(min_value=3, max_value=6))
    g = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=50))
    noise = draw(st.sampled_from([0.0, 0.1]))
    honest = star_graph(leaves + 1)
    combined = disjoint_union(honest, complete_graph(sybil_n))
    offset = honest.num_nodes
    base = np.array(
        [[1 + i, offset + (i % sybil_n)] for i in range(g)], dtype=np.int64
    )
    extra = np.vstack([base, [[1 + g, offset]]]).astype(np.int64)
    before = SybilAttack(with_edges_added(combined, base), offset, base)
    after = SybilAttack(with_edges_added(combined, extra), offset, extra)
    config = PriorConfig(behavior_noise=noise, seed=seed)
    return before, after, 1 + g, config


@st.composite
def attack_scenarios(draw):
    honest_n = draw(st.integers(min_value=20, max_value=50))
    sybil_n = draw(st.integers(min_value=5, max_value=15))
    g = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=200))
    honest = barabasi_albert(honest_n, 2, seed=seed)
    combined = disjoint_union(honest, wild_sybil_region(sybil_n, seed=seed))
    rng = np.random.default_rng(seed)
    pairs = {
        (int(rng.integers(honest_n)), honest_n + int(rng.integers(sybil_n)))
        for _ in range(g)
    }
    edges = (
        np.array(sorted(pairs), dtype=np.int64)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    return SybilAttack(with_edges_added(combined, edges), honest_n, edges)


class TestPriorProperties:
    @given(attack_scenarios(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_priors_strictly_inside_unit_interval(self, attack, seed):
        priors = extract_priors(attack, 0, PriorConfig(seed=seed))
        assert priors.shape == (attack.graph.num_nodes,)
        assert np.all(priors > 0.0)
        assert np.all(priors < 1.0)

    @given(attack_scenarios())
    @settings(max_examples=30, deadline=None)
    def test_trusted_node_near_certain(self, attack):
        priors = extract_priors(attack, 0)
        assert priors[0] > 1.0 - 1e-6
        assert priors[0] < 1.0

    @given(star_attacks())
    @settings(max_examples=40, deadline=None)
    def test_victim_edge_only_touches_its_endpoints(
        self, scenario
    ):
        """Priors are local: a new victim edge changes the two endpoint
        priors and no other — bit for bit."""
        before, after, victim, config = scenario
        pa = extract_priors(before, 0, config)
        pb = extract_priors(after, 0, config)
        sybil_endpoint = before.num_honest
        untouched = np.ones(pa.size, dtype=bool)
        untouched[[victim, sybil_endpoint]] = False
        assert np.array_equal(pa[untouched], pb[untouched])
        # both endpoints gained exposure: never more honest-looking
        assert pb[victim] <= pa[victim]
        assert pb[sybil_endpoint] <= pa[sybil_endpoint]


class TestPosteriorProperties:
    @given(attack_scenarios(), st.floats(min_value=0.55, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_posteriors_sum_to_one(self, attack, homophily):
        priors = extract_priors(attack, 0)
        result = loopy_belief_propagation(
            attack.graph, priors, edge_potentials=homophily
        )
        assert np.allclose(result.beliefs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(result.beliefs >= 0.0)

    @given(
        st.integers(min_value=5, max_value=12),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_label_permutation_equivariance(self, n, seed):
        """Relabeling the graph and priors relabels the posteriors.

        ``allclose`` rather than bit-identity: the permutation changes
        accumulation order inside the per-node message sums.
        """
        rng = np.random.default_rng(seed)
        graph = barabasi_albert(n, 2, seed=seed)
        priors = rng.uniform(0.1, 0.9, n)
        perm = rng.permutation(n)
        direct = loopy_belief_propagation(graph, priors, edge_potentials=0.8)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        permuted = loopy_belief_propagation(
            relabeled(graph, perm), priors[inverse], edge_potentials=0.8
        )
        assert direct.converged == permuted.converged
        assert np.allclose(direct.beliefs, permuted.beliefs[perm], atol=1e-9)

    @given(star_attacks())
    @settings(max_examples=40, deadline=None)
    def test_untouched_honest_nodes_shielded(self, scenario):
        """Adding a victim edge never (materially) raises the Sybil
        posterior of honest nodes with no victim edges of their own: on
        the star fixture they touch only the trusted center, whose
        near-certain prior pins its outgoing messages."""
        before, after, victim, config = scenario
        pa = extract_priors(before, 0, config)
        pb = extract_priors(after, 0, config)
        ra = loopy_belief_propagation(before.graph, pa, edge_potentials=0.8)
        rb = loopy_belief_propagation(after.graph, pb, edge_potentials=0.8)
        untouched = [
            v
            for v in range(1, before.num_honest)
            if v != victim and v not in set(before.attack_edges[:, 0].tolist())
        ]
        for v in untouched:
            assert rb.beliefs[v, 0] <= ra.beliefs[v, 0] + 1e-6

    @given(star_attacks())
    @settings(max_examples=40, deadline=None)
    def test_new_victim_looks_no_more_honest(self, scenario):
        """Only sound for noise-free observations: a flipped Sybil
        observation can give the attack-edge endpoint an honest-leaning
        prior, and homophily then correctly pulls the new victim
        honest-ward."""
        before, after, victim, config = scenario
        config = replace(config, behavior_noise=0.0)
        pa = extract_priors(before, 0, config)
        pb = extract_priors(after, 0, config)
        ra = loopy_belief_propagation(before.graph, pa, edge_potentials=0.8)
        rb = loopy_belief_propagation(after.graph, pb, edge_potentials=0.8)
        assert rb.beliefs[victim, 0] >= ra.beliefs[victim, 0] - 1e-6


class TestConvergenceHonesty:
    def test_truncated_run_reports_nonconvergence(self):
        """A run cut off by max_rounds must not claim convergence."""
        graph = complete_graph(8)
        rng = np.random.default_rng(0)
        priors = rng.uniform(0.05, 0.95, 8)
        result = loopy_belief_propagation(
            graph, priors, edge_potentials=0.95, damping=0.0,
            max_rounds=1, tol=1e-12,
        )
        assert not result.converged
        assert result.rounds == 1
        assert result.delta > 1e-12

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_flag_matches_delta(self, n, seed, max_rounds):
        rng = np.random.default_rng(seed)
        graph = barabasi_albert(n, 2, seed=seed)
        priors = rng.uniform(0.1, 0.9, n)
        tol = 1e-8
        result = loopy_belief_propagation(
            graph, priors, max_rounds=max_rounds, tol=tol
        )
        if result.converged:
            assert result.delta <= tol
        else:
            assert result.rounds == max_rounds
            assert result.delta > tol

    def test_zero_rounds_only_normalizes_priors(self):
        graph = path_graph(4)
        priors = np.array([0.2, 0.4, 0.6, 0.8])
        result = loopy_belief_propagation(graph, priors, max_rounds=0)
        assert result.converged  # nothing left to move
        assert result.rounds == 0
        assert np.allclose(result.beliefs[:, 1], priors)


class TestValidation:
    def test_rejects_certain_priors(self, attack):
        bad = np.full(attack.graph.num_nodes, 0.5)
        bad[3] = 1.0
        with pytest.raises(SybilDefenseError):
            loopy_belief_propagation(attack.graph, bad)

    def test_rejects_weak_or_asymmetric_potentials(self, attack, priors):
        with pytest.raises(SybilDefenseError):
            loopy_belief_propagation(attack.graph, priors, edge_potentials=0.4)
        lopsided = np.full(attack.graph.indices.size, 0.8)
        lopsided[0] = 0.9
        with pytest.raises(SybilDefenseError):
            loopy_belief_propagation(
                attack.graph, priors, edge_potentials=lopsided
            )

    def test_rejects_unknown_strategy(self, attack, priors):
        # the oracle lives in repro.oracles; neither the engine nor the
        # defenses' config takes a strategy or executor knob
        with pytest.raises(TypeError):
            loopy_belief_propagation(attack.graph, priors, strategy="sequential")
        with pytest.raises(TypeError):
            FusionConfig(executor="process")

    def test_fusion_config_validation(self):
        with pytest.raises(SybilDefenseError):
            FusionConfig(homophily=0.5)
        with pytest.raises(SybilDefenseError):
            FusionConfig(homophily=0.95, confidence_range=0.1)
        with pytest.raises(SybilDefenseError):
            PriorConfig(floor=0.6)

    def test_wild_region_shape(self):
        region = wild_sybil_region(40, extra_edge_fraction=0.0, seed=9)
        # a pure random recursive tree: connected with exactly n-1 edges
        assert region.num_nodes == 40
        assert region.num_edges == 39
        from repro.graph import bfs_distances

        assert np.all(bfs_distances(region, 0) >= 0)
