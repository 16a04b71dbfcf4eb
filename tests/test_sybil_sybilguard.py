"""Unit tests for SybilGuard."""

from __future__ import annotations

import numpy as np
import pytest

from repro import oracles
from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.graph import Graph
from repro.sybil import SybilGuard, SybilGuardConfig, standard_attack


@pytest.fixture(scope="module")
def guard_setup():
    honest = barabasi_albert(300, 4, seed=0)
    attack = standard_attack(honest, 3, sybil_scale=0.3, seed=0)
    guard = SybilGuard(attack.graph, SybilGuardConfig(seed=1))
    return attack, guard


class TestConfig:
    def test_default_route_length_scales(self):
        g = barabasi_albert(200, 3, seed=2)
        guard = SybilGuard(g)
        expected = int(np.ceil(2.0 * np.sqrt(200 * np.log(200))))
        assert guard.route_length == expected

    def test_explicit_route_length(self):
        g = barabasi_albert(100, 3, seed=3)
        guard = SybilGuard(g, SybilGuardConfig(route_length=12))
        assert guard.route_length == 12

    def test_invalid_threshold(self):
        with pytest.raises(SybilDefenseError):
            SybilGuardConfig(intersection_threshold=0.0)

    def test_invalid_route_length(self):
        with pytest.raises(SybilDefenseError):
            SybilGuardConfig(route_length=0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            SybilGuard(Graph.from_edges([(0, 1)]))


class TestRoutes:
    def test_one_route_per_edge(self, guard_setup):
        _, guard = guard_setup
        node = 7
        routes = guard.routes(node)
        assert len(routes) == guard.graph.degree(node)

    def test_routes_cached(self, guard_setup):
        """Routes are rows of the block built with the defense, not
        recomputed per call."""
        _, guard = guard_setup
        first, second = guard.routes(5), guard.routes(5)
        assert all(np.shares_memory(a, b) for a, b in zip(first, second))

    def test_route_length(self, guard_setup):
        _, guard = guard_setup
        for route in guard.routes(3):
            assert route.size == guard.route_length + 1


class TestVerification:
    def test_self_verification(self, guard_setup):
        _, guard = guard_setup
        assert guard.verify(4, 4)

    def test_honest_pairs_accepted(self, guard_setup):
        attack, guard = guard_setup
        rng = np.random.default_rng(5)
        verifier = 0
        suspects = rng.choice(attack.num_honest, size=25, replace=False)
        accepted = sum(guard.verify(verifier, int(s)) for s in suspects)
        assert accepted >= 20  # long routes in the honest region intersect

    def test_sybil_acceptance_lower_than_honest(self, guard_setup):
        attack, guard = guard_setup
        rng = np.random.default_rng(6)
        verifier = 0
        honest_sample = rng.choice(attack.num_honest, size=25, replace=False)
        sybil_sample = rng.choice(attack.sybil_nodes, size=25, replace=False)
        honest_rate = sum(guard.verify(verifier, int(s)) for s in honest_sample)
        sybil_rate = sum(guard.verify(verifier, int(s)) for s in sybil_sample)
        assert honest_rate > sybil_rate

    def test_accepted_set_subset_of_candidates(self, guard_setup):
        _, guard = guard_setup
        candidates = [0, 1, 2, 3, 4]
        accepted = guard.accepted_set(0, candidates)
        assert set(accepted.tolist()) <= set(candidates)


class TestRegistry:
    def test_registered_verification_agrees_for_honest_nodes(self, guard_setup):
        """On the attacked graph, verdicts match the node-set reference,
        which intersects the routes each suspect registers."""
        attack, guard = guard_setup
        routes = oracles.sybilguard_routes(guard)
        rng = np.random.default_rng(9)
        for suspect in rng.choice(attack.num_honest, size=8, replace=False):
            assert guard.verify(0, int(suspect)) == oracles.sybilguard_verify(
                guard, 0, int(suspect), routes
            )
