"""Unit tests for ticket distribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, complete_graph, path_graph, star_graph
from repro.graph import Graph
from repro.sybil import GateKeeper, GateKeeperConfig, distribute_tickets
from repro.sybil.tickets import TicketPlan


class TestDistribution:
    def test_star_from_hub(self):
        result = distribute_tickets(star_graph(5), 0, 11)
        # hub keeps 1, each leaf gets 2 tickets
        assert result.node_tickets[0] == 11
        assert np.allclose(result.node_tickets[1:], 2.0)
        assert result.reached.size == 6

    def test_path_consumes_one_per_hop(self):
        result = distribute_tickets(path_graph(5), 0, 4)
        # tickets along the path: 4, 3, 2, 1, 0
        assert np.allclose(result.node_tickets, [4, 3, 2, 1, 0])
        assert result.reached.size == 4

    def test_ticket_conservation_bound(self):
        """Total tickets at any level never exceed what was sent."""
        g = barabasi_albert(200, 3, seed=0)
        result = distribute_tickets(g, 0, 500)
        from repro.graph import bfs_distances

        dist = bfs_distances(g, 0)
        for level in range(1, int(dist.max()) + 1):
            level_total = result.node_tickets[dist == level].sum()
            assert level_total <= 500 + 1e-6

    def test_edge_tickets_flow_forward(self):
        g = barabasi_albert(100, 3, seed=1)
        result = distribute_tickets(g, 0, 300)
        from repro.graph import bfs_distances

        dist = bfs_distances(g, 0)
        for (u, v), amount in result.edge_tickets.items():
            assert dist[v] == dist[u] + 1
            assert amount > 0

    def test_node_tickets_match_incoming_edges(self):
        g = barabasi_albert(100, 3, seed=2)
        result = distribute_tickets(g, 0, 300)
        incoming = np.zeros(g.num_nodes)
        for (_, v), amount in result.edge_tickets.items():
            incoming[v] += amount
        mask = np.arange(g.num_nodes) != 0
        assert np.allclose(result.node_tickets[mask], incoming[mask])

    def test_fewer_tickets_reach_fewer_nodes(self):
        g = barabasi_albert(300, 3, seed=3)
        small = distribute_tickets(g, 0, 10)
        large = distribute_tickets(g, 0, 1000)
        assert small.reached.size < large.reached.size

    def test_below_one_ticket_rejected(self, triangle):
        with pytest.raises(SybilDefenseError):
            distribute_tickets(triangle, 0, 0.5)

    def test_complete_graph_one_level(self):
        result = distribute_tickets(complete_graph(5), 0, 9)
        assert np.allclose(result.node_tickets[1:], 2.0)


class TestAdaptive:
    def test_unreachable_target_raises(self):
        # GateKeeper doubles each distributor's budget toward 0.8 * 5 = 4
        # reached nodes; node 0's component holds only 2
        g = Graph.from_edges([(0, 1)], num_nodes=5)  # mostly disconnected
        gatekeeper = GateKeeper(g, GateKeeperConfig(reach_fraction=0.8))
        with pytest.raises(SybilDefenseError, match="target 4"):
            gatekeeper.warm_distributors([0])

    def test_plan_reuse_matches_fresh_run(self):
        g = barabasi_albert(150, 3, seed=5)
        plan = TicketPlan(g, 0)
        assert np.allclose(
            plan.run(64).node_tickets, distribute_tickets(g, 0, 64).node_tickets
        )


class TestSybilLeakage:
    def test_tickets_into_sybil_region_bounded(self):
        """The defining property: tickets crossing into the Sybil region
        are bounded by what the attack-edge cut carries."""
        from repro.sybil import standard_attack

        honest = barabasi_albert(300, 4, seed=6)
        attack = standard_attack(honest, 5, seed=6)
        result = distribute_tickets(attack.graph, 0, 2 * attack.graph.num_nodes)
        leaked = sum(
            amount
            for (u, v), amount in result.edge_tickets.items()
            if attack.is_sybil(int(v)) and not attack.is_sybil(int(u))
        )
        total = result.tickets_sent
        # 5 attack edges out of ~1200: leakage should be a tiny fraction
        assert leaked < 0.1 * total
