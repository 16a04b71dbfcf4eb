"""The level-sliced ticket kernel against its level-mask oracle twins.

:class:`repro.sybil.TicketPlan` runs one NumPy pass per BFS level over
level-grouped forward edges; :func:`repro.oracles.distribute_tickets`
replays the full-graph level masks one level at a time and builds the
edge dict one entry per edge.  Both must agree bit for bit, dict order
included, and so must everything built on them: GateKeeper's adaptive
doubling (its reach counts and reach sets) and SumUp's flow graph.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_flow

from repro import oracles
from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, complete_graph, path_graph, star_graph
from repro.graph import Graph
from repro.sybil import (
    GateKeeper,
    GateKeeperConfig,
    SumUp,
    SumUpConfig,
    TicketPlan,
    distribute_tickets,
    standard_attack,
    ticket_plans,
)

BUDGETS = [1, 2, 7.5, 64, 2.0**20]


def _graphs() -> dict[str, Graph]:
    honest = barabasi_albert(150, 3, seed=11)
    return {
        "path": path_graph(9),
        "star": star_graph(7),
        "complete": complete_graph(6),
        "ba": barabasi_albert(120, 3, seed=4),
        "disconnected": Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (1, 3), (5, 6), (6, 7)], num_nodes=9
        ),
        "attack-powerlaw": standard_attack(honest, 6, seed=1).graph,
        "attack-wild": standard_attack(honest, 6, seed=1, topology="wild").graph,
    }


GRAPHS = _graphs()


def _sources(graph: Graph) -> list[int]:
    n = graph.num_nodes
    return sorted({0, 1, n // 2, n - 1})


def _assert_same(got, want) -> None:
    assert got.source == want.source
    assert type(got.tickets_sent) is float
    assert got.tickets_sent == want.tickets_sent
    assert got.node_tickets.dtype == want.node_tickets.dtype
    assert got.node_tickets.tobytes() == want.node_tickets.tobytes()
    assert got.reached.dtype == want.reached.dtype
    assert np.array_equal(got.reached, want.reached)
    assert got.edge_tickets == want.edge_tickets
    assert list(got.edge_tickets) == list(want.edge_tickets)
    for (u, v), share in got.edge_tickets.items():
        assert type(u) is int and type(v) is int and type(share) is float


def _oracle_adaptive(graph, source, target, initial=2.0, max_doublings=40):
    budget = max(initial, 1.0)
    for _ in range(max_doublings):
        result = oracles.distribute_tickets(graph, source, budget)
        if result.reached.size >= target:
            return result
        budget *= 2.0
    raise AssertionError("the oracle never reached the target")


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kernel_matches_oracle(name, budget):
    graph = GRAPHS[name]
    sources = _sources(graph)
    for source, block_plan in zip(sources, ticket_plans(graph, sources)):
        want = oracles.distribute_tickets(graph, source, budget)
        _assert_same(distribute_tickets(graph, source, budget), want)
        _assert_same(block_plan.run(budget), want)


def test_adaptive_unreachable_target_still_raises():
    # 0.6 of the 9 nodes is a target of 5; node 0's component holds 4
    graph = GRAPHS["disconnected"]
    gatekeeper = GateKeeper(graph, GateKeeperConfig(reach_fraction=0.6))
    with pytest.raises(SybilDefenseError, match="reached only 4 nodes"):
        gatekeeper.warm_distributors([0])


BA128 = barabasi_albert(128, 3, seed=4)


@pytest.mark.parametrize(
    "graph, reach_fraction, target",
    [
        pytest.param(BA128, 0.5, 64, id="target-power-of-two"),
        pytest.param(BA128, 65 / 128, 65, id="target-power-of-two-plus-one"),
        pytest.param(
            GRAPHS["attack-wild"], 1.0, GRAPHS["attack-wild"].num_nodes,
            id="reach-fraction-one",
        ),
    ],
)
def test_doubling_starts_at_the_target(graph, reach_fraction, target, monkeypatch):
    """Each reach set is the one a doubling from 2 finds, and no kernel
    run spends a budget below the target, which must fail."""
    budgets = []
    kernel = TicketPlan._tickets

    def spy(plan, num_tickets):
        budgets.append(num_tickets)
        return kernel(plan, num_tickets)

    monkeypatch.setattr(TicketPlan, "_tickets", spy)
    config = GateKeeperConfig(num_distributors=15, reach_fraction=reach_fraction)
    gatekeeper = GateKeeper(graph, config)
    result = gatekeeper.run(0)
    monkeypatch.undo()
    for distributor in np.unique(result.distributors):
        want = _oracle_adaptive(graph, int(distributor), target)
        assert want.tickets_sent >= target
        got = gatekeeper._reach[int(distributor)]
        assert got.tobytes() == want.reached.tobytes()
    assert min(budgets) == 2.0 ** (target - 1).bit_length() >= target


# a key of 8 bits holds levels up to 254 with the unreachable mark 255
@pytest.mark.parametrize("length", [255, 256, 300])
def test_deep_plans_keep_a_wide_level_key(length):
    """Paths as deep as or deeper than a one-byte level key, beside an
    unreachable edge, match the oracle from an end and from the middle."""
    graph = Graph.from_edges(
        [(i, i + 1) for i in range(length - 1)] + [(length, length + 1)]
    )
    sources = [0, length // 2]
    plans = ticket_plans(graph, sources)
    assert int(plans[0].distances.max()) == length - 1
    for source, plan in zip(sources, plans):
        for budget in (2.0**9, 2.0**20):
            want = oracles.distribute_tickets(graph, source, budget)
            _assert_same(plan.run(budget), want)
            _assert_same(distribute_tickets(graph, source, budget), want)


@pytest.mark.parametrize("name", ["attack-powerlaw", "attack-wild"])
def test_gatekeeper_reach_counts_match_oracle(name):
    graph = GRAPHS[name]
    gatekeeper = GateKeeper(graph, GateKeeperConfig(num_distributors=15))
    target = max(2, int(0.5 * graph.num_nodes))
    for controller in (0, 3, 0):
        result = gatekeeper.run(controller)
        expected = np.zeros(graph.num_nodes, dtype=np.int64)
        for distributor in result.distributors:
            reached = _oracle_adaptive(graph, int(distributor), target).reached
            expected[reached] += 1
        assert result.reach_counts.dtype == np.int64
        assert np.array_equal(result.reach_counts, expected)


@pytest.mark.parametrize("capacity", [None, 1, 40])
@pytest.mark.parametrize(
    "name", ["star", "ba", "disconnected", "attack-powerlaw", "attack-wild"]
)
def test_sumup_flow_graph_matches_oracle(name, capacity):
    """One instance serves every collector, and a revisited collector
    (c0, c1, ..., c0) reads its kept capacity vector with fresh voters."""
    graph = GRAPHS[name]
    vote = SumUp(graph, SumUpConfig(vote_capacity=capacity))
    rng = np.random.default_rng(5)
    sources = _sources(graph)
    kept = {}
    for collector in [*sources, sources[0]]:
        voters = np.unique(rng.choice(graph.num_nodes, size=graph.num_nodes // 2))
        voters = voters[voters != collector]
        got, got_source = vote._flow_graph(collector, voters)
        want, want_source = oracles.sumup_flow_graph(vote, collector, voters)
        assert got_source == want_source == graph.num_nodes
        for field in ("data", "indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        flow = maximum_flow(want, want_source, collector).flow_value
        assert vote.collect(collector, voters).collected_votes == flow
        capacity = vote._capacity(collector)
        assert not capacity.flags.writeable
        assert kept.setdefault(collector, capacity) is capacity


@given(
    n=st.integers(min_value=1, max_value=24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60
    ),
    source=st.integers(0, 23),
    budget=st.one_of(
        st.sampled_from(BUDGETS),
        st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    ),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_oracle_on_random_graphs(n, edges, source, budget):
    graph = Graph.from_edges([(u % n, v % n) for u, v in edges], num_nodes=n)
    source %= n
    _assert_same(
        distribute_tickets(graph, source, budget),
        oracles.distribute_tickets(graph, source, budget),
    )


SMALL = barabasi_albert(40, 2, seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: distribute_tickets(SMALL, 0, math.nan),
            "num_tickets",
            id="num_tickets=nan",
        ),
        pytest.param(
            lambda: distribute_tickets(SMALL, 0, math.inf),
            "num_tickets",
            id="num_tickets=inf",
        ),
        pytest.param(
            lambda: TicketPlan(SMALL, 0).run(math.nan),
            "num_tickets",
            id="plan-run-nan",
        ),
        pytest.param(
            lambda: GateKeeperConfig(walk_length_factor=math.nan),
            "walk_length_factor",
            id="walk_length_factor=nan",
        ),
        pytest.param(
            lambda: GateKeeperConfig(walk_length_factor=math.inf),
            "walk_length_factor",
            id="walk_length_factor=inf",
        ),
        pytest.param(
            lambda: GateKeeperConfig(walk_length_factor=-1.0),
            "walk_length_factor",
            id="walk_length_factor=-1",
        ),
        pytest.param(
            lambda: GateKeeperConfig(walk_length_factor=0.0),
            "walk_length_factor",
            id="walk_length_factor=0",
        ),
        pytest.param(
            lambda: SumUpConfig(vote_capacity=math.nan),
            "vote_capacity",
            id="vote_capacity=nan",
        ),
        pytest.param(
            lambda: SumUpConfig(vote_capacity=2**31 - 1),
            "vote_capacity",
            id="vote_capacity=2**31-1",
        ),
    ],
)
def test_bad_ticket_and_gatekeeper_inputs_fail_fast(call, message):
    with pytest.raises(SybilDefenseError, match=message):
        call()
