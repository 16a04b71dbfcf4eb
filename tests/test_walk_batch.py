"""Equivalence suite for the vectorized Monte-Carlo walk engine.

The engine's contract is *bit-identity*: for every mode, the result
must not depend on the ``chunk_size``, ``workers`` or executor of the
ambient :func:`repro.parallel.execution` scope, nor on how walks are
grouped under seeds — a walk's uniforms are a pure function of its
seed, its number within its seed group and the step, so execution
layout cannot matter.  This suite pins that grid, grouped seeds, the
per-walk oracles of :mod:`repro.oracles`,
structural walk properties on adversarial graph shapes (isolated
nodes, degree-1 chains, disconnected components), the statistical
agreement of the Monte-Carlo escape measurement with the exact
absorbing-chain solve, and the telemetry contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles, telemetry
from repro.errors import GraphError
from repro.generators import barabasi_albert, complete_graph
from repro.graph import Graph
from repro.markov import (
    NO_HIT,
    walk_batch,
    walk_block,
    walk_endpoints,
    walk_first_hits,
    walk_visit_counts,
)
from repro.parallel import execution
from repro.sybil.attack import inject_sybils
from repro.sybil.escape import exact_escape_probability, measure_escape

GRID = [
    {"chunk_size": 1, "workers": 1},
    {"chunk_size": 1, "workers": 4},
    {"chunk_size": 7, "workers": 1},
    {"chunk_size": 7, "workers": 4},
    {"chunk_size": None, "workers": 1},
    {"chunk_size": None, "workers": 4},
]


@pytest.fixture()
def ragged() -> Graph:
    """Two components, an isolated node and a degree-1 pendant."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (5, 6), (6, 7)], num_nodes=9
    )


def _modes(graph, sources, length, engine=walk_batch):
    """Every mode of ``engine`` (the walk engine or its oracles) as
    (name, callable())."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[graph.num_nodes // 2 :] = True
    return [
        (
            "block",
            lambda: engine.walk_block(graph, sources, length, seed=3),
        ),
        (
            "endpoints",
            lambda: engine.walk_endpoints(graph, sources, length, seed=3),
        ),
        (
            "first_hits",
            lambda: engine.walk_first_hits(graph, sources, length, mask, seed=3),
        ),
        (
            "visits",
            lambda: engine.walk_visit_counts(graph, sources, length, seed=3),
        ),
    ]


class TestChunkWorkerDeterminism:
    """Results are bit-identical across the chunk x worker grid."""

    @pytest.mark.parametrize("length", [1, 5, 40])
    def test_grid_identical(self, ba_small, length):
        sources = np.arange(ba_small.num_nodes).repeat(2)
        for name, run in _modes(ba_small, sources, length):
            reference = run()
            for knobs in GRID:
                with execution(**knobs):
                    result = run()
                assert np.array_equal(reference, result), f"{name} @ {knobs}"

    def test_grid_identical_ragged_graph(self, ragged):
        sources = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0])
        for name, run in _modes(ragged, sources, 12):
            reference = run()
            for knobs in GRID:
                with execution(**knobs):
                    result = run()
                assert np.array_equal(reference, result), f"{name} @ {knobs}"


class TestSequentialEquivalence:
    """The batched path reproduces the per-walk oracle bit for bit."""

    @pytest.mark.parametrize("length", [0, 1, 17])
    def test_all_modes(self, ba_small, length):
        sources = np.arange(ba_small.num_nodes)
        batched = _modes(ba_small, sources, length)
        sequential = _modes(ba_small, sources, length, engine=oracles)
        for (name, run), (_, oracle) in zip(batched, sequential):
            assert np.array_equal(run(), oracle()), name

    def test_unknown_strategy_rejected(self, triangle):
        # the oracle lives in repro.oracles; the engine has no strategy knob
        with pytest.raises(TypeError):
            walk_block(triangle, [0], 3, strategy="sequential")

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, s: walk_endpoints(g, s, 3),
            lambda g, s: walk_first_hits(g, s, 3, np.zeros(3, dtype=bool)),
            lambda g, s: walk_visit_counts(g, s, 3),
        ],
    )
    def test_non_integer_sources_rejected(self, triangle, run):
        # a cast would silently truncate 1.7 to node 1
        with pytest.raises(GraphError, match="integer dtype, got float64"):
            run(triangle, [1.7, 2.2])
        assert run(triangle, np.array([], dtype=float)).size in (0, 3)


class TestSeedDiscipline:
    def test_int_seed_reproducible(self, ba_small):
        a = walk_block(ba_small, [0, 1, 2], 10, seed=42)
        b = walk_block(ba_small, [0, 1, 2], 10, seed=42)
        assert np.array_equal(a, b)

    def test_seedsequence_matches_int(self, ba_small):
        a = walk_block(ba_small, [0, 1], 8, seed=5)
        b = walk_block(ba_small, [0, 1], 8, seed=np.random.SeedSequence(5))
        assert np.array_equal(a, b)

    def test_prefix_stability(self, ba_small):
        """Walk i's trajectory does not depend on how many walks ride
        along — the counter property the chunk invariance rests on."""
        few = walk_block(ba_small, [4, 5], 12, seed=11)
        many = walk_block(ba_small, [4, 5, 6, 7, 8], 12, seed=11)
        assert np.array_equal(few, many[:2])

    def test_chunk_from_a_deep_walk_matches_full_block(self, ba_small):
        """A chunk that starts at walk 37,000 jumps the counter straight
        to its rows: they equal the same rows of the one-chunk block."""
        sources = np.arange(37_010) % ba_small.num_nodes
        full = walk_endpoints(ba_small, sources, 6, seed=8)
        with execution(chunk_size=37_000):
            chunked = walk_endpoints(ba_small, sources, 6, seed=8)
        assert np.array_equal(full, chunked)

    def test_long_walks_cross_step_blocks(self, ba_small):
        """Budgets past one step block draw the next block from its own
        stretch of the stream, identically however the walks chunk."""
        length = walk_batch._STEP_BLOCK + 9
        expected = oracles.walk_endpoints(ba_small, [0, 1, 2], length, seed=4)
        with execution(chunk_size=2):
            got = walk_endpoints(ba_small, [0, 1, 2], length, seed=4)
        assert np.array_equal(got, expected)

    def test_grouped_seeds_match_separate_calls(self, ba_small):
        """Group g's walks are walks 0.. of seed[g], whatever rides along."""
        sources = np.array([0, 0, 0, 9, 9, 9, 40, 40, 40])
        seeds = [5, np.random.SeedSequence(6), 5]
        grouped = walk_block(ba_small, sources, 14, seed=seeds)
        for g, seed in enumerate(seeds):
            alone = walk_block(ba_small, sources[3 * g : 3 * g + 3], 14, seed=seed)
            assert np.array_equal(grouped[3 * g : 3 * g + 3], alone)

    def test_one_group_equals_the_bare_seed(self, ba_small):
        a = walk_block(ba_small, [3, 4], 8, seed=[12])
        b = walk_block(ba_small, [3, 4], 8, seed=12)
        assert np.array_equal(a, b)

    def test_seed_groups_must_split_sources_evenly(self, ba_small):
        with pytest.raises(GraphError, match="equal seed groups"):
            walk_block(ba_small, [0, 1, 2], 4, seed=[1, 2])
        with pytest.raises(GraphError, match="equal seed groups"):
            walk_endpoints(ba_small, [0, 1], 4, seed=[])

    def test_generator_seed_rejected(self, ba_small):
        # a walk's bits are a function of (seed, walk, step); a stateful
        # Generator has no such key
        with pytest.raises(GraphError, match="seed must be an int"):
            walk_block(ba_small, [0, 1], 8, seed=np.random.default_rng(0))
        # the seed is checked even when there are no walks to draw
        with pytest.raises(GraphError, match="seed must be an int"):
            walk_endpoints(ba_small, [], 8, seed=np.random.default_rng(0))


class TestWalkStructure:
    def test_block_shape_and_sources(self, ba_small):
        block = walk_block(ba_small, [3, 1, 4], 6, seed=0)
        assert block.shape == (3, 7)
        assert np.array_equal(block[:, 0], [3, 1, 4])

    def test_steps_follow_edges(self, ba_small):
        block = walk_block(ba_small, np.arange(ba_small.num_nodes), 25, seed=1)
        for row in block:
            for a, b in zip(row, row[1:]):
                assert ba_small.has_edge(int(a), int(b))

    def test_endpoints_match_block(self, ba_small):
        sources = np.arange(ba_small.num_nodes)
        block = walk_block(ba_small, sources, 9, seed=2)
        ends = walk_endpoints(ba_small, sources, 9, seed=2)
        assert np.array_equal(ends, block[:, -1])

    def test_first_hits_match_block(self, ba_small):
        sources = np.arange(ba_small.num_nodes)
        mask = np.zeros(ba_small.num_nodes, dtype=bool)
        mask[:4] = True
        block = walk_block(ba_small, sources, 30, seed=4)
        hits = walk_first_hits(ba_small, sources, 30, mask, seed=4)
        for row, hit in zip(block, hits):
            on_mask = np.flatnonzero(mask[row])
            expected = NO_HIT if on_mask.size == 0 else int(on_mask[0])
            assert hit == expected

    def test_visit_counts_match_block(self, ba_small):
        sources = np.arange(ba_small.num_nodes).repeat(3)
        block = walk_block(ba_small, sources, 11, seed=6)
        counts = walk_visit_counts(ba_small, sources, 11, seed=6)
        assert np.array_equal(
            counts, np.bincount(block.ravel(), minlength=ba_small.num_nodes)
        )
        assert counts.sum() == sources.size * 12

    def test_empty_sources(self, triangle):
        assert walk_block(triangle, [], 5).shape == (0, 6)
        assert walk_endpoints(triangle, [], 5).size == 0
        mask = np.zeros(3, dtype=bool)
        assert walk_first_hits(triangle, [], 5, mask).size == 0
        assert walk_visit_counts(triangle, [], 5).sum() == 0

    def test_validation(self, triangle):
        with pytest.raises(GraphError):
            walk_block(triangle, [0, 3], 2)
        with pytest.raises(GraphError):
            walk_block(triangle, [-1], 2)
        with pytest.raises(GraphError):
            walk_block(triangle, [0], -1)
        with pytest.raises(GraphError):
            walk_first_hits(triangle, [0], 2, np.zeros(5, dtype=bool))


class TestAdversarialShapes:
    """Isolated / degree-1 / disconnected sources behave lawfully."""

    def test_isolated_sources_stay(self):
        g = Graph.empty(4)
        block = walk_block(g, [0, 2, 3], 9, seed=0)
        assert np.array_equal(block, np.array([[0] * 10, [2] * 10, [3] * 10]))

    def test_walks_stay_in_component(self, ragged):
        block = walk_block(ragged, [0, 5, 4, 8], 50, seed=1)
        assert set(np.unique(block[0])) <= {0, 1, 2, 3}
        assert set(np.unique(block[1])) <= {5, 6, 7}
        assert np.all(block[2] == 4)
        assert np.all(block[3] == 8)

    def test_first_hit_unreachable_mask(self, ragged):
        mask = np.zeros(9, dtype=bool)
        mask[5] = True  # other component
        hits = walk_first_hits(ragged, [0, 1], 200, mask, seed=3)
        assert np.all(hits == NO_HIT)

    def test_source_on_mask_hits_at_zero(self, triangle):
        mask = np.array([True, False, False])
        hits = walk_first_hits(triangle, [0, 1], 10, mask, seed=4)
        assert hits[0] == 0

    @settings(max_examples=25, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=0,
            max_size=20,
        ),
        length=st.integers(0, 12),
        seed=st.integers(0, 2**20),
    )
    def test_property_grid_and_edges(self, edges, length, seed):
        """On arbitrary small graphs: every step follows an edge (or
        stays on an isolated node) and chunking never changes the block."""
        graph = Graph.from_edges(edges, num_nodes=10)
        sources = np.arange(10)
        block = walk_block(graph, sources, length, seed=seed)
        with execution(chunk_size=3, workers=2):
            chunked = walk_block(graph, sources, length, seed=seed)
        sequential = oracles.walk_block(graph, sources, length, seed=seed)
        assert np.array_equal(block, chunked)
        assert np.array_equal(block, sequential)
        for row in block:
            for a, b in zip(row, row[1:]):
                if graph.degree(int(a)) == 0:
                    assert a == b
                else:
                    assert graph.has_edge(int(a), int(b))


_PROPERTY_GRAPH = Graph.from_edges(
    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2), (6, 7)],
    num_nodes=9,
)


class TestDrawRuleProperty:
    """Every mode equals its per-walk oracle row for row, for any
    schedule, backend and seed grouping."""

    @settings(max_examples=30, deadline=None)
    @given(
        chunk_size=st.one_of(st.none(), st.integers(1, 9)),
        workers=st.sampled_from([1, 2, 3]),
        executor=st.sampled_from(["thread", "process"]),
        groups=st.integers(1, 4),
        group_size=st.integers(1, 5),
        length=st.integers(0, 11),
        seed=st.integers(0, 2**32),
        bare=st.booleans(),
    )
    def test_every_mode_equals_its_oracle(
        self, chunk_size, workers, executor, groups, group_size, length, seed,
        bare,
    ):
        graph = _PROPERTY_GRAPH
        rng = np.random.default_rng(seed)
        sources = rng.integers(graph.num_nodes, size=groups * group_size)
        seeds = [int(s) for s in rng.integers(2**31, size=groups)]
        seeds = seeds[0] if bare and groups == 1 else seeds
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[[3, 7]] = True
        modes = [
            lambda e: e.walk_block(graph, sources, length, seed=seeds),
            lambda e: e.walk_endpoints(graph, sources, length, seed=seeds),
            lambda e: e.walk_first_hits(graph, sources, length, mask, seed=seeds),
            lambda e: e.walk_visit_counts(graph, sources, length, seed=seeds),
        ]
        schedule = dict(executor=executor, workers=workers, chunk_size=chunk_size)
        for run in modes:
            with execution(**schedule):
                got = run(walk_batch)
            assert np.array_equal(got, run(oracles))


class TestStatisticalAcceptance:
    def test_escape_matches_exact_chain(self):
        """The batched Monte-Carlo escape curve sits on the exact
        absorbing-chain solve within sampling tolerance."""
        honest = barabasi_albert(300, 4, seed=0)
        sybil = complete_graph(30)
        attack = inject_sybils(honest, sybil, num_attack_edges=30, seed=1)
        lengths = [2, 5, 10, 20]
        exact = exact_escape_probability(attack, lengths)
        measured = measure_escape(attack, lengths, num_walks=4000, seed=2)
        assert np.all(np.abs(measured.escape - exact.escape) < 0.04)

    def test_escape_grid_invariant(self):
        honest = barabasi_albert(120, 3, seed=3)
        attack = inject_sybils(honest, complete_graph(12), 10, seed=4)
        reference = measure_escape(attack, [3, 9], num_walks=500, seed=5)
        for knobs in GRID:
            with execution(**knobs):
                again = measure_escape(attack, [3, 9], num_walks=500, seed=5)
            assert np.array_equal(reference.escape, again.escape)
        sequential = oracles.measure_escape(attack, [3, 9], num_walks=500, seed=5)
        assert np.array_equal(reference.escape, sequential.escape)


class TestTelemetryContract:
    def test_counters_and_spans(self, ba_small):
        with telemetry.activate() as tel:
            walk_block(ba_small, [0, 1, 2], 7, seed=0)
        assert tel.counters["markov.walk.walks"] == 3
        assert tel.counters["markov.walk.steps"] == 21
        assert any("markov.walk.block" in p for p in tel.spans)
        assert any("markov.walk.chunk" in p for p in tel.spans)

    def test_absorbed_counter(self, k5):
        mask = np.zeros(5, dtype=bool)
        mask[4] = True
        with telemetry.activate() as tel:
            hits = walk_first_hits(k5, [0, 1, 2, 3], 60, mask, seed=0)
        assert tel.counters["markov.walk.absorbed"] == int(
            np.count_nonzero(hits != NO_HIT)
        )
        assert tel.counters["markov.walk.walks"] == 4

    def test_sequential_counts_too(self, triangle):
        # inline (one worker) and pooled runs report the same counters
        for workers in (1, 2):
            with telemetry.activate() as tel:
                with execution(chunk_size=1, workers=workers):
                    walk_endpoints(triangle, [0, 1], 5, seed=0)
            assert tel.counters["markov.walk.walks"] == 2
            assert tel.counters["markov.walk.steps"] == 10
