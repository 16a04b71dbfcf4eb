"""Out-of-core sharded graph engine tests (PR 9).

Covers the tentpole end to end:

* round-trip and manifest-digest chaining into :mod:`repro.store` keys;
* bit-identity grids — every batch engine (walk evolution, BFS, random
  walks) run on a :class:`~repro.graph.shard.ShardedGraph` across
  shard-count x chunk-size x workers must equal the in-RAM engine and
  the sequential oracles byte for byte;
* the Lanczos SLEM, sharded and in-RAM, against the dense solver;
* the streaming analog generators (determinism, connectivity, the
  fast/slow mixing contrast);
* the ``shard.*`` telemetry contract (loads/spills/resident gauges);
* builder/open error cases.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro import cli, oracles, telemetry
from repro.datasets import (
    STREAM_REGIMES,
    build_sharded_analog,
    stream_analog_edges,
)
from repro.errors import ConvergenceError, DatasetError, GraphError
from repro.generators import complete_graph, cycle_graph
from repro.graph import Graph, ShardedGraph
from repro.graph.bfs_batch import bfs_distances_block, bfs_level_sizes_block
from repro.markov.batch import (
    batched_tvd_profile,
    delta_block,
    evolve_block,
)
from repro.markov.transition import stationary_distribution, transition_matrix
from repro.markov.walk_batch import (
    walk_block,
    walk_endpoints,
    walk_first_hits,
    walk_visit_counts,
)
from repro.mixing import (
    is_fast_mixing,
    normalized_adjacency,
    sampled_mixing_profile,
    slem,
    spectral,
    spectral_summary,
)
from repro.parallel import execution
from repro.store import ArtifactStore, graph_digest


def _random_graph(n: int = 205, seed: int = 3) -> Graph:
    """A messy random graph: hubs, duplicates and isolated nodes."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n - 6, size=(3 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    # nodes [n-6, n) stay isolated: the engines must preserve them
    return Graph.from_edges(edges, num_nodes=n)


@pytest.fixture(scope="module")
def dirty(tmp_path_factory) -> Graph:
    return _random_graph()


@pytest.fixture(scope="module", params=[1, 2, 3, 7])
def sharded(request, dirty, tmp_path_factory) -> ShardedGraph:
    root = tmp_path_factory.mktemp(f"shards{request.param}")
    return ShardedGraph.from_graph(dirty, root, num_shards=request.param)


class TestRoundTrip:
    def test_to_graph_round_trips(self, dirty, sharded):
        assert sharded.to_graph() == dirty
        assert sharded.num_nodes == dirty.num_nodes
        assert sharded.num_edges == dirty.num_edges

    def test_degrees_match(self, dirty, sharded):
        assert np.array_equal(sharded.degrees, dirty.degrees)

    def test_open_round_trips(self, dirty, sharded):
        reopened = ShardedGraph.open(sharded.root)
        assert reopened.to_graph() == dirty
        assert reopened.graph_digest == sharded.graph_digest

    def test_verify_passes(self, sharded):
        assert sharded.verify()

    def test_shard_index_of(self, sharded):
        nodes = np.arange(sharded.num_nodes)
        owners = sharded.shard_index_of(nodes)
        for k, (lo, hi) in enumerate(
            zip(sharded.bounds[:-1], sharded.bounds[1:])
        ):
            assert np.all(owners[lo:hi] == k)
        assert sharded.shard_index_of(sharded.num_nodes - 1) == (
            sharded.num_shards - 1
        )


class TestDigestChaining:
    def test_graph_digest_matches_store(self, dirty, sharded):
        assert sharded.graph_digest == graph_digest(dirty)

    def test_store_keys_interchange(self, dirty, sharded, tmp_path):
        # artifacts keyed on the in-RAM graph stay valid for the shards
        store = ArtifactStore(tmp_path / "cache")
        params = {"seed": 0}
        assert store.key_for(sharded.graph_digest, "spectral", params) == (
            store.key_for(dirty, "spectral", params)
        )

    def test_from_edge_blocks_matches_from_graph(self, dirty, tmp_path):
        # feed dirty blocks: duplicates, both orientations, self loops
        edges = dirty.edge_array()
        blocks = [
            edges[: len(edges) // 2],
            edges[len(edges) // 2 :][:, ::-1],  # reversed orientation
            edges[:7],  # duplicates
            np.array([[3, 3], [5, 5]]),  # self loops are dropped
            np.empty((0, 2), dtype=np.int64),  # empty blocks are legal
        ]
        built = ShardedGraph.from_edge_blocks(
            blocks, dirty.num_nodes, tmp_path / "blocks", num_shards=3
        )
        assert built.to_graph() == dirty
        assert built.graph_digest == graph_digest(dirty)

    def test_corruption_fails_verify(self, dirty, tmp_path):
        sg = ShardedGraph.from_graph(dirty, tmp_path / "corrupt", num_shards=2)
        victim = sorted(sg.root.glob("*.indices.npy"))[0]
        data = np.load(victim)
        data[0] = (data[0] + 1) % dirty.num_nodes
        np.save(victim.with_suffix(""), data)
        assert not ShardedGraph.open(sg.root).verify()


def _edit_manifest(root, edit) -> None:
    path = root / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _without(key):
    def edit(manifest):
        del manifest[key]
        return manifest

    return edit


def _shifted_row(manifest):
    manifest["shards"][1]["lo"] += 1
    return manifest


def _narrower_width(manifest):
    # bounds stay [0, 52, 104, 156, 205]; a 51-node width would send
    # node 51 to shard 1, where its local index is -1
    manifest["nodes_per_shard"] -= 1
    return manifest


class TestManifestValidation:
    """A manifest that contradicts itself is rejected when opened."""

    @pytest.mark.parametrize(
        "edit",
        [
            _without("bounds"),
            _without("shards"),
            lambda manifest: [manifest],
            _narrower_width,
            _shifted_row,
        ],
        ids=["no-bounds", "no-shards", "json-list", "width", "shard-row"],
    )
    def test_contradictory_manifest_rejected(self, dirty, tmp_path, edit):
        root = tmp_path / "bad"
        ShardedGraph.from_graph(dirty, root, num_shards=4)
        _edit_manifest(root, edit)
        with pytest.raises(GraphError, match="malformed shard manifest"):
            ShardedGraph.open(root)


class TestOneShardGraph:
    """An in-RAM Graph is a one-shard store over its own CSR."""

    def test_block_wraps_the_csr_without_a_copy(self, dirty):
        block = dirty.shard(0)
        assert dirty.num_shards == 1
        assert (block.lo, block.hi) == (0, dirty.num_nodes)
        assert np.shares_memory(block.indptr, dirty.indptr)
        assert np.shares_memory(block.indices, dirty.indices)

    def test_block_is_cached(self, dirty):
        assert dirty.shard(0) is dirty.shard(0)
        assert list(dirty.iter_shards()) == [dirty.shard(0)]

    @pytest.mark.parametrize("index", [1, -1])
    def test_other_indices_rejected(self, dirty, index):
        with pytest.raises(GraphError, match="out of range"):
            dirty.shard(index)

    def test_operator_cache_stays_out_of_identity(self):
        graph = _random_graph(n=120, seed=8)
        before = (hash(graph), graph_digest(graph), pickle.dumps(graph))
        bfs_level_sizes_block(graph, [0, 5])
        evolve_block(graph, delta_block(graph.num_nodes, [0]), steps=2)
        walk_endpoints(graph, [0, 1], 4, seed=0)
        normalized_adjacency(graph)
        block = graph.shard(0)
        assert block._adjacency is not None
        assert block._transition_data is not None
        assert block._normalized is not None
        assert graph == Graph(graph.indptr.copy(), graph.indices.copy())
        assert (hash(graph), graph_digest(graph), pickle.dumps(graph)) == before
        assert pickle.loads(pickle.dumps(graph)) == graph

    def test_graph_store_evolves_like_its_matrix(self, dirty):
        pi = stationary_distribution(dirty)
        sources, lengths = [0, 17, 100, dirty.num_nodes - 1], [0, 1, 3, 8]
        expected = batched_tvd_profile(transition_matrix(dirty), pi, sources, lengths)
        got = batched_tvd_profile(dirty, pi, sources, lengths)
        assert np.array_equal(got, expected)

    def test_normalized_adjacency_is_the_stacked_row_blocks(self, dirty, tmp_path):
        sg = ShardedGraph.from_graph(dirty, tmp_path / "rows", num_shards=3)
        inv_sqrt = spectral._inv_sqrt_degrees(sg)
        stacked = sp.vstack(
            [shard.normalized_rows(inv_sqrt) for shard in sg.iter_shards()],
            format="csr",
        )
        matrix = normalized_adjacency(dirty)
        assert np.array_equal(matrix.indptr, stacked.indptr)
        assert np.array_equal(matrix.indices, stacked.indices)
        assert matrix.data.tobytes() == stacked.data.tobytes()


class TestBuilderErrors:
    def test_num_shards_and_width_are_exclusive(self, dirty, tmp_path):
        with pytest.raises(GraphError):
            ShardedGraph.from_graph(
                dirty, tmp_path / "x", num_shards=2, nodes_per_shard=10
            )

    def test_negative_ids_rejected(self, tmp_path):
        with pytest.raises(GraphError):
            ShardedGraph.from_edge_blocks(
                [np.array([[-1, 2]])], 5, tmp_path / "neg"
            )

    def test_out_of_range_ids_rejected(self, tmp_path):
        with pytest.raises(GraphError):
            ShardedGraph.from_edge_blocks(
                [np.array([[0, 9]])], 5, tmp_path / "oob"
            )

    def test_float_block_rejected_naming_dtype(self, tmp_path):
        with pytest.raises(GraphError, match="float64"):
            ShardedGraph.from_edge_blocks(
                [np.array([[0.0, 1.7]])], 5, tmp_path / "float"
            )

    def test_existing_manifest_rejected(self, dirty, tmp_path):
        root = tmp_path / "dup"
        ShardedGraph.from_graph(dirty, root, num_shards=2)
        with pytest.raises(GraphError, match="already holds"):
            ShardedGraph.from_graph(dirty, root, num_shards=2)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(GraphError, match="no sharded graph"):
            ShardedGraph.open(tmp_path / "nothing")

    def test_open_rejects_unknown_format(self, dirty, tmp_path):
        root = tmp_path / "fmt"
        ShardedGraph.from_graph(dirty, root, num_shards=1)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format"] = 999
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError):
            ShardedGraph.open(root)


@pytest.mark.parametrize("chunk_size", [None, 3])
@pytest.mark.parametrize("workers", [None, 2])
class TestEngineBitIdentity:
    """Every engine on shards must equal the in-RAM engine exactly."""

    def test_tvd_profile(self, dirty, sharded, chunk_size, workers):
        sources = [0, 5, 17, 17, 100, dirty.num_nodes - 1]
        lengths = [0, 1, 2, 5, 9]
        expected = batched_tvd_profile(
            transition_matrix(dirty), stationary_distribution(dirty), sources,
            lengths,
        )
        pi = stationary_distribution(sharded)
        with execution(chunk_size=chunk_size, workers=workers):
            got = batched_tvd_profile(sharded, pi, sources, lengths)
        assert np.array_equal(got, expected)

    def test_bfs_level_sizes(self, dirty, sharded, chunk_size, workers):
        sources = [0, 3, 50, 200]
        expected = bfs_level_sizes_block(dirty, sources)
        with execution(chunk_size=chunk_size, workers=workers):
            got = bfs_level_sizes_block(sharded, sources)
        assert np.array_equal(got, expected)

    def test_bfs_distances(self, dirty, sharded, chunk_size, workers):
        sources = [0, 7, 120]
        expected = bfs_distances_block(dirty, sources)
        with execution(chunk_size=chunk_size, workers=workers):
            got = bfs_distances_block(sharded, sources)
        assert np.array_equal(got, expected)

    def test_walk_block(self, dirty, sharded, chunk_size, workers):
        sources = [0, 9, 44, 180]
        expected = walk_block(dirty, sources, length=12, seed=5)
        with execution(chunk_size=chunk_size, workers=workers):
            got = walk_block(sharded, sources, length=12, seed=5)
        assert np.array_equal(got, expected)

    def test_walk_endpoints(self, dirty, sharded, chunk_size, workers):
        sources = np.arange(0, 200, 13)
        expected = walk_endpoints(dirty, sources, length=9, seed=1)
        with execution(chunk_size=chunk_size, workers=workers):
            got = walk_endpoints(sharded, sources, length=9, seed=1)
        assert np.array_equal(got, expected)

    def test_walk_first_hits(self, dirty, sharded, chunk_size, workers):
        mask = np.zeros(dirty.num_nodes, dtype=bool)
        mask[::11] = True
        sources = [1, 6, 30, 77]
        expected = walk_first_hits(dirty, sources, 15, mask, seed=2)
        with execution(chunk_size=chunk_size, workers=workers):
            got = walk_first_hits(sharded, sources, 15, mask, seed=2)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("positions", ["all", "last"])
    def test_walk_visit_counts(
        self, dirty, sharded, chunk_size, workers, positions
    ):
        """Counts of every position, and of endpoints only (the
        empirical distribution's numerator)."""
        sources = [0, 2, 90]

        def counts(graph):
            if positions == "all":
                return walk_visit_counts(graph, sources, 10, seed=3)
            ends = walk_endpoints(graph, sources, 10, seed=3)
            return np.bincount(ends, minlength=graph.num_nodes)

        expected = counts(dirty)
        with execution(chunk_size=chunk_size, workers=workers):
            got = counts(sharded)
        assert np.array_equal(got, expected)

    def test_walk_grouped_seeds(self, dirty, sharded, chunk_size, workers):
        sources = np.repeat([0, 40, 77], 4)
        seeds = [4, 11, 4]
        expected = walk_block(dirty, sources, length=10, seed=seeds)
        with execution(chunk_size=chunk_size, workers=workers):
            got = walk_block(sharded, sources, length=10, seed=seeds)
        assert np.array_equal(got, expected)


class TestSampledMixingOnStores:
    """The sampled mixing check runs on a store like on its graph."""

    @pytest.fixture(params=["ba_small", "community_small"])
    def graph(self, request) -> Graph:
        return request.getfixturevalue(request.param)

    @pytest.fixture
    def three_shards(self, graph, tmp_path) -> ShardedGraph:
        return ShardedGraph.from_graph(graph, tmp_path / "rows", num_shards=3)

    def test_profile_matches_in_ram(self, graph, three_shards):
        kwargs = dict(walk_lengths=[0, 1, 2, 5, 9], num_sources=20, seed=4)
        expected = sampled_mixing_profile(graph, **kwargs)
        got = sampled_mixing_profile(three_shards, **kwargs)
        assert np.array_equal(got.sources, expected.sources)
        assert got.tvd.tobytes() == expected.tvd.tobytes()
        oracle = oracles.sampled_mixing_profile(graph, **kwargs)
        assert got.tvd.tobytes() == oracle.tvd.tobytes()

    def test_fast_mixing_verdict_matches_in_ram(self, graph, three_shards):
        assert is_fast_mixing(three_shards, num_sources=15) == is_fast_mixing(
            graph, num_sources=15
        )

    def test_spectral_summary_matches_in_ram(self, graph, three_shards):
        expected = spectral_summary(graph, fast_sources=15, seed=2)
        assert spectral_summary(three_shards, fast_sources=15, seed=2) == expected

    def test_lazy_chain_needs_an_in_ram_graph(self, three_shards):
        with pytest.raises(GraphError, match="in-RAM"):
            sampled_mixing_profile(three_shards, walk_lengths=[1], lazy=True)


class TestSequentialOracle:
    """The scalar oracles must agree with the batched sharded engine."""

    @pytest.mark.parametrize(
        "fn,kwargs",
        [
            (walk_block, {"length": 8}),
            (walk_endpoints, {"length": 8}),
        ],
    )
    def test_batched_equals_sequential_on_shards(self, sharded, fn, kwargs):
        sources = [0, 11, 63]
        batched = fn(sharded, sources, seed=9, **kwargs)
        sequential = getattr(oracles, fn.__name__)(sharded, sources, seed=9, **kwargs)
        assert np.array_equal(batched, sequential)

    def test_first_hits_batched_equals_sequential(self, sharded):
        mask = np.zeros(sharded.num_nodes, dtype=bool)
        mask[::17] = True
        sources = [1, 29, 84]
        batched = walk_first_hits(sharded, sources, 20, mask, seed=9)
        sequential = oracles.walk_first_hits(sharded, sources, 20, mask, seed=9)
        assert np.array_equal(batched, sequential)


class TestEvolveBlock:
    def test_matches_in_ram_product(self, dirty, sharded):
        block = delta_block(dirty.num_nodes, [0, 8, 150])
        expected = evolve_block(transition_matrix(dirty), block, steps=6)
        got = evolve_block(sharded, block, steps=6)
        assert np.array_equal(got, expected)

    def test_does_not_mutate_input(self, sharded):
        block = delta_block(sharded.num_nodes, [0, 5])
        before = block.copy()
        evolve_block(sharded, block, steps=3)
        assert np.array_equal(block, before)

    def test_isolated_nodes_absorb(self, sharded):
        # the merged in-RAM P gives isolated nodes unit self loops;
        # the sharded evolution must reproduce that absorption exactly
        isolated = int(np.flatnonzero(sharded.degrees == 0)[0])
        block = delta_block(sharded.num_nodes, [isolated])
        out = evolve_block(sharded, block, steps=4)
        assert out[isolated, 0] == 1.0
        assert out.sum() == pytest.approx(1.0)

    def test_bad_shape_rejected(self, sharded):
        with pytest.raises(GraphError):
            evolve_block(sharded, np.zeros((3, 2)), steps=1)

    def test_empty_sources_profile(self, sharded):
        tvd = batched_tvd_profile(
            sharded, stationary_distribution(sharded), [], [1, 2]
        )
        assert tvd.shape == (0, 2)


class TestPowerIterationSlem:
    """Pins for the one matrix-free Lanczos SLEM path.

    ``dense_threshold=0`` forces Lanczos on graphs the default would
    solve densely, so the dense solver serves as the oracle.  The class
    keeps the name of the deflated power iteration that path replaced.
    """

    def test_matches_dense_complete_graph(self):
        for n in (5, 6):
            g = complete_graph(n)
            assert slem(g, dense_threshold=0) == pytest.approx(slem(g), abs=1e-8)

    def test_matches_dense_odd_cycle(self, c7):
        assert slem(c7, dense_threshold=0) == pytest.approx(slem(c7), abs=1e-8)

    def test_bipartite_even_cycle_is_one(self):
        # C8 has eigenvalue -1; asking for the largest magnitudes finds it
        assert slem(cycle_graph(8), dense_threshold=0) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_matches_dense_random_graph(self, ba_small):
        assert slem(ba_small, dense_threshold=0) == pytest.approx(
            slem(ba_small), abs=1e-8
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_sharded_matches_in_ram(self, ba_small, tmp_path, num_shards):
        sg = ShardedGraph.from_graph(ba_small, tmp_path / "slem", num_shards=num_shards)
        assert slem(sg, dense_threshold=0) == pytest.approx(
            slem(ba_small, dense_threshold=0), abs=1e-10
        )

    def test_sharded_dispatch(self, ba_small, tmp_path):
        # at the default threshold a small sharded graph is solved densely
        sg = ShardedGraph.from_graph(ba_small, tmp_path / "slem", num_shards=3)
        assert slem(sg) == pytest.approx(slem(ba_small), abs=1e-12)

    def test_disconnected_sharded_rejected(self, tmp_path):
        g = Graph.from_edges([(0, 1), (2, 3)])
        sg = ShardedGraph.from_graph(g, tmp_path / "disc", num_shards=2)
        with pytest.raises(GraphError, match="disconnected"):
            slem(sg)

    def test_tiny_graph_rejected(self):
        with pytest.raises(GraphError):
            slem(Graph.empty(1), dense_threshold=0)

    def test_nonconvergence_raises(self, ba_small, tmp_path, monkeypatch):
        sg = ShardedGraph.from_graph(ba_small, tmp_path / "slem", num_shards=3)
        monkeypatch.setattr(spectral, "_MAX_MATVECS", 1)
        with pytest.raises(ConvergenceError, match="after 1 matvecs") as info:
            slem(sg, dense_threshold=0)
        assert info.value.iterations == 1

    def test_sharded_audit_of_stalling_analog(self, tmp_path, monkeypatch, capsys):
        # deflated power iteration exhausted its 5000 iterations here
        root = tmp_path / "fast-20k"
        build_sharded_analog(root, 20_000, regime="fast", seed=4, num_shards=8)
        audited = []

        def recording_slem(graph):
            audited.append(slem(graph))
            return audited[-1]

        monkeypatch.setattr(cli, "slem", recording_slem)
        assert cli.main(["audit", "--sharded", str(root)]) == 0
        assert "SLEM" in capsys.readouterr().out
        in_ram = slem(ShardedGraph.open(root).to_graph())
        assert audited == [pytest.approx(in_ram, abs=1e-8)]


class TestStreamingAnalogs:
    def test_streams_are_deterministic(self):
        a = list(stream_analog_edges(5000, "fast", seed=4, block_nodes=1024))
        b = list(stream_analog_edges(5000, "fast", seed=4, block_nodes=1024))
        assert len(a) == len(b) == 5
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_unknown_regime_rejected(self):
        with pytest.raises(DatasetError):
            list(stream_analog_edges(100, "medium"))

    def test_bad_sizes_rejected(self):
        with pytest.raises(DatasetError):
            list(stream_analog_edges(0, "fast"))
        with pytest.raises(DatasetError):
            list(stream_analog_edges(10, "fast", block_nodes=0))

    @pytest.mark.parametrize("regime", sorted(STREAM_REGIMES))
    def test_built_analogs_are_connected(self, regime, tmp_path):
        sg = build_sharded_analog(
            tmp_path / regime, 6000, regime=regime, seed=1, num_shards=3
        )
        assert sg.num_nodes == 6000
        distances = bfs_distances_block(sg, [0])[0]
        assert np.all(distances >= 0)

    def test_fast_slow_mixing_contrast(self, tmp_path):
        # 3 slow communities of 4096 vs the hub-attachment fast analog:
        # worst-source TVD at t=8 separates the regimes cleanly
        n = 3 * 4096
        sources = [0, n // 2, n - 1]
        profiles = {}
        for regime in ("fast", "slow"):
            sg = build_sharded_analog(
                tmp_path / regime, n, regime=regime, seed=0, num_shards=4
            )
            tvd = batched_tvd_profile(
                sg, stationary_distribution(sg), sources, [8]
            )
            profiles[regime] = float(tvd.max())
        assert profiles["fast"] < 0.1
        assert profiles["slow"] > 0.3


class TestShardTelemetry:
    def test_lru_loads_and_spills(self, dirty, tmp_path):
        sg = ShardedGraph.from_graph(
            dirty, tmp_path / "lru", num_shards=4, max_resident_shards=1
        )
        with telemetry.activate() as tel:
            for _ in range(2):
                for shard in sg.iter_shards():
                    assert shard.num_rows > 0
        assert tel.counter("shard.loads") == 8
        assert tel.counter("shard.spills") == 7
        assert tel.gauges["shard.resident_bytes"] > 0
        assert tel.gauges["shard.peak_resident_bytes"] > 0

    def test_warm_cache_loads_once(self, dirty, tmp_path):
        sg = ShardedGraph.from_graph(dirty, tmp_path / "warm", num_shards=3)
        with telemetry.activate() as tel:
            for _ in range(3):
                list(sg.iter_shards())
        assert tel.counter("shard.loads") == 3
        assert tel.counter("shard.spills") == 0

    def test_build_span_and_edge_counts(self, dirty, tmp_path):
        with telemetry.activate() as tel:
            ShardedGraph.from_graph(dirty, tmp_path / "built", num_shards=2)
        assert tel.spans["shard.build"].count == 1
        assert tel.counter("shard.build.edges") > 0
