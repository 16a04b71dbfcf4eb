"""Unit tests for SLEM and the Sinclair bounds, against closed forms."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import telemetry
from repro.datasets import build_sharded_analog, load_dataset
from repro.errors import ConvergenceError, GraphError
from repro.generators import (
    barabasi_albert,
    community_social_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.graph import Graph, ShardedGraph, write_edge_list
from repro.mixing import (
    mixing_bounds,
    normalized_adjacency,
    sinclair_bounds,
    slem,
    spectral,
    spectral_gap,
    spectral_summary,
)
from repro.pipeline import paper_measurement_pipeline
from repro.store import ArtifactStore


class TestNormalizedAdjacency:
    def test_symmetric(self, ba_small):
        matrix = normalized_adjacency(ba_small)
        diff = (matrix - matrix.T).toarray()
        assert np.abs(diff).max() < 1e-12

    def test_leading_eigenvalue_is_one(self, ba_small):
        values = np.linalg.eigvalsh(normalized_adjacency(ba_small).toarray())
        assert values.max() == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            normalized_adjacency(Graph.empty())


class TestSlem:
    def test_complete_graph_closed_form(self):
        # K_n: SLEM = 1/(n-1)
        for n in [4, 8, 16]:
            assert slem(complete_graph(n)) == pytest.approx(1 / (n - 1), abs=1e-9)

    def test_odd_cycle_closed_form(self):
        # C_n eigenvalues are cos(2 pi k / n); for odd n the most
        # negative one, -cos(pi / n), has the largest modulus below 1
        for n in [5, 7, 9]:
            assert slem(cycle_graph(n)) == pytest.approx(
                np.cos(np.pi / n), abs=1e-9
            )

    def test_even_cycle_is_periodic(self):
        # bipartite: eigenvalue -1 dominates, SLEM = 1
        assert slem(cycle_graph(8)) == pytest.approx(1.0, abs=1e-9)

    def test_sparse_path_agrees_with_dense(self):
        g = barabasi_albert(600, 3, seed=1)
        sparse_value = slem(g, dense_threshold=10)
        dense_value = slem(g, dense_threshold=10_000)
        assert sparse_value == pytest.approx(dense_value, abs=1e-6)

    def test_community_structure_raises_slem(self):
        fast = barabasi_albert(500, 4, seed=2)
        slow = community_social_graph(500, 5, 3, 0.01, seed=2)
        assert slem(slow) > slem(fast)

    def test_single_node_rejected(self):
        with pytest.raises(GraphError):
            slem(Graph.empty(1))

    def test_disconnected_rejected_with_diagnosis(self):
        # two triangles with no edge between them
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        with pytest.raises(GraphError, match="disconnected"):
            slem(g)

    def test_disconnected_rejected_on_sparse_path(self):
        # two BA components, well above the dense threshold, so the
        # guard fires before Lanczos ever sees the repeated eigenvalue 1
        a = barabasi_albert(300, 3, seed=0)
        b = barabasi_albert(300, 3, seed=1)
        edges = list(a.edges())
        edges += [(u + 300, v + 300) for u, v in b.edges()]
        g = Graph.from_edges(edges, num_nodes=600)
        with pytest.raises(GraphError, match="connected component"):
            slem(g, dense_threshold=400)

    def test_isolated_node_counts_as_disconnected(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=4)
        with pytest.raises(GraphError, match="disconnected"):
            slem(g)

    def test_gap_complement(self, k5):
        assert spectral_gap(k5) == pytest.approx(1 - slem(k5))


class TestLanczosDeterminism:
    """Lanczos starts from a fixed vector, so SLEM is one float per graph."""

    def test_repeated_calls_are_equal(self):
        g = barabasi_albert(500, 3, seed=5)
        assert slem(g) == slem(g)

    def test_cold_pipeline_spectral_stages_are_equal(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list(barabasi_albert(450, 3, seed=6), path)
        spectral_stages = [
            paper_measurement_pipeline(
                str(path), scale=1.0, store=ArtifactStore(tmp_path / store)
            ).run(targets=["spectral"]).results["spectral"]
            for store in ("a", "b")
        ]
        assert spectral_stages[0] == spectral_stages[1]

    def test_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # a BLAS reduction splits its sum across OpenBLAS threads, so
        # one in the solve would move mu's last bits with the thread
        # count on this graph
        root = tmp_path / "fast-20k"
        build_sharded_analog(root, 20_000, regime="fast", seed=3, num_shards=4)
        code = (
            "import sys; from repro.graph import ShardedGraph; "
            "from repro.mixing import slem; "
            "print(repr(slem(ShardedGraph.open(sys.argv[1]))))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        printed = [
            subprocess.run(
                [sys.executable, "-c", code, str(root)],
                capture_output=True, text=True, check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src,
                     "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert printed[0] == printed[1]
        assert float(printed[0]) == slem(ShardedGraph.open(root))


class TestLanczosTelemetry:
    def test_span_and_matvec_counter(self):
        g = barabasi_albert(500, 3, seed=5)
        with telemetry.activate() as tel:
            slem(g)
        assert tel.spans["mixing.slem"].count == 1
        assert tel.counters["mixing.slem.matvecs"] > 0

    def test_convergence_error_carries_matvec_count(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_MATVECS", 4)
        with telemetry.activate() as tel:
            with pytest.raises(ConvergenceError, match="after 4 matvecs") as info:
                slem(barabasi_albert(500, 3, seed=5))
        assert info.value.iterations == 4
        assert tel.counters["mixing.slem.matvecs"] == 4


def _dense_mu(graph: Graph) -> float:
    return slem(graph, dense_threshold=graph.num_nodes)


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(outer + inner + [(i, i + 5) for i in range(5)])


@st.composite
def _aperiodic_graphs(draw, max_nodes: int = 30):
    """Connected graphs holding the triangle 0-1-2, so the walk is
    aperiodic: a random tree hung from the triangle plus random chords."""
    n = draw(st.integers(3, max_nodes))
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(3, n)]
    edges += draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    return Graph.from_edges(edges, num_nodes=n)


class TestAccuracyContract:
    """Lanczos is within 1e-5 of the gap and 1e-6 of the dense SLEM."""

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: load_dataset("epinions", scale=0.1), id="fast"),
            pytest.param(lambda: load_dataset("facebook_b", scale=0.1), id="moderate"),
            pytest.param(lambda: load_dataset("dblp", scale=0.1), id="slow"),
            pytest.param(lambda: cycle_graph(101), id="odd-cycle"),
        ],
    )
    def test_error_within_the_gap_tolerance(self, graph):
        g = graph()
        mu = _dense_mu(g)
        error = abs(slem(g, dense_threshold=0) - mu)
        assert error <= 1e-5 * (1 - mu)
        assert error <= 1e-6

    # the Krylov spaces of complete graphs and Petersen break down after
    # two and three steps
    @settings(max_examples=100, deadline=None)
    @given(graph=_aperiodic_graphs())
    @example(graph=complete_graph(3))
    @example(graph=complete_graph(5))
    @example(graph=complete_graph(10))
    @example(graph=complete_graph(50))
    @example(graph=_petersen())
    def test_small_graphs_match_dense(self, graph):
        mu = _dense_mu(graph)
        error = abs(slem(graph, dense_threshold=0) - mu)
        assert error <= min(1e-6, 1e-5 * (1 - mu))

    def test_sharded_equals_in_ram_bit_for_bit(self, tmp_path):
        sharded = build_sharded_analog(
            tmp_path / "fast", 5000, regime="fast", seed=3, num_shards=3
        )
        assert slem(sharded) == slem(sharded.to_graph())

    def test_slem_takes_no_tolerance(self, k5):
        assert "tol" not in inspect.signature(slem).parameters
        with pytest.raises(TypeError):
            slem(k5, tol=1e-3)

    def test_gauges_bound_the_error(self):
        # cos(pi/101) ~ 0.9995: 1e-6 * mu alone is too loose for the gap
        g = cycle_graph(101)
        with telemetry.activate() as tel:
            slem(g, dense_threshold=0)
        bound = tel.gauges["mixing.slem.error_bound"]
        assert bound <= 1e-5 * (1 - _dense_mu(g))
        assert bound <= 1e-6

    def test_unresolvable_gap_raises(self, monkeypatch):
        # a Ritz value within 1e-13 of 1 with a machine-precision
        # residual: no residual Lanczos reaches bounds the error by 1e-5
        # of that gap
        monkeypatch.setattr(
            spectral, "_extreme_ritz", lambda alpha, beta: (1.0 - 1e-13, 1e-16)
        )
        with pytest.raises(ConvergenceError, match="below what Lanczos") as info:
            slem(barabasi_albert(500, 3, seed=5))
        assert info.value.iterations == spectral._CHECK_EVERY

    def test_matvec_counter_rises_with_every_product(self, monkeypatch):
        seen: list[int] = []
        normalized_apply = spectral._normalized_apply

        def recording(graph):
            apply = normalized_apply(graph)

            def counted(x):
                seen.append(tel.counters.get("mixing.slem.matvecs", 0))
                return apply(x)

            return counted

        monkeypatch.setattr(spectral, "_normalized_apply", recording)
        with telemetry.activate() as tel:
            slem(barabasi_albert(500, 3, seed=5))
        assert seen == list(range(1, tel.counters["mixing.slem.matvecs"] + 1))


class TestPeriodicChains:
    """A bipartite graph's walk has period 2: SLEM 1, no Sinclair bound."""

    def test_lanczos_path_returns_exactly_one(self):
        grid = Graph.from_edges(
            [(i, i + 1) for i in range(899) if i % 30 != 29]
            + [(i, i + 30) for i in range(870)]
        )
        assert slem(grid) == 1.0

    @pytest.mark.parametrize(
        "graph",
        [path_graph(3), cycle_graph(4), cycle_graph(8)],
        ids=["path-3", "cycle-4", "cycle-8"],
    )
    def test_dense_path_returns_exactly_one(self, graph):
        # at or under the dense threshold: no eigvalsh rounding of |-1|
        assert slem(graph) == 1.0

    @pytest.mark.parametrize("n", [4, 8, 600])
    def test_even_cycle_has_no_bounds(self, n):
        summary = spectral_summary(cycle_graph(n), fast_sources=5, seed=0)
        assert summary["bounds"] is None
        assert summary["slem"] == pytest.approx(1.0, abs=1e-9)

    def test_odd_cycle_keeps_its_bounds(self):
        g = cycle_graph(9)
        bounds = mixing_bounds(g, slem(g))
        assert bounds.upper == pytest.approx(2 * np.log(9) / (1 - np.cos(np.pi / 9)))

    def test_single_edge_still_rejected(self):
        with pytest.raises(GraphError, match="SLEM must lie in"):
            mixing_bounds(Graph.from_edges([(0, 1)]), 1.0)

    def test_mixing_bounds_takes_epsilon(self):
        g = cycle_graph(9)
        mu = slem(g)
        assert mixing_bounds(g, mu, epsilon=0.01) == sinclair_bounds(mu, 9, 0.01)


class TestSinclairBounds:
    def test_bounds_ordered(self):
        bounds = sinclair_bounds(0.9, 1000, 0.001)
        assert 0 <= bounds.lower <= bounds.upper

    def test_fast_chain_small_upper(self):
        fast = sinclair_bounds(0.2, 1000, 0.001)
        slow = sinclair_bounds(0.99, 1000, 0.001)
        assert fast.upper < slow.upper
        assert fast.lower < slow.lower

    def test_upper_formula(self):
        mu, n, eps = 0.5, 100, 0.01
        bounds = sinclair_bounds(mu, n, eps)
        assert bounds.upper == pytest.approx(
            (np.log(n) + np.log(1 / eps)) / (1 - mu)
        )

    def test_lower_formula(self):
        mu, n, eps = 0.8, 100, 0.01
        bounds = sinclair_bounds(mu, n, eps)
        assert bounds.lower == pytest.approx((mu / (1 - mu)) * np.log(1 / (2 * eps)))

    def test_invalid_mu(self):
        with pytest.raises(GraphError):
            sinclair_bounds(1.0, 100, 0.01)
        with pytest.raises(GraphError):
            sinclair_bounds(-0.1, 100, 0.01)

    def test_invalid_epsilon(self):
        with pytest.raises(GraphError):
            sinclair_bounds(0.5, 100, 0.0)
