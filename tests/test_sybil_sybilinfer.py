"""Unit tests for SybilInfer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import oracles
from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, complete_graph
from repro.graph import Graph
from repro.sybil import SybilInfer, SybilInferConfig, standard_attack


@pytest.fixture(scope="module")
def infer_setup():
    honest = barabasi_albert(150, 4, seed=0)
    attack = standard_attack(honest, 4, sybil_scale=0.3, seed=0)
    infer = SybilInfer(
        attack.graph, SybilInferConfig(num_samples=80, burn_in=40, seed=1)
    )
    return attack, infer


class TestConfig:
    def test_invalid_walks(self):
        with pytest.raises(SybilDefenseError):
            SybilInferConfig(walks_per_node=0)

    def test_invalid_schedule(self):
        with pytest.raises(SybilDefenseError):
            SybilInferConfig(num_samples=0)

    def test_invalid_escape(self):
        with pytest.raises(SybilDefenseError):
            SybilInferConfig(escape_probability=0.0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            SybilInfer(Graph.from_edges([(0, 1), (1, 2)]))


class TestLikelihood:
    def test_honest_partition_beats_full_set(self, infer_setup):
        attack, infer = infer_setup
        n = attack.graph.num_nodes
        full = np.ones(n, dtype=bool)
        honest_only = np.zeros(n, dtype=bool)
        honest_only[: attack.num_honest] = True
        assert infer.log_likelihood(honest_only) > infer.log_likelihood(full)

    def test_honest_partition_beats_random_split(self, infer_setup):
        attack, infer = infer_setup
        n = attack.graph.num_nodes
        honest_only = np.zeros(n, dtype=bool)
        honest_only[: attack.num_honest] = True
        rng = np.random.default_rng(2)
        random_split = rng.random(n) < attack.num_honest / n
        assert infer.log_likelihood(honest_only) > infer.log_likelihood(random_split)

    def test_degenerate_sets_are_single_block(self, infer_setup):
        """All-True and all-False both reduce to the one-block model and
        score identically (every walk stays within its region)."""
        attack, infer = infer_setup
        n = attack.graph.num_nodes
        full = infer.log_likelihood(np.ones(n, dtype=bool))
        empty = infer.log_likelihood(np.zeros(n, dtype=bool))
        assert np.isfinite(full)
        assert full == pytest.approx(empty)


class TestInference:
    def test_recovers_honest_region(self, infer_setup):
        attack, infer = infer_setup
        result = infer.run(trusted=0)
        accepted = result.accepted(0.5)
        honest_frac, per_edge = attack.evaluate_accepted(accepted)
        assert honest_frac > 0.8
        assert per_edge < 3.0

    def test_trusted_always_honest(self, infer_setup):
        _, infer = infer_setup
        result = infer.run(trusted=5)
        assert result.honest_probability[5] == 1.0
        assert 5 in result.best_set

    def test_probabilities_are_probabilities(self, infer_setup):
        _, infer = infer_setup
        result = infer.run(trusted=0)
        assert np.all(result.honest_probability >= 0.0)
        assert np.all(result.honest_probability <= 1.0)

    def test_threshold_monotone(self, infer_setup):
        _, infer = infer_setup
        result = infer.run(trusted=0)
        assert result.accepted(0.9).size <= result.accepted(0.1).size

    def test_incremental_matches_batch_likelihood(self, infer_setup):
        """The MH sampler's counter-based likelihood must agree with the
        from-scratch computation on its final state."""
        attack, infer = infer_setup
        result = infer.run(trusted=0)
        member = np.zeros(infer.graph.num_nodes, dtype=bool)
        member[result.best_set] = True
        recomputed = infer.log_likelihood(member)
        assert recomputed == pytest.approx(result.best_log_likelihood, rel=1e-9)


def _twin_graphs() -> dict[str, Graph]:
    honest = barabasi_albert(150, 3, seed=11)
    clique = complete_graph(5)
    return {
        "ba": barabasi_albert(120, 3, seed=4),
        "attack-powerlaw": standard_attack(honest, 6, seed=1).graph,
        "attack-wild": standard_attack(honest, 6, seed=1, topology="wild").graph,
        # a 5-clique and two isolated nodes: X reaches every node with
        # an edge, so vol(V \ X) = 0 while the isolated nodes' walks
        # stay outside X
        "clique-isolated": Graph.from_edges(clique.edge_array(), num_nodes=7),
    }


TWIN_GRAPHS = _twin_graphs()


@pytest.mark.parametrize("trusted", [0, 1])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", list(TWIN_GRAPHS))
def test_sampler_matches_per_walk_oracle(name, seed, trusted):
    """The O(1)-proposal sampler with its log table takes every MH
    decision of the per-walk loop with scalar logs, bit for bit."""
    infer = SybilInfer(
        TWIN_GRAPHS[name], SybilInferConfig(num_samples=30, burn_in=15, seed=seed)
    )
    got = infer.run(trusted)
    want = oracles.sybilinfer_run(infer, trusted)
    assert got.honest_probability.dtype == want.honest_probability.dtype
    assert got.honest_probability.tobytes() == want.honest_probability.tobytes()
    assert got.best_set.dtype == want.best_set.dtype
    assert got.best_set.tobytes() == want.best_set.tobytes()
    assert type(got.best_log_likelihood) is float
    assert (
        np.float64(got.best_log_likelihood).tobytes()
        == np.float64(want.best_log_likelihood).tobytes()
    )
    if name == "clique-isolated":
        # the sampler starts in the vol(V \ X) <= 0 branch
        start = infer._initial_membership(trusted)
        assert start.sum() == 5
        assert infer.log_likelihood(start) == -np.inf


def test_log_table_has_scalar_log_bits():
    """Every entry of the volume-log table has the bits of a scalar
    ``np.log`` (``math.log`` differs at volume 9170, among others)."""
    infer = SybilInfer(
        barabasi_albert(1300, 4, seed=0), SybilInferConfig(num_samples=1, burn_in=0)
    )
    table = infer._log_volume
    assert len(table) == infer._total_volume + 1 > 9170
    assert all(table[v] == np.log(float(v)) for v in range(1, len(table)))
