"""Unit tests for result serialization and ASCII charts."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import ascii_chart, persistence
from repro.analysis.persistence import (
    from_jsonable,
    register_result_type,
    to_jsonable,
)
from repro.cores import core_structure
from repro.errors import ReproError
from repro.expansion import aggregate_by_set_size, envelope_expansion
from repro.graph import Graph
from repro.mixing import sampled_mixing_profile
from repro.sybil.harness import DefenseOutcome
from repro.sybil.tickets import TicketPlan


def _instances():
    """One representative instance per registered result dataclass."""
    from repro.analysis.experiments import DatasetSummary
    from repro.anonymity.mixes import AnonymityProfile
    from repro.cores.statistics import CoreStructure
    from repro.dht.whanau import LookupResult
    from repro.dtn.simbet import DeliveryStats
    from repro.dynamics.tracking import SnapshotMetrics
    from repro.expansion.envelope import (
        ExpansionMeasurement,
        ExpansionSummary,
        SourceExpansion,
    )
    from repro.mixing.sampling import MixingProfile
    from repro.mixing.spectral import MixingBounds
    from repro.sybil.attack import SybilAttack
    from repro.sybil.comparison import DefenseScores
    from repro.sybil.escape import EscapeMeasurement
    from repro.sybil.fusion import (
        BeliefPropagationResult,
        FusionConfig,
        PriorConfig,
        SybilFrameResult,
        SybilFuseResult,
    )
    from repro.dynamics.evolution import GraphDelta
    from repro.privacy.frontier import PrivacyFrontier, PrivacyPoint
    from repro.serve.loadgen import LatencySummary, LoadReport
    from repro.serve.service import CompactionStats, ServiceStats
    from repro.sybil.gatekeeper import GateKeeperConfig, GateKeeperResult
    from repro.sybil.sumup import SumUpResult
    from repro.sybil.sybilinfer import SybilInferResult
    from repro.sybil.sybilrank import SybilRankResult
    from repro.sybil.tickets import TicketDistribution

    config = GateKeeperConfig(
        num_distributors=3,
        admission_factor=0.2,
        reach_fraction=0.5,
        walk_length_factor=1.0,
        seed=7,
    )
    return [
        AnonymityProfile(
            walk_lengths=np.array([1, 5]),
            mean_entropy=np.array([0.4, 1.2]),
            max_entropy=2.0,
            mean_tvd=np.array([0.9, 0.3]),
        ),
        CoreStructure(
            ks=np.arange(3),
            node_fraction=np.array([1.0, 0.5, 0.1]),
            edge_fraction=np.array([1.0, 0.6, 0.2]),
            num_cores=np.array([1, 1, 2]),
        ),
        DefenseOutcome(
            dataset="x",
            defense="gatekeeper",
            parameter=0.2,
            honest_acceptance=0.95,
            sybils_per_attack_edge=1.5,
            num_controllers=3,
        ),
        DeliveryStats(delivered=4, total=5, mean_hops=2.5, mean_rounds=6.0),
        EscapeMeasurement(
            walk_lengths=np.array([1, 2]),
            escape=np.array([0.1, 0.4]),
            num_attack_edges=3,
            honest_edges=40,
        ),
        ExpansionMeasurement(
            sources=np.array([0, 1]),
            set_sizes=np.array([2, 3]),
            neighbor_counts=np.array([4, 5]),
        ),
        ExpansionSummary(
            set_sizes=np.array([2, 3]),
            minimum=np.array([1.0, 1.5]),
            mean=np.array([2.0, 2.5]),
            maximum=np.array([3.0, 3.5]),
            count=np.array([5, 4]),
        ),
        config,
        GateKeeperResult(
            controller=0,
            distributors=np.array([1, 2]),
            reach_counts=np.array([10, 12]),
            admitted=np.array([3, 4, 5]),
            config=config,
        ),
        LookupResult(key=9, source=1, found_owner=None, tries=3),
        MixingBounds(slem=0.8, epsilon=0.25, num_nodes=100, lower=2.0, upper=40.0),
        MixingProfile(
            walk_lengths=np.array([1, 10]),
            sources=np.array([0, 5]),
            tvd=np.array([[0.9, 0.2], [0.8, 0.1]]),
            lazy=True,
        ),
        SourceExpansion(source=3, level_sizes=np.array([1, 4, 9])),
        SybilAttack(
            graph=Graph.from_edges([(0, 1), (1, 2), (2, 3)]),
            num_honest=3,
            attack_edges=np.array([[2, 3]], dtype=np.int64),
        ),
        DefenseScores(
            defense="sybilframe",
            nodes=np.array([0, 1, 2], dtype=np.int64),
            scores=np.array([0.9, 0.8, 0.1]),
            auc=1.0,
        ),
        BeliefPropagationResult(
            beliefs=np.array([[0.2, 0.8], [0.7, 0.3]]),
            converged=True,
            rounds=12,
            delta=1e-7,
        ),
        FusionConfig(homophily=0.85, walk_mix=0.25, seed=3),
        PriorConfig(behavior_noise=0.05, seed=11),
        SybilFrameResult(
            posterior=np.array([0.95, 0.1]),
            priors=np.array([0.8, 0.3]),
            converged=True,
            rounds=7,
        ),
        SybilFuseResult(
            scores=np.array([0.9, 0.2]),
            posterior=np.array([0.95, 0.1]),
            walk_trust=np.array([0.8, 0.5]),
            converged=False,
            rounds=50,
        ),
        SumUpResult(
            collector=0, voters=np.array([1, 2, 3]), collected_votes=2, max_possible=3
        ),
        SybilInferResult(
            honest_probability=np.array([0.9, 0.1]),
            best_set=np.array([0]),
            best_log_likelihood=-1.5,
        ),
        SybilRankResult(
            trust=np.array([0.5, 0.25]), normalized=np.array([0.1, 0.05])
        ),
        TicketDistribution(
            source=0,
            tickets_sent=12.0,
            node_tickets=np.array([4.0, 3.0]),
            reached=np.array([0, 1]),
            edge_tickets={(0, 1): 2.0, (1, 2): 1.5},
        ),
        DatasetSummary(
            name="facebook_a",
            num_nodes=10,
            num_edges=20,
            slem=0.9,
            paper_nodes=1000,
            paper_edges=2000,
            mixing_regime="slow",
        ),
        SnapshotMetrics(
            step=1,
            num_nodes=50,
            num_edges=80,
            slem=0.7,
            degeneracy=4,
            max_cores=2,
            mean_small_set_expansion=1.8,
        ),
        _privacy_point(),
        PrivacyFrontier(
            target="wiki_vote",
            topology="powerlaw",
            ts=np.array([0]),
            walk_lengths=np.array([1, 5]),
            points=[_privacy_point()],
        ),
        GraphDelta(
            num_new_nodes=2,
            added=np.array([[0, 4], [1, 5]], dtype=np.int64),
            removed=np.array([[0, 1]], dtype=np.int64),
        ),
        CompactionStats(
            version=3,
            pause_seconds=0.004,
            folded_added=12,
            folded_removed=2,
            folded_new_nodes=1,
            num_nodes=101,
            num_edges=250,
            digest="ab" * 32,
        ),
        ServiceStats(
            snapshot_version=3,
            snapshot_digest="ab" * 32,
            num_nodes=101,
            num_edges=252,
            snapshot_nodes=101,
            snapshot_edges=250,
            overlay_edges=2,
            overlay_new_nodes=0,
            staleness=2,
            queries=40,
            writes=15,
            compactions=3,
            cache_hits=30,
            cache_misses=10,
        ),
        _latency_summary(),
        LoadReport(
            target="wiki_vote",
            transport="in-process",
            num_clients=2,
            total_requests=100,
            errors=0,
            duration_seconds=0.5,
            qps=200.0,
            p50_ms=1.5,
            p99_ms=9.0,
            summaries=[_latency_summary()],
            compaction_pauses_ms=[3.5, 4.0],
            compactions=2,
        ),
    ]


def _latency_summary():
    from repro.serve.loadgen import LatencySummary

    return LatencySummary(
        op="rank",
        count=60,
        mean_ms=2.0,
        p50_ms=1.5,
        p95_ms=6.0,
        p99_ms=9.0,
        max_ms=11.0,
    )


def _privacy_point():
    from repro.privacy.frontier import PrivacyPoint

    return PrivacyPoint(
        t=2,
        num_edges=40,
        edge_overlap=0.6,
        lcc_fraction=1.0,
        slem=0.85,
        mixing_tvd=np.array([0.4, 0.1]),
        mixing_time=None,
        degeneracy=3,
        max_cores=1,
        mean_small_set_expansion=2.1,
        defense_auc={"sybilrank": 0.8},
        outcomes=[
            DefenseOutcome(
                dataset="wiki_vote",
                defense="sybilrank",
                parameter=0.0,
                honest_acceptance=0.9,
                sybils_per_attack_edge=1.0,
                num_controllers=1,
            )
        ],
    )


def _round_trip(obj):
    """Encode to JSON text and back, then decode: the store's path."""
    return from_jsonable(json.loads(json.dumps(to_jsonable(obj))))


def _fields_equal(a, b):
    for field in dataclasses.fields(a):
        _values_equal(getattr(a, field.name), getattr(b, field.name), field.name)


def _values_equal(x, y, name):
    if isinstance(x, np.ndarray):
        assert np.array_equal(x, y), name
        assert x.dtype == y.dtype, name
    elif dataclasses.is_dataclass(x):
        _fields_equal(x, y)
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), name
        for xi, yi in zip(x, y):
            _values_equal(xi, yi, name)
    else:
        assert x == y, name


class TestRegisteredResultTypes:
    def test_every_registered_type_has_an_instance(self):
        covered = {type(obj).__name__ for obj in _instances()}
        registered = set(persistence._REGISTRY) | set(persistence._LAZY_TYPES)
        assert covered == registered

    @pytest.mark.parametrize(
        "instance", _instances(), ids=lambda obj: type(obj).__name__
    )
    def test_round_trip(self, instance):
        loaded = _round_trip(instance)
        assert type(loaded) is type(instance)
        _fields_equal(instance, loaded)

    def test_graph_round_trip(self, ba_small):
        restored = from_jsonable(to_jsonable(ba_small))
        assert restored == ba_small

    def test_ticket_plan_round_trip(self, ba_small):
        plan = TicketPlan(ba_small, source=0)
        restored = from_jsonable(to_jsonable(plan))
        assert isinstance(restored, TicketPlan)
        assert restored.source == plan.source
        assert np.array_equal(restored.distances, plan.distances)
        # the restored plan is functional, not just structurally equal
        cold, warm = plan.run(8.0), restored.run(8.0)
        assert np.array_equal(cold.node_tickets, warm.node_tickets)

    def test_tuple_key_dict_round_trip(self):
        payload = {(0, 1): 2.0, (3, 4): 5.0}
        assert from_jsonable(to_jsonable(payload)) == payload

    def test_unregistered_dataclass_names_offender(self):
        @dataclasses.dataclass
        class Mystery:
            x: int

        with pytest.raises(ReproError, match="Mystery"):
            to_jsonable([Mystery(x=1)])
        with pytest.raises(ReproError, match="register_result_type"):
            to_jsonable(Mystery(x=1))

    def test_register_rejects_non_dataclass(self):
        with pytest.raises(ReproError):
            register_result_type(dict)

    def test_register_rejects_name_collision(self):
        @dataclasses.dataclass
        class MixingProfile:  # same name as the real one
            x: int

        with pytest.raises(ReproError):
            register_result_type(MixingProfile)


class TestPersistence:
    def test_ndarray_round_trip(self):
        arr = np.array([1.5, 2.5, 3.5])
        loaded = _round_trip({"values": arr})
        assert np.array_equal(loaded["values"], arr)
        assert loaded["values"].dtype == arr.dtype

    def test_mixing_profile_round_trip(self, ba_small):
        profile = sampled_mixing_profile(
            ba_small, walk_lengths=[1, 4], num_sources=5, seed=0
        )
        loaded = _round_trip(profile)
        assert np.allclose(loaded.tvd, profile.tvd)
        assert np.array_equal(loaded.walk_lengths, profile.walk_lengths)
        assert loaded.lazy == profile.lazy

    def test_core_structure_round_trip(self, ba_small):
        structure = core_structure(ba_small)
        loaded = _round_trip(structure)
        assert np.array_equal(loaded.num_cores, structure.num_cores)
        assert np.allclose(loaded.node_fraction, structure.node_fraction)

    def test_expansion_summary_round_trip(self, ba_small):
        summary = aggregate_by_set_size(
            envelope_expansion(ba_small, num_sources=5, seed=0)
        )
        loaded = _round_trip(summary)
        assert np.allclose(loaded.mean, summary.mean)

    def test_defense_outcome_round_trip(self):
        outcome = DefenseOutcome(
            dataset="x",
            defense="gatekeeper",
            parameter=0.2,
            honest_acceptance=0.95,
            sybils_per_attack_edge=1.5,
            num_controllers=3,
        )
        loaded = _round_trip([outcome, outcome])
        assert loaded[0] == outcome
        assert len(loaded) == 2

    def test_nested_structures(self):
        payload = {"a": [1, 2.5, "s", None, True], "b": {"c": np.arange(3)}}
        loaded = _round_trip(payload)
        assert loaded["a"] == [1, 2.5, "s", None, True]
        assert np.array_equal(loaded["b"]["c"], np.arange(3))

    def test_unserializable_rejected(self):
        with pytest.raises(ReproError):
            to_jsonable({"f": lambda: None})


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = ascii_chart(
            {"up": ([0, 1, 2], [0, 1, 2]), "down": ([0, 1, 2], [2, 1, 0])},
            title="T",
        )
        assert "T" in chart
        assert "o=up" in chart
        assert "x=down" in chart
        assert "o" in chart.splitlines()[1] or "o" in chart

    def test_axis_labels_present(self):
        chart = ascii_chart({"s": ([1, 10], [0.5, 5.0])})
        assert "0.5" in chart
        assert "5" in chart

    def test_constant_series_handled(self):
        chart = ascii_chart({"flat": ([0, 1], [1.0, 1.0])})
        assert "flat" in chart

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            ascii_chart({})

    def test_too_small_canvas_rejected(self):
        with pytest.raises(ReproError):
            ascii_chart({"s": ([0], [0])}, width=2, height=2)

    def test_too_many_series_rejected(self):
        series = {f"s{i}": ([0, 1], [0, 1]) for i in range(12)}
        with pytest.raises(ReproError):
            ascii_chart(series)


class TestMeasurementReport:
    def test_fast_graph_verdict(self, ba_small):
        from repro.analysis import measurement_report

        report = measurement_report(ba_small, name="ba", num_sources=15)
        assert "# Measurement report — ba" in report
        assert "**PASS**" in report
        assert "as published" in report

    def test_slow_graph_verdict(self, community_small):
        from repro.analysis import measurement_report

        report = measurement_report(community_small, name="slow", num_sources=15)
        assert "**FAIL**" in report
        assert "Slow mixing" in report

    def test_periodic_graph_has_no_bounds(self):
        from repro.analysis import measurement_report
        from repro.generators import cycle_graph

        report = measurement_report(cycle_graph(40), name="even", num_sources=5)
        assert (
            "* Sinclair bounds on T(1/n): none: periodic chain (bipartite graph)"
            in report
        )

    def test_tiny_graph_rejected(self):
        from repro.analysis import measurement_report
        from repro.errors import GraphError
        from repro.graph import Graph

        with pytest.raises(GraphError):
            measurement_report(Graph.from_edges([(0, 1)]))
