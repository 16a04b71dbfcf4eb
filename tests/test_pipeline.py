"""Unit tests for the stage-DAG pipeline runner and its memoization."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.pipeline as pipeline_module
from repro.analysis import (
    figure1_mixing_profiles,
    figure3_expansion_summaries,
    figure4_expansion_factors,
    figure5_core_structures,
    table2_gatekeeper,
)
from repro.analysis.persistence import to_jsonable
from repro.analysis.report import measurement_report
from repro.cli import main
from repro.datasets import load_dataset
from repro.errors import PipelineError
from repro.pipeline import (
    Pipeline,
    Stage,
    fusion_comparison_pipeline,
    paper_measurement_pipeline,
)
from repro.privacy import privacy_frontier_pipeline, privacy_utility_frontier
from repro.store import ArtifactStore


def _counting(fn, calls, name):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


class TestDagValidation:
    def test_duplicate_names_rejected(self):
        stages = [Stage("a", lambda d: 1), Stage("a", lambda d: 2)]
        with pytest.raises(PipelineError):
            Pipeline(stages)

    def test_unknown_dep_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([Stage("a", lambda d: 1, deps=("ghost",))])

    def test_cycle_rejected(self):
        stages = [
            Stage("a", lambda d: 1, deps=("b",)),
            Stage("b", lambda d: 2, deps=("a",)),
        ]
        with pytest.raises(PipelineError):
            Pipeline(stages)

    def test_unknown_graph_stage_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline([Stage("a", lambda d: 1)], graph_stage="ghost")

    def test_unknown_target_rejected(self):
        pipe = Pipeline([Stage("a", lambda d: 1)])
        with pytest.raises(PipelineError):
            pipe.run(targets=["ghost"])

    def test_unknown_stage_lookup_rejected(self):
        pipe = Pipeline([Stage("a", lambda d: 1)])
        with pytest.raises(PipelineError):
            pipe.stage("ghost")


class TestExecution:
    def _diamond(self, calls):
        return [
            Stage("base", _counting(lambda d: 2, calls, "base"), digest="d0"),
            Stage(
                "left",
                _counting(lambda d: d["base"] + 1, calls, "left"),
                deps=("base",),
                digest="d0",
            ),
            Stage(
                "right",
                _counting(lambda d: d["base"] * 10, calls, "right"),
                deps=("base",),
                digest="d0",
            ),
            Stage(
                "join",
                _counting(lambda d: d["left"] + d["right"], calls, "join"),
                deps=("left", "right"),
                digest="d0",
            ),
        ]

    def test_results_flow_through_dag(self):
        calls: list[str] = []
        result = Pipeline(self._diamond(calls)).run()
        assert result.results["join"] == 23
        assert calls[0] == "base"
        assert calls[-1] == "join"

    def test_workers_fan_out_same_results(self):
        calls: list[str] = []
        result = Pipeline(self._diamond(calls), workers=3).run()
        assert result.results["join"] == 23

    def test_targets_run_only_needed_closure(self):
        calls: list[str] = []
        result = Pipeline(self._diamond(calls)).run(targets=["left"])
        assert set(calls) == {"base", "left"}
        assert "right" not in result.results

    def test_stage_names_topological(self):
        pipe = Pipeline(self._diamond([]))
        order = pipe.stage_names
        assert order.index("base") < order.index("left") < order.index("join")


class TestMemoization:
    def test_warm_run_executes_nothing(self, tmp_path):
        calls: list[str] = []
        store = ArtifactStore(tmp_path / "cache")
        diamond = TestExecution()._diamond(calls)
        cold = Pipeline(diamond, store=store).run()
        assert set(cold.executed) == {"base", "left", "right", "join"}
        calls.clear()
        warm = Pipeline(diamond, store=store).run()
        assert calls == []
        assert warm.executed == []
        assert set(warm.cached) == {"base", "left", "right", "join"}
        assert warm.results == cold.results
        assert warm.digest() == cold.digest()

    def test_uncacheable_stage_always_runs(self, tmp_path):
        calls: list[str] = []
        store = ArtifactStore(tmp_path / "cache")
        stages = [
            Stage(
                "a", _counting(lambda d: 5, calls, "a"), digest="d0", cacheable=False
            )
        ]
        Pipeline(stages, store=store).run()
        Pipeline(stages, store=store).run()
        assert calls == ["a", "a"]

    def test_version_bump_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        one = [Stage("a", lambda d: "old", digest="d0", version=1)]
        two = [Stage("a", lambda d: "new", digest="d0", version=2)]
        assert Pipeline(one, store=store).run().results["a"] == "old"
        assert Pipeline(two, store=store).run().results["a"] == "new"

    def test_interrupted_run_resumes_from_store(self, tmp_path):
        """A crash mid-DAG leaves completed stages warm for the rerun."""
        store = ArtifactStore(tmp_path / "cache")
        calls: list[str] = []

        def exploding(d):
            raise RuntimeError("midway failure")

        broken = [
            Stage("base", _counting(lambda d: 2, calls, "base"), digest="d0"),
            Stage("next", exploding, deps=("base",), digest="d0"),
        ]
        with pytest.raises(RuntimeError):
            Pipeline(broken, store=store).run()
        assert calls == ["base"]
        fixed = [
            Stage("base", _counting(lambda d: 2, calls, "base"), digest="d0"),
            Stage("next", lambda d: d["base"] + 1, deps=("base",), digest="d0"),
        ]
        result = Pipeline(fixed, store=store).run()
        assert result.results["next"] == 3
        assert calls == ["base"]  # base resumed warm, not re-executed
        assert result.cached == ["base"]


class TestUpstreamVersions:
    def test_bumped_stage_recomputes_what_is_built_on_it(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")

        def run():
            return paper_measurement_pipeline(
                "wiki_vote", scale=0.05, num_sources=5, store=store
            ).run()

        run()
        real = pipeline_module.spectral_stage

        def bumped(*args, **kwargs):
            # a stand-in algorithm change that moves mu
            stage = real(*args, **kwargs)

            def moved(deps):
                summary = stage.fn(deps)
                return {**summary, "slem": summary["slem"] + 1e-3}

            return replace(stage, fn=moved, version=stage.version + 1)

        monkeypatch.setattr(pipeline_module, "spectral_stage", bumped)
        warm = run()
        # the stages that read only the graph keep their keys
        assert set(warm.executed) == {"spectral", "tables"}
        assert warm.results["tables"]["slem"] == warm.results["spectral"]["slem"]


    def test_route_bump_recomputes_structure_scores(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")

        def run():
            return fusion_comparison_pipeline(
                "facebook_a", scale=0.03, store=store
            ).run()

        # the keys a cache written before the route-table change holds
        monkeypatch.setattr(pipeline_module, "_ROUTE_VERSION", 1)
        run()
        monkeypatch.undo()
        warm = run()
        assert set(warm.executed) == {"structure_scores", "report"}
        assert set(warm.cached) == {"load", "attack", "fusion_scores"}


class TestPaperPipeline:
    SCALE = 0.3
    SOURCES = 8

    def _build(self, store):
        return paper_measurement_pipeline(
            "rice_grad", scale=self.SCALE, num_sources=self.SOURCES, store=store
        )

    def test_unknown_target_rejected(self):
        with pytest.raises(PipelineError):
            paper_measurement_pipeline("/nonexistent/edges.txt")

    def test_cold_then_warm_zero_recompute(self, tmp_path, monkeypatch):
        """The acceptance bar: a warm run performs zero mixing/BFS/core
        recomputation and produces byte-identical stage results."""
        calls: list[str] = []
        for name in ("sampled_mixing_profile", "spectral_summary",
                     "core_structure", "envelope_expansion",
                     "gatekeeper_table_row"):
            monkeypatch.setattr(
                pipeline_module,
                name,
                _counting(getattr(pipeline_module, name), calls, name),
            )
        store = ArtifactStore(tmp_path / "cache")
        cold = self._build(store).run()
        assert "sampled_mixing_profile" in calls
        assert "spectral_summary" in calls
        assert "core_structure" in calls
        assert "envelope_expansion" in calls
        calls.clear()
        warm = self._build(ArtifactStore(tmp_path / "cache")).run()
        assert calls == []  # zero mixing/BFS/core recomputation
        assert warm.executed == []
        assert warm.digest() == cold.digest()

    def test_edge_list_file_target(self, tmp_path):
        from repro.generators import barabasi_albert
        from repro.graph import write_edge_list

        path = tmp_path / "edges.txt"
        write_edge_list(barabasi_albert(80, 3, seed=1), path)
        store = ArtifactStore(tmp_path / "cache")
        pipe = paper_measurement_pipeline(
            str(path), scale=1.0, num_sources=5, store=store
        )
        cold = pipe.run()
        assert cold.results["load"].num_nodes == 80
        warm = paper_measurement_pipeline(
            str(path), scale=1.0, num_sources=5,
            store=ArtifactStore(tmp_path / "cache"),
        ).run()
        assert warm.executed == []
        # editing the file invalidates the load key
        write_edge_list(barabasi_albert(81, 3, seed=2), path)
        changed = paper_measurement_pipeline(
            str(path), scale=1.0, num_sources=5,
            store=ArtifactStore(tmp_path / "cache"),
        ).run()
        assert "load" in changed.executed

    def test_second_name_for_one_graph_reports_its_own_name(self, tmp_path):
        """Stages after ``load`` are keyed by graph digest, so a second
        name for the same graph shares the measurements; the stages
        whose results carry the name must still miss and recompute."""
        from repro.datasets import load_dataset
        from repro.graph import write_edge_list

        self._build(ArtifactStore(tmp_path / "cache")).run()
        path = tmp_path / "rice.txt"
        write_edge_list(load_dataset("rice_grad", scale=self.SCALE, seed=0), path)

        def run_file(cache):
            return paper_measurement_pipeline(
                str(path), scale=self.SCALE, num_sources=self.SOURCES,
                store=ArtifactStore(cache),
            ).run()

        warm = run_file(tmp_path / "cache")
        assert warm.executed == ["load", "gatekeeper", "tables"]
        assert warm.results["tables"]["target"] == str(path)
        rows = warm.results["gatekeeper"]
        assert rows and {row.dataset for row in rows} == {str(path)}
        assert warm.digest() == run_file(tmp_path / "cold").digest()

    def test_partial_run_via_targets(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        result = self._build(store).run(targets=["cores"])
        assert set(result.results) == {"load", "cores"}

    def test_summary_lists_every_stage(self, tmp_path):
        result = self._build(ArtifactStore(tmp_path / "cache")).run()
        text = result.summary()
        for name in ("load", "mixing", "spectral", "cores", "expansion",
                     "gatekeeper", "tables"):
            assert name in text
        assert "computed" in text


class TestWarmMeasurementReport:
    def test_zero_recompute_and_identical_text(self, tmp_path, ba_small, monkeypatch):
        # the report's measurements are pipeline stages; patch the
        # engine calls where the stages make them
        calls: list[str] = []
        for name in ("sampled_mixing_profile", "spectral_summary",
                     "core_structure", "envelope_expansion",
                     "greedy_modularity"):
            monkeypatch.setattr(
                pipeline_module,
                name,
                _counting(getattr(pipeline_module, name), calls, name),
            )
        store = ArtifactStore(tmp_path / "cache")
        cold = measurement_report(ba_small, name="ba", num_sources=10, store=store)
        assert "sampled_mixing_profile" in calls
        assert "spectral_summary" in calls
        calls.clear()
        warm = measurement_report(
            ba_small, name="ba", num_sources=10,
            store=ArtifactStore(tmp_path / "cache"),
        )
        assert calls == []  # zero mixing/BFS/core recomputation
        assert warm == cold

    def test_report_and_pipeline_share_spectral_artifacts(self, tmp_path):
        """Stage names/params line up, so a pipeline run warms the report."""
        store = ArtifactStore(tmp_path / "cache")
        pipe = paper_measurement_pipeline(
            "rice_grad", scale=0.3, num_sources=50, store=store
        )
        pipe.run()
        hits_before = store.stats.hits
        graph = pipe.run().results["load"]
        measurement_report(graph, name="rice_grad", num_sources=50, store=store)
        assert store.stats.hits > hits_before


class TestOneDefinitionPerMeasurement:
    def test_standalone_callers_miss_nothing_the_pipeline_wrote(
        self, tmp_path, monkeypatch, capsys
    ):
        """Table II, Figures 3-5, the report and ``repro audit`` read the
        artifacts a paper pipeline run wrote for the same graph."""
        name, scale, cache = "wiki_vote", 0.05, tmp_path / "cache"
        # num_sources=50 is what ``repro audit`` measures
        result = paper_measurement_pipeline(
            name, scale=scale, num_sources=50, store=ArtifactStore(cache)
        ).run()
        missed: list[str] = []
        get = ArtifactStore.get

        def recording_get(self, subject, stage, params=None, version=1, default=None):
            value = get(self, subject, stage, params, version=version, default=default)
            if value is default:
                missed.append(stage)
            return value

        def misses(call) -> set[str]:
            missed.clear()
            call()
            return set(missed)

        monkeypatch.setattr(ArtifactStore, "get", recording_get)
        store = ArtifactStore(cache)
        assert misses(
            lambda: table2_gatekeeper(
                [name], num_controllers=2, scale=scale, store=store
            )
        ) == set()
        for figure in (figure3_expansion_summaries, figure4_expansion_factors):
            assert misses(
                lambda: figure([name], num_sources=50, scale=scale, store=store)
            ) == set()
        assert misses(
            lambda: figure5_core_structures([name], scale=scale, store=store)
        ) == set()
        # the report's walk-length grid and its partition are its own
        # artifacts; its spectral, cores and expansion stages are shared
        assert misses(
            lambda: measurement_report(
                result.results["load"], name=name, num_sources=50, store=store
            )
        ) == {"mixing", "community"}
        audit = ["audit", name, "--scale", str(scale), "--cache-dir", str(cache)]
        assert misses(lambda: main(audit)) == set()


class TestNumpyWalkLengths:
    """Walk lengths given as numpy integers are keyed as Python ints."""

    LENGTHS = np.array([1, 2, 4])

    @pytest.mark.parametrize("cached", [False, True], ids=["no-store", "store"])
    def test_every_entry_point_accepts_them(self, tmp_path, cached):
        store = ArtifactStore(tmp_path / "cache") if cached else None
        paper = paper_measurement_pipeline(
            "rice_grad", scale=0.3, num_sources=5, walk_lengths=self.LENGTHS,
            store=store,
        ).run(targets=["mixing"])
        assert paper.results["mixing"].walk_lengths.tolist() == [1, 2, 4]
        frontier_args = dict(
            ts=(0,), defenses=("sybilrank",), suspect_sample=10,
            num_sources=5, walk_lengths=self.LENGTHS,
        )
        swept = privacy_frontier_pipeline(
            "rice_grad", scale=0.3, store=store, **frontier_args
        ).run()
        assert swept.results["frontier"].walk_lengths.tolist() == [1, 2, 4]
        direct = privacy_utility_frontier(
            load_dataset("rice_grad", scale=0.3), **frontier_args
        )
        assert direct.walk_lengths.tolist() == [1, 2, 4]
        profiles = figure1_mixing_profiles(
            ["rice_grad"], walk_lengths=list(self.LENGTHS), num_sources=5,
            scale=0.3, store=store,
        )
        assert profiles["rice_grad"].walk_lengths.tolist() == [1, 2, 4]


class TestResultDigest:
    def test_digest_covers_results(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        a = Pipeline([Stage("a", lambda d: 1, digest="d0")], store=store).run()
        b = Pipeline([Stage("a", lambda d: 2, digest="d1")], store=store).run()
        assert a.digest() != b.digest()
        assert to_jsonable(a.results) == {"a": 1}
