"""Declarative stage-DAG runner for the paper's measurement pipeline.

The paper's headline artifacts (Tables I/II, Figures 1-5) all derive
from a small DAG of expensive measurements over one graph::

    load ─┬─ mixing ────┐
          ├─ spectral ──┤
          ├─ cores ─────┼── tables
          ├─ expansion ─┤
          └─ gatekeeper ┘

This module runs such DAGs: a :class:`Stage` names one measurement (its
dependencies, its function, its cache parameters), and a
:class:`Pipeline` topologically schedules the stages, fans independent
ready stages out over the shared :mod:`repro.chunking` thread runner,
and memoizes every stage through a :class:`repro.store.ArtifactStore`.
Because each completed stage is persisted under a content-addressed key
the moment it finishes, a crashed or interrupted run resumes where it
left off, and a warm rerun executes nothing at all.

:func:`paper_measurement_pipeline` builds the standard DAG above for
one dataset analog or edge-list file; ``python -m repro pipeline run``
is its CLI face.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from contextlib import nullcontext

from repro import parallel, telemetry
from repro.chunking import run_chunks
from repro.cores.statistics import core_structure
from repro.datasets import available_datasets, dataset_fingerprint, load_dataset
from repro.errors import PipelineError
from repro.expansion.envelope import envelope_expansion
from repro.graph.core import Graph
from repro.graph.io import read_edge_list
from repro.graph.ops import largest_connected_component
from repro.mixing.sampling import sampled_mixing_profile
from repro.mixing.spectral import spectral_summary
from repro.store import ArtifactStore, graph_digest
from repro.sybil.comparison import (
    FUSION_DEFENSE_NAMES,
    STRUCTURE_DEFENSE_NAMES,
    defense_scores,
)
from repro.sybil.harness import gatekeeper_table_row, standard_attack

__all__ = [
    "Stage",
    "StageRun",
    "Pipeline",
    "PipelineResult",
    "paper_measurement_pipeline",
    "PAPER_STAGES",
    "fusion_comparison_pipeline",
    "FUSION_STAGES",
    "target_digest",
    "load_target",
]

#: Stage names of the standard paper pipeline, in topological order.
PAPER_STAGES = (
    "load",
    "mixing",
    "spectral",
    "cores",
    "expansion",
    "gatekeeper",
    "tables",
)

#: Stage names of the fusion-vs-structure comparison pipeline.
FUSION_STAGES = (
    "load",
    "attack",
    "structure_scores",
    "fusion_scores",
    "report",
)


@dataclass(frozen=True)
class Stage:
    """One node of the measurement DAG.

    Attributes
    ----------
    name:
        Unique stage name; also the cache stage name.
    fn:
        ``fn(deps)`` where ``deps`` maps each dependency name to its
        result.  Must be deterministic in ``(graph, params)``.
    deps:
        Names of stages whose results ``fn`` consumes.
    params:
        JSON-friendly parameters folded into the cache key.  Execution
        knobs that do not change the result (worker counts, chunk
        sizes) must stay out; anything else the result records, such
        as the target name, must be in, since one graph digest covers
        every name the same graph is loaded under.
    version:
        Per-stage algorithm version; bump to invalidate cached entries
        when the stage's algorithm changes.
    cacheable:
        False for stages whose results should never be persisted.
    digest:
        Explicit cache-key digest for stages that run before the
        subject graph exists (e.g. the generation stage keyed by a
        dataset fingerprint).  Stages without one are keyed by the
        digest of the graph produced by the pipeline's graph stage.
    """

    name: str
    fn: Callable[[dict[str, Any]], Any]
    deps: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    version: int = 1
    cacheable: bool = True
    digest: str | None = None


@dataclass(frozen=True)
class StageRun:
    """Execution record for one stage of one run.

    ``seconds`` is wall-clock; ``cpu_seconds`` is the thread-CPU time
    the stage consumed (0 for cache hits, which only deserialize).
    """

    name: str
    cached: bool
    seconds: float
    cpu_seconds: float = 0.0


class PipelineResult:
    """Results and execution records of one :meth:`Pipeline.run`."""

    def __init__(self, results: dict[str, Any], runs: list[StageRun]) -> None:
        self.results = results
        self.runs = runs

    @property
    def executed(self) -> list[str]:
        """Stages that actually ran (cache misses or uncacheable)."""
        return [r.name for r in self.runs if not r.cached]

    @property
    def cached(self) -> list[str]:
        """Stages served from the artifact store."""
        return [r.name for r in self.runs if r.cached]

    def digest(self) -> str:
        """Content digest of every stage result, for run-to-run diffing.

        Byte-identical results — the warm-vs-cold acceptance bar —
        produce identical digests.
        """
        from repro.analysis.persistence import to_jsonable

        payload = json.dumps(
            {name: to_jsonable(value) for name, value in self.results.items()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        """Human-readable per-stage status table (wall and CPU seconds)."""
        width = max((len(r.name) for r in self.runs), default=5)
        lines = [f"{'stage':<{width}}  status    seconds  cpu-sec"]
        for r in self.runs:
            status = "cached" if r.cached else "computed"
            lines.append(
                f"{r.name:<{width}}  {status:<8}  {r.seconds:7.3f}  "
                f"{r.cpu_seconds:7.3f}"
            )
        return "\n".join(lines)


class Pipeline:
    """Topological scheduler with per-stage memoization.

    Parameters
    ----------
    stages:
        The DAG nodes; dependency names must refer to other stages and
        the graph must be acyclic (validated here).
    store:
        Optional :class:`~repro.store.ArtifactStore`; without one every
        stage executes.
    workers:
        Thread count for fanning out independent ready stages
        (:func:`repro.chunking.run_chunks` semantics).
    graph_stage:
        Name of the stage producing the subject :class:`Graph`; its
        result's digest keys every stage without an explicit digest.
    executor:
        Execution backend advertised ambiently to every engine call
        the stage functions make (:func:`repro.parallel.execution`).
        Stage closures themselves stay thread-scheduled — they are not
        picklable — but with ``executor="process"`` the batch engines,
        the walk engine and the BP engine they invoke fan their chunks
        out over the shared-memory process pool.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store: ArtifactStore | None = None,
        workers: int | None = None,
        graph_stage: str | None = None,
        executor: str | None = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise PipelineError("duplicate stage names in pipeline")
        self._stages = {s.name: s for s in stages}
        for s in stages:
            for dep in s.deps:
                if dep not in self._stages:
                    raise PipelineError(
                        f"stage {s.name!r} depends on unknown stage {dep!r}"
                    )
        if graph_stage is not None and graph_stage not in self._stages:
            raise PipelineError(f"unknown graph stage {graph_stage!r}")
        self._graph_stage = graph_stage
        self._store = store
        self._workers = workers
        self._executor = executor
        self._order = self._topological_order()

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in topological order."""
        return tuple(self._order)

    @property
    def store(self) -> ArtifactStore | None:
        """The artifact store stages are memoized through, if any."""
        return self._store

    def stage(self, name: str) -> Stage:
        """Return the stage definition for ``name``."""
        try:
            return self._stages[name]
        except KeyError:
            raise PipelineError(f"unknown pipeline stage {name!r}") from None

    def _topological_order(self) -> list[str]:
        indegree = {name: len(s.deps) for name, s in self._stages.items()}
        ready = sorted(name for name, d in indegree.items() if d == 0)
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for other in sorted(self._stages):
                if name in self._stages[other].deps:
                    indegree[other] -= 1
                    if indegree[other] == 0:
                        ready.append(other)
            ready.sort()
        if len(order) != len(self._stages):
            cyclic = sorted(set(self._stages) - set(order))
            raise PipelineError(f"pipeline has a dependency cycle through {cyclic}")
        return order

    def _needed(self, targets: Sequence[str] | None) -> set[str]:
        if targets is None:
            return set(self._stages)
        needed: set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name not in self._stages:
                raise PipelineError(f"unknown pipeline target {name!r}")
            if name in needed:
                continue
            needed.add(name)
            frontier.extend(self._stages[name].deps)
        return needed

    def run(self, targets: Sequence[str] | None = None) -> PipelineResult:
        """Execute the DAG (or the closure of ``targets``) and return results.

        Ready stages of each wave run concurrently when ``workers`` is
        set; every cacheable stage is served from the store when its
        key is present, and persisted the moment it completes
        otherwise — which is what makes interrupted runs resumable.
        """
        needed = self._needed(targets)
        results: dict[str, Any] = {}
        runs: dict[str, StageRun] = {}
        pending = [n for n in self._order if n in needed]
        tel = telemetry.current()
        # With an executor set, every engine call inside the stage
        # functions inherits it ambiently; the wave scheduler itself
        # stays thread-based (stage closures are not picklable).
        scope = (
            parallel.execution(executor=self._executor, workers=self._workers)
            if self._executor is not None
            else nullcontext()
        )
        with scope:
            self._run_waves(pending, results, runs, tel)
        ordered = [runs[n] for n in self._order if n in runs]
        return PipelineResult(results, ordered)

    def _run_waves(
        self,
        pending: list[str],
        results: dict[str, Any],
        runs: dict[str, StageRun],
        tel: telemetry.Telemetry,
    ) -> None:
        subject: str | None = None
        done: set[str] = set()
        while pending:
            ready = [
                n for n in pending if all(d in done for d in self._stages[n].deps)
            ]
            if not ready:  # pragma: no cover - ctor already rejects cycles
                raise PipelineError("pipeline stalled; dependency cycle at runtime")
            tel.count("pipeline.waves")
            tel.gauge_max("pipeline.max_wave_occupancy", len(ready))

            def run_one(columns: slice) -> None:
                for name in ready[columns]:
                    runs[name] = self._run_stage(self._stages[name], results, subject)

            run_chunks(
                run_one,
                [slice(i, i + 1) for i in range(len(ready))],
                self._workers,
                span=None,
            )
            done.update(ready)
            pending = [n for n in pending if n not in done]
            if (
                subject is None
                and self._graph_stage in done
                and isinstance(results.get(self._graph_stage), Graph)
            ):
                subject = graph_digest(results[self._graph_stage])

    def _run_stage(
        self, stage: Stage, results: dict[str, Any], subject: str | None
    ) -> StageRun:
        tel = telemetry.current()
        start = time.perf_counter()
        cpu_start = time.thread_time()
        key_digest = stage.digest if stage.digest is not None else subject
        use_store = (
            self._store is not None and stage.cacheable and key_digest is not None
        )
        if use_store:
            miss = object()
            value = self._store.get(
                key_digest, stage.name, stage.params, version=stage.version,
                default=miss,
            )
            if value is not miss:
                results[stage.name] = value
                tel.count("pipeline.stage_cache_hits")
                tel.count(f"pipeline.stage.{stage.name}.cache_hits")
                return StageRun(
                    stage.name,
                    True,
                    time.perf_counter() - start,
                    time.thread_time() - cpu_start,
                )
        with tel.span(f"pipeline.stage.{stage.name}"):
            value = stage.fn({d: results[d] for d in stage.deps})
        if use_store:
            self._store.put(
                key_digest, stage.name, stage.params, value, version=stage.version
            )
        results[stage.name] = value
        tel.count("pipeline.stage_computed")
        return StageRun(
            stage.name,
            False,
            time.perf_counter() - start,
            time.thread_time() - cpu_start,
        )


def target_digest(target: str, scale: float, seed: int) -> str:
    """Content digest identifying a load stage's input.

    Bundled analogs are fingerprinted by their registry spec; edge-list
    files by their bytes, so editing the file invalidates the cache.
    Shared by every pipeline builder (paper, fusion, privacy frontier)
    so equal targets hit the same cached load stage.
    """
    if target in available_datasets():
        return dataset_fingerprint(target, scale=scale, seed=seed)
    path = Path(target)
    if not path.exists():
        raise PipelineError(
            f"{target!r} is neither a bundled dataset nor a readable file"
        )
    digest = hashlib.sha256(b"repro-edgelist-v1")
    digest.update(path.read_bytes())
    return digest.hexdigest()


def load_target(target: str, scale: float, seed: int) -> Graph:
    """Load a pipeline subject: a bundled analog or an edge-list file.

    Edge-list files are reduced to their largest connected component,
    matching the paper's preprocessing.
    """
    if target in available_datasets():
        return load_dataset(target, scale=scale, seed=seed)
    raw = read_edge_list(Path(target))
    graph, _ = largest_connected_component(raw)
    return graph


def _render_tables(target: str, deps: dict[str, Any]) -> dict[str, Any]:
    """Deterministic headline numbers per measurement stage."""
    graph: Graph = deps["load"]
    profile = deps["mixing"]
    spectral = deps["spectral"]
    structure = deps["cores"]
    measurement = deps["expansion"]
    outcomes = deps["gatekeeper"]
    small = measurement.set_sizes <= max(graph.num_nodes // 10, 1)
    alpha = (
        float(measurement.expansion_factors[small].mean()) if small.any() else 0.0
    )
    return {
        "target": target,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "slem": spectral["slem"],
        "mixing_mean_tvd": profile.mean,
        "walk_lengths": profile.walk_lengths,
        "fast_mixing": spectral["fast"],
        "degeneracy": structure.degeneracy,
        "max_cores": int(structure.num_cores.max()),
        "mean_small_set_expansion": alpha,
        "gatekeeper": outcomes,
    }


def paper_measurement_pipeline(
    target: str,
    scale: float = 0.25,
    seed: int = 0,
    num_sources: int = 50,
    walk_lengths: Sequence[int] | None = None,
    num_controllers: int = 2,
    store: ArtifactStore | None = None,
    workers: int | None = None,
    executor: str | None = None,
) -> Pipeline:
    """Build the standard paper DAG for one target graph.

    ``target`` is a bundled analog name or an edge-list path.  The
    stage names and cache parameters match the store-aware experiment
    runners in :mod:`repro.analysis.experiments`, so pipeline runs and
    ``repro reproduce --cache-dir`` share warm artifacts.
    """
    lengths = list(walk_lengths or [1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 50])
    load_digest = target_digest(target, scale, seed)

    def load(_: dict[str, Any]) -> Graph:
        return load_target(target, scale, seed)

    def mixing(deps: dict[str, Any]):
        return sampled_mixing_profile(
            deps["load"],
            walk_lengths=lengths,
            num_sources=num_sources,
            seed=seed,
        )

    def spectral(deps: dict[str, Any]) -> dict[str, Any]:
        return spectral_summary(
            deps["load"], fast_sources=min(num_sources, 30), seed=seed
        )

    def cores(deps: dict[str, Any]):
        return core_structure(deps["load"])

    def expansion(deps: dict[str, Any]):
        graph = deps["load"]
        return envelope_expansion(
            graph, num_sources=min(num_sources, graph.num_nodes), seed=seed
        )

    def gatekeeper(deps: dict[str, Any]):
        graph = deps["load"]
        edges = max(graph.num_nodes // 100, 5)
        return gatekeeper_table_row(
            graph,
            dataset=target,
            num_attack_edges=edges,
            num_controllers=num_controllers,
            seed=seed,
        )

    def tables(deps: dict[str, Any]) -> dict[str, Any]:
        return _render_tables(target, deps)

    measure_params = {"num_sources": num_sources, "seed": seed}
    stages = [
        Stage(
            "load",
            load,
            params={"target": target, "scale": scale, "seed": seed},
            digest=load_digest,
        ),
        Stage(
            "mixing",
            mixing,
            deps=("load",),
            params={**measure_params, "walk_lengths": lengths},
        ),
        Stage(
            "spectral",
            spectral,
            deps=("load",),
            params={"seed": seed, "fast_sources": min(num_sources, 30)},
        ),
        Stage("cores", cores, deps=("load",), params={}),
        Stage("expansion", expansion, deps=("load",), params=measure_params),
        Stage(
            "gatekeeper",
            gatekeeper,
            deps=("load",),
            # the rows carry the target name (DefenseOutcome.dataset)
            params={
                "target": target,
                "num_controllers": num_controllers,
                "seed": seed,
            },
            # v2: distributor selection runs on the vectorized walk
            # engine (per-walk seed streams), changing sampled walks
            version=2,
        ),
        Stage(
            "tables",
            tables,
            deps=("load", "mixing", "spectral", "cores", "expansion", "gatekeeper"),
            version=2,
            params={
                **measure_params,
                "target": target,
                "walk_lengths": lengths,
                "num_controllers": num_controllers,
            },
        ),
    ]
    return Pipeline(
        stages, store=store, workers=workers, graph_stage="load",
        executor=executor,
    )


def fusion_comparison_pipeline(
    target: str,
    scale: float = 0.25,
    seed: int = 0,
    num_attack_edges: int | None = None,
    topology: str = "wild",
    suspect_sample: int = 120,
    store: ArtifactStore | None = None,
    workers: int | None = None,
    executor: str | None = None,
) -> Pipeline:
    """Build the fusion-vs-structure ablation DAG for one target graph.

    Loads ``target``, attaches a Sybil region (``topology="wild"`` by
    default — the sparse regime where structure-only defenses lose
    their cut), extracts every defense's trust-score view in two
    independent stages (the structure-only eight and the fusion two, so
    they memoize separately and run concurrently), and reports the
    per-defense midrank AUC table with the headline verdict: does each
    fusion defense beat every structure-only AUC?
    """
    load_digest = target_digest(target, scale, seed)

    def load(_: dict[str, Any]) -> Graph:
        return load_target(target, scale, seed)

    def attack(deps: dict[str, Any]):
        graph: Graph = deps["load"]
        edges = (
            num_attack_edges
            if num_attack_edges is not None
            else max(graph.num_nodes // 20, 5)
        )
        return standard_attack(graph, edges, seed=seed, topology=topology)

    def score_stage(names: tuple[str, ...]):
        def run(deps: dict[str, Any]) -> dict[str, Any]:
            return {
                name: defense_scores(
                    deps["attack"],
                    name,
                    suspect_sample=suspect_sample,
                    seed=seed,
                )
                for name in names
            }

        return run

    def report(deps: dict[str, Any]) -> dict[str, Any]:
        aucs = {
            name: scores.auc
            for stage in ("structure_scores", "fusion_scores")
            for name, scores in deps[stage].items()
        }
        best_structure = max(
            aucs[name] for name in STRUCTURE_DEFENSE_NAMES
        )
        return {
            "target": target,
            "topology": topology,
            "auc": aucs,
            "best_structure_auc": best_structure,
            "fusion_beats_structure": all(
                aucs[name] > best_structure for name in FUSION_DEFENSE_NAMES
            ),
        }

    attack_params = {
        "seed": seed,
        "topology": topology,
        "num_attack_edges": num_attack_edges,
    }
    score_params = {**attack_params, "suspect_sample": suspect_sample}
    stages = [
        Stage(
            "load",
            load,
            params={"target": target, "scale": scale, "seed": seed},
            digest=load_digest,
        ),
        Stage("attack", attack, deps=("load",), params=attack_params),
        Stage(
            "structure_scores",
            score_stage(STRUCTURE_DEFENSE_NAMES),
            deps=("attack",),
            params=score_params,
        ),
        Stage(
            "fusion_scores",
            score_stage(FUSION_DEFENSE_NAMES),
            deps=("attack",),
            params=score_params,
        ),
        Stage(
            "report",
            report,
            deps=("structure_scores", "fusion_scores"),
            params={**score_params, "target": target},
        ),
    ]
    return Pipeline(
        stages, store=store, workers=workers, graph_stage="load",
        executor=executor,
    )
