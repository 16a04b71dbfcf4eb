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

Each store-backed measurement is declared once here, as a function
returning its :class:`Stage` (:func:`mixing_stage`, :func:`cores_stage`,
...).  The pipeline builders assemble their DAGs from these, and
:func:`measure` runs one on a loaded graph under the key a pipeline run
writes, so the figure runners, ``repro audit``, the report and snapshot
tracking share artifacts with pipeline runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from contextlib import nullcontext

import numpy as np

from repro import parallel, telemetry
from repro.chunking import run_chunks
from repro.community import greedy_modularity, modularity
from repro.cores.statistics import core_structure, coreness_ecdf
from repro.datasets import available_datasets, dataset_fingerprint, load_dataset
from repro.errors import PipelineError
from repro.expansion.envelope import envelope_expansion
from repro.graph.core import Graph
from repro.graph.io import read_edge_list
from repro.graph.ops import largest_connected_component
from repro.mixing.sampling import sampled_mixing_profile
from repro.mixing.spectral import slem, spectral_summary
from repro.privacy.frontier import DEFAULT_WALK_LENGTHS, PrivacyFrontier, _measure_point
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
    "target_digest",
    "load_target",
    "load_stage",
    "mixing_stage",
    "spectral_stage",
    "slem_stage",
    "cores_stage",
    "coreness_ecdf_stage",
    "expansion_stage",
    "community_stage",
    "gatekeeper_stage",
    "attack_stage",
    "frontier_stages",
    "measure",
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
        when the stage's algorithm changes.  A pipeline keys each stage
        by the versions of every stage upstream of it too, so a bump
        also invalidates what was built on the old result.
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
        self._key_params = {name: self._stage_key_params(name) for name in names}

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

    def _stage_key_params(self, name: str) -> Mapping[str, Any]:
        """The params ``name`` is stored under: its own, plus the version of
        every stage upstream of it.  The walk stops at the graph stage,
        whose result the subject digest already covers, so a stage that
        reads only the graph keeps its plain params (the key
        :func:`measure` writes)."""
        upstream: dict[str, int] = {}
        frontier = list(self._stages[name].deps)
        while frontier:
            dep = frontier.pop()
            if dep in upstream or dep == self._graph_stage:
                continue
            upstream[dep] = self._stages[dep].version
            frontier.extend(self._stages[dep].deps)
        params = self._stages[name].params
        return {**params, "upstream_versions": upstream} if upstream else params

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
        key_params = self._key_params[stage.name]
        use_store = (
            self._store is not None and stage.cacheable and key_digest is not None
        )
        if use_store:
            miss = object()
            value = self._store.get(
                key_digest, stage.name, key_params, version=stage.version,
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
                key_digest, stage.name, key_params, value, version=stage.version
            )
        results[stage.name] = value
        tel.count("pipeline.stage_computed")
        return StageRun(
            stage.name,
            False,
            time.perf_counter() - start,
            time.thread_time() - cpu_start,
        )


def _edge_list(target: str) -> Path:
    """The one target check: a non-dataset target must be a regular file."""
    path = Path(target)
    if not path.is_file():
        raise PipelineError(
            f"{target!r} is neither a bundled dataset nor a readable file"
        )
    return path


def target_digest(target: str, scale: float, seed: int) -> str:
    """Content digest identifying a load stage's input.

    Bundled analogs are fingerprinted by their registry spec; edge-list
    files by their bytes, so editing the file invalidates the cache.
    """
    if target in available_datasets():
        return dataset_fingerprint(target, scale=scale, seed=seed)
    digest = hashlib.sha256(b"repro-edgelist-v1")
    digest.update(_edge_list(target).read_bytes())
    return digest.hexdigest()


def load_target(target: str, scale: float, seed: int = 0) -> Graph:
    """Load a bundled analog or an edge-list file (every CLI target).

    Edge-list files are reduced to their largest connected component,
    matching the paper's preprocessing.
    """
    if target in available_datasets():
        return load_dataset(target, scale=scale, seed=seed)
    graph, _ = largest_connected_component(read_edge_list(_edge_list(target)))
    return graph


def _on_graph(
    name: str, compute: Callable[[Graph], Any], version: int = 1, **params: Any
) -> Stage:
    """A stage computing ``compute(loaded graph)``, keyed by ``params``."""
    return Stage(
        name, lambda deps: compute(deps["load"]), deps=("load",), params=params,
        version=version,
    )


def load_stage(target: str, scale: float, seed: int) -> Stage:
    """Load ``target`` (:func:`load_target`), keyed by :func:`target_digest`."""
    return Stage(
        "load",
        lambda _: load_target(target, scale, seed),
        params={"target": target, "scale": scale, "seed": seed},
        digest=target_digest(target, scale, seed),
    )


def mixing_stage(
    walk_lengths: Sequence[int] | None = None, num_sources: int = 50, seed: int = 0
) -> Stage:
    """Sampled TVD profile (:func:`sampled_mixing_profile`); ``None`` walk
    lengths is the paper grid, and any int sequence is keyed as ints."""
    lengths = [
        int(w) for w in (DEFAULT_WALK_LENGTHS if walk_lengths is None else walk_lengths)
    ]
    return _on_graph(
        "mixing",
        lambda graph: sampled_mixing_profile(
            graph, walk_lengths=lengths, num_sources=num_sources, seed=seed
        ),
        num_sources=num_sources, seed=seed, walk_lengths=lengths,
    )


#: v2: Lanczos stops at the accuracy the Sinclair bounds need, on the
#: operator with the top eigenvector projected out, so mu changes bits;
#: a bipartite graph's ``bounds`` are None.  v3: the plain Lanczos
#: recurrence replaces ARPACK's restarted solve, so mu changes bits
_SLEM_VERSION = 3

#: v2: SybilGuard's and SybilLimit's route tables come from one block of
#: route keys and SybilLimit draws its first hops as one block, so their
#: scores change bits
_ROUTE_VERSION = 2

#: v3: every sampled walk draws its uniforms by one counter-based rule
#: keyed by (seed, walk, step) instead of one spawned stream per walk
#: (v2), so every stage built on walks changes bits
_WALK_VERSION = 3


def spectral_stage(num_sources: int = 50, seed: int = 0) -> Stage:
    """SLEM, Sinclair bounds and fast-mixing check (:func:`spectral_summary`)
    on ``min(num_sources, 30)`` sampled sources."""
    fast_sources = min(num_sources, 30)
    return _on_graph(
        "spectral",
        lambda graph: spectral_summary(graph, fast_sources=fast_sources, seed=seed),
        version=_SLEM_VERSION, seed=seed, fast_sources=fast_sources,
    )


def slem_stage() -> Stage:
    """The second largest eigenvalue modulus alone (:func:`slem`)."""
    return _on_graph("slem", lambda graph: slem(graph), version=_SLEM_VERSION)


def cores_stage() -> Stage:
    """Core structure (:func:`core_structure`)."""
    return _on_graph("cores", lambda graph: core_structure(graph))


def coreness_ecdf_stage() -> Stage:
    """Coreness ECDF (:func:`coreness_ecdf`) as ``{values, fractions}``."""

    def ecdf(graph: Graph) -> dict[str, Any]:
        values, fractions = coreness_ecdf(graph)
        return {"values": values, "fractions": fractions}

    return _on_graph("coreness_ecdf", ecdf)


def expansion_stage(num_sources: int | None = 50, seed: int = 0) -> Stage:
    """Envelope expansion (:func:`envelope_expansion`); ``num_sources=None``
    (or ``>= n``) measures every node."""
    return _on_graph(
        "expansion",
        lambda graph: envelope_expansion(graph, num_sources=num_sources, seed=seed),
        num_sources=num_sources, seed=seed,
    )


def community_stage(seed: int = 0) -> Stage:
    """Greedy-modularity partition as ``{labels, modularity}``."""

    def partition(graph: Graph) -> dict[str, Any]:
        labels = greedy_modularity(graph, seed=seed)
        return {"labels": labels, "modularity": float(modularity(graph, labels))}

    return _on_graph("community", partition, seed=seed)


def gatekeeper_stage(
    target: str,
    num_attack_edges: int | None = None,
    admission_factors: list[float] | None = None,
    num_controllers: int = 2,
    seed: int = 0,
) -> Stage:
    """GateKeeper's Table-II rows (:func:`gatekeeper_table_row`), with
    ``max(n // 100, 5)`` attack edges for ``None``.  The rows carry
    ``target`` as their dataset name, so it is part of the key."""

    def rows(graph: Graph) -> list:
        edges = num_attack_edges
        if edges is None:
            edges = max(graph.num_nodes // 100, 5)
        return gatekeeper_table_row(
            graph, target, edges, admission_factors, num_controllers, seed
        )

    # distributor selection samples walks
    return _on_graph(
        "gatekeeper", rows, version=_WALK_VERSION, target=target,
        num_attack_edges=num_attack_edges, admission_factors=admission_factors,
        num_controllers=num_controllers, seed=seed,
    )


def attack_stage(
    num_attack_edges: int | None = None, seed: int = 0, topology: str = "powerlaw"
) -> Stage:
    """The standard Sybil attack on the loaded graph (:func:`standard_attack`)."""
    return _on_graph(
        "attack",
        lambda graph: standard_attack(
            graph, num_attack_edges, seed=seed, topology=topology
        ),
        seed=seed, topology=topology, num_attack_edges=num_attack_edges,
    )


def frontier_stages(
    attack: Stage,
    target: str,
    levels: np.ndarray,
    walk_lengths: np.ndarray,
    defenses: tuple[str, ...],
    suspect_sample: int,
    num_sources: int,
) -> list[Stage]:
    """One ``perturb_t{t}`` stage per level after ``attack`` and the
    ``frontier`` stage gathering them (:mod:`repro.privacy.frontier`)."""
    seed, topology = attack.params["seed"], attack.params["topology"]
    # the points carry the target name
    params = {
        **attack.params, "target": target, "defenses": list(defenses),
        "suspect_sample": suspect_sample, "num_sources": num_sources,
        "walk_lengths": [int(w) for w in walk_lengths],
    }
    names = [f"perturb_t{t}" for t in levels]

    def point(t: int) -> Callable[[dict[str, Any]], Any]:
        return lambda deps: _measure_point(
            deps["attack"], t, walk_lengths, defenses,
            num_sources, suspect_sample, seed, target,
        )

    def frontier(deps: dict[str, Any]) -> PrivacyFrontier:
        return PrivacyFrontier(
            target=target, topology=topology, ts=levels,
            walk_lengths=walk_lengths, points=[deps[name] for name in names],
        )

    # each point holds the SLEM of its walk-perturbed graph and the
    # defense scores, so its version rises with any of the three
    stages = [
        Stage(
            name, point(int(t)), deps=("attack",), params={**params, "t": int(t)},
            version=_SLEM_VERSION + _ROUTE_VERSION + _WALK_VERSION,
        )
        for name, t in zip(names, levels)
    ]
    ts = [int(t) for t in levels]
    return [*stages, Stage("frontier", frontier, tuple(names), {**params, "ts": ts})]


def measure(store: ArtifactStore | None, graph: Graph, stage: Stage) -> Any:
    """Run one ``load``-dependent stage on ``graph``, memoized in ``store``
    under the key a pipeline run of ``stage`` writes (graph digest, stage
    name, params, version); without a store, a plain call."""
    if stage.deps != ("load",):
        raise PipelineError(f"stage {stage.name!r} does not measure a loaded graph")

    def compute() -> Any:
        return stage.fn({"load": graph})

    if store is None or not stage.cacheable:
        return compute()
    return store.memoize(graph, stage.name, stage.params, compute, stage.version)


def _render_tables(target: str, deps: dict[str, Any]) -> dict[str, Any]:
    """Deterministic headline numbers per measurement stage."""
    graph: Graph = deps["load"]
    profile = deps["mixing"]
    spectral = deps["spectral"]
    structure = deps["cores"]
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
        "mean_small_set_expansion": deps["expansion"].small_set_expansion(
            graph.num_nodes
        ),
        "gatekeeper": deps["gatekeeper"],
    }


def paper_measurement_pipeline(
    target: str,
    scale: float = 0.25,
    seed: int = 0,
    num_sources: int = 50,
    walk_lengths: Sequence[int] | None = None,
    store: ArtifactStore | None = None,
    workers: int | None = None,
    executor: str | None = None,
) -> Pipeline:
    """Build the standard paper DAG for one target graph.

    ``target`` is a bundled analog name or an edge-list path.  Every
    stage but ``tables`` is a shared stage, so ``repro audit``, the
    report, Figures 3-5 and Table II read what a run with equal
    parameters wrote (see :func:`measure`); the ``mixing`` grid differs
    from Figure 1's and the report's by design.
    """
    measured = [
        mixing_stage(walk_lengths, num_sources, seed),
        spectral_stage(num_sources, seed),
        cores_stage(),
        expansion_stage(num_sources, seed),
        gatekeeper_stage(target, seed=seed),
    ]

    def tables(deps: dict[str, Any]) -> dict[str, Any]:
        return _render_tables(target, deps)

    stages = [
        load_stage(target, scale, seed),
        *measured,
        Stage(
            "tables",
            tables,
            deps=("load", *(stage.name for stage in measured)),
            version=2,
            params={
                "num_sources": num_sources,
                "seed": seed,
                "target": target,
                "walk_lengths": measured[0].params["walk_lengths"],
                "num_controllers": measured[4].params["num_controllers"],
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
    attack = attack_stage(num_attack_edges, seed, topology)

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

    score_params = {**attack.params, "suspect_sample": suspect_sample}
    stages = [
        load_stage(target, scale, seed),
        attack,
        Stage(
            "structure_scores",
            score_stage(STRUCTURE_DEFENSE_NAMES),
            deps=("attack",),
            params=score_params,
            version=_ROUTE_VERSION + _WALK_VERSION,
        ),
        Stage(
            "fusion_scores",
            score_stage(FUSION_DEFENSE_NAMES),
            deps=("attack",),
            params=score_params,
            version=_WALK_VERSION,
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
