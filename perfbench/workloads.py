"""The four benchmark workloads: set-up, timed phase, checks and tracing.

Each workload is a function ``run_<name>(seed, seconds, trace, workdir)``
returning a :class:`Outcome`.  Untraced runs (``trace=False``) repeat the
timed phase until ``seconds`` have passed and report the end-to-end
metrics as medians over the repetitions.  Traced runs make one untraced
pass (the base for ``telemetry.overhead``) and one pass under a
``repro.telemetry`` registry, with the benchmark's own spans around every
public call, and report the per-layer metrics.

Every input is made from the benchmark seed: the edge-list file of a
fixed analog graph (``paper``, ``defenses``), the request schedule
(``serve``) and the sampled TVD sources (``shard``).  The program's own
sampling seeds stay at 0.  For ``paper`` and ``defenses`` the seed only
orders the file's lines and endpoints, which the program reads back into
the same graph, so there the seed does not change the work done.
README.md records why each input is what it is.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import parallel, telemetry
from repro.cli import main as cli_main
from repro.analysis.persistence import to_jsonable
from repro.datasets import load_dataset
from repro.errors import ReproError
from repro.graph.shard import ShardedGraph
from repro.markov import clear_operator_cache
from repro.mixing import slem
from repro.pipeline import fusion_comparison_pipeline, paper_measurement_pipeline
from repro.serve import AdmissionService, CompactionPolicy, ServiceConfig
from repro.store import ArtifactStore
from repro.sybil import (
    DEFENSE_NAMES,
    STRUCTURE_DEFENSE_NAMES,
    defense_scores,
    standard_attack,
)

# --- workload sizes (README.md gives the reasons) -------------------------
#: Sized so that a 20 s run holds four to six cold runs to take the
#: median of: at 0.25 (paper) and 0.12 (defenses) a run held two or
#: three, and the cold time spread 0.13-0.21 over seeds.
PAPER_DATASET, PAPER_SCALE = "facebook_a", 0.15
DEFENSE_DATASET, DEFENSE_SCALE = "facebook_a", 0.06
#: One attack edge per ten honest nodes: at the pipeline's default of one
#: per twenty, SybilRank ties the fusion defenses on half of the seeds,
#: and at one per five the fusion defenses lose on most of them.
DEFENSE_ATTACK_EDGE_RATIO = 10
SERVE_DATASET, SERVE_SCALE = "wiki_vote", 0.2
SERVE_RATE = 50.0
SERVE_SENDERS = 2
SERVE_LIMIT_S = 0.1
#: A compaction about every two seconds, so the tail pools some ten
#: post-compaction GateKeeper rebuilds.  At 128 (one or two compactions a
#: run) the p99 followed whichever single rebuild was slowest; at 12 the
#: rebuilds filled a third of the run and, on a slow stretch of the host,
#: the backlog grew (p50 12-144 ms).
SERVE_MAX_OVERLAY = 24
SERVE_WRITE_SHARE = 0.25
SERVE_WRITE_OPS = (("add_edge", 0.8), ("add_nodes", 0.1), ("remove_edge", 0.1))
#: Half the reads are admissions, so after most compactions both senders
#: miss the GateKeeper cache at once and the tail is made of like stalls;
#: at 0.25 single and double rebuilds mixed and the p99 spread twice as far.
SERVE_READ_OPS = (("rank", 0.3), ("admission", 0.5), ("stats", 0.15), ("escape", 0.05))
#: One controller, so each compaction costs one GateKeeper rebuild (two
#: when both senders miss the cache at once) rather than up to eight.
SERVE_CONTROLLERS = 1
#: Streamed analog audited by ``shard``.  The graph is fixed: deflated
#: power iteration fails to converge on some stream seeds (README.md).
SHARD_NODES, SHARD_SHARDS, SHARD_STREAM_SEED = 50_000, 8, 0
MIN_SETUPS = 5
#: Warm replays per cold run; a replay takes milliseconds, so one sample
#: would mostly measure scheduler noise.
WARM_REPLAYS = 25

SERVE_METHODS = (
    "add_edge", "remove_edge", "add_nodes", "rank", "admission", "stats", "escape",
)
PAPER_STAGES = ("load", "mixing", "spectral", "cores", "expansion", "gatekeeper", "tables")
DEFENSE_STAGES = ("attack", "structure_scores", "fusion_scores", "report")

#: Every per-layer metric with its unit; traced runs report all of them,
#: with 0 where a workload does not reach the layer.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"pipeline.stage.{s}_s": "s" for s in PAPER_STAGES + DEFENSE_STAGES},
    "pipeline.waves": "count",
    "pipeline.max_wave_occupancy": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    **{f"sybil.{d}_s": "s" for d in DEFENSE_NAMES},
    "sybil.fusion.bp.rounds": "count",
    "sybil.fusion.bp.messages": "count",
    "markov.walk.steps": "count",
    "markov.walk.walks": "count",
    "markov.batch.sources": "count",
    "graph.bfs.sources": "count",
    "graph.bfs.levels": "count",
    "shard.build_s": "s",
    "shard.loads": "count",
    "shard.spills": "count",
    "shard.peak_resident_bytes": "bytes",
    "mixing.slem_s": "s",
    "markov.batch.tvd_profile_s": "s",
    "chunking.chunks": "count",
    "chunking.busy_seconds": "s",
    "chunking.worker_utilization": "ratio",
    **{
        f"serve.{op}.service_ms.{q}": "ms"
        for op in SERVE_METHODS
        for q in ("p50", "p99")
    },
    "serve.p50_ms": "ms",
    "serve.p95_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.wait_ms.p99": "ms",
    "serve.late_ms.p99": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.cold_builds": "count",
    "serve.compactions": "count",
    "serve.compaction.pause_ms": "ms",
    "parallel.process_speedup": "x",
    "host.usable_cores": "count",
    "bench.cpu_s": "s",
    "bench.root_self_share": "ratio",
    "telemetry.overhead": "ratio",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_rps": "1/s",
}


class CheckFailed(Exception):
    """A workload output did not match its expected value."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


# --- host speed ---------------------------------------------------------------
#: Median time of ``host_kernel`` on the 2-core x86_64 host the benchmark
#: was sized on.  The host's speed moved by up to 2x within minutes, so
#: untraced runs report compute times in reference-host seconds: each
#: phase is scaled by this over the median kernel time sampled just
#: before and just after it (README.md).
HOST_KERNEL_REF_S = 0.0135
HOST_KERNEL_SAMPLES = 15

_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_DATA = _KERNEL_RNG.random(400_000)
_KERNEL_INDEX = _KERNEL_RNG.integers(0, _KERNEL_DATA.size, _KERNEL_DATA.size)
_KERNEL_OUT = np.empty_like(_KERNEL_DATA)


def host_kernel() -> None:
    """Fixed Python and NumPy work that no change to the program alters.

    It allocates nothing: a kernel that built its arrays on every call
    also timed page faults, and followed the program's times less
    closely (per-phase scaled cold ``paper`` times varied 0.15 against
    0.125 with this one, per-process medians 0.059 against 0.034).
    """
    total = 0
    for k in range(150_000):
        total += k * k
    np.take(_KERNEL_DATA, _KERNEL_INDEX, out=_KERNEL_OUT)
    _KERNEL_OUT.sort()


class HostClock:
    """Brackets each measured phase with host-kernel samples.

    A block of HOST_KERNEL_SAMPLES kernel times is taken before the first
    phase and after every phase, so each phase lies between two blocks
    (the block after one phase is the block before the next).  With
    ``scale`` the phase's factor is HOST_KERNEL_REF_S over the median of
    those two blocks: reference-host seconds per measured second.
    Without it (traced runs) no kernel runs and every factor is 1.
    """

    def __init__(self, scale: bool = True) -> None:
        self.scale = scale
        self.samples: list[float] = []
        self.factors: list[float] = []
        self.before = self._block()

    def _block(self) -> list[float]:
        if not self.scale:
            return []
        block = [timed(host_kernel)[1] for _ in range(HOST_KERNEL_SAMPLES)]
        self.samples.extend(block)
        return block

    def phase(self, fn, *args):
        """Run ``fn(*args)``; return its value and the phase's time factor."""
        value = fn(*args)
        if not self.scale:
            return value, 1.0
        after = self._block()
        factor = HOST_KERNEL_REF_S / statistics.median(self.before + after)
        self.before = after
        self.factors.append(factor)
        return value, factor

    def note(self) -> str:
        return (f"host kernel median {1e3 * statistics.median(self.samples):.3f} ms, "
                f"time factors {min(self.factors):.4f}-{max(self.factors):.4f}")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def workers() -> int:
    return min(2, usable_cores())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(int(np.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def timed(fn, *args, **kwargs):
    # start from a collected heap, so a collection that earlier work
    # made due does not land in this call's time
    gc.collect()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def batch_metrics(cold: list[float], warm: list[float], setups: list[float]) -> dict:
    """End-to-end metrics of a batch workload from reference-host seconds.

    Each call of the timed phase is one operation, so the goodput
    restates ``wall_s``: timed phases per second at the median time.
    """
    return {
        "wall_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "goodput_rps": 1.0 / statistics.median(cold),
    }


# --- span-tree helpers ------------------------------------------------------
def span_walls(tel: telemetry.Telemetry) -> dict[str, float]:
    return {path: s.wall_seconds for path, s in tel.spans.items()}


def self_time(walls: dict[str, float], path: str) -> float:
    """A span's wall time minus the wall time of its direct children."""
    depth = path.count("/") + 1
    children = sum(
        wall
        for child, wall in walls.items()
        if child.startswith(path + "/") and child.count("/") == depth
    )
    return max(walls.get(path, 0.0) - children, 0.0)


def paths_ending(walls: dict[str, float], name: str) -> list[str]:
    return [p for p in walls if p == name or p.endswith("/" + name)]


def layer_metrics(tel: telemetry.Telemetry, traced_s: float, untraced_s: float,
                  cpu_s: float) -> dict[str, float]:
    """Per-layer metrics read from the registry of one traced pass."""
    walls = span_walls(tel)
    counters, gauges = tel.counters, tel.gauges
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for stage in PAPER_STAGES + DEFENSE_STAGES:
        out[f"pipeline.stage.{stage}_s"] = sum(
            self_time(walls, p) for p in paths_ending(walls, f"pipeline.stage.{stage}")
        )
    for name in (
        "pipeline.waves", "store.hits", "store.misses", "store.writes",
        "sybil.fusion.bp.rounds", "sybil.fusion.bp.messages",
        "markov.walk.steps", "markov.walk.walks", "markov.batch.sources",
        "graph.bfs.sources", "graph.bfs.levels", "shard.loads", "shard.spills",
        "chunking.chunks", "chunking.busy_seconds", "serve.compactions",
    ):
        out[name] = float(counters.get(name, 0))
    for name in (
        "pipeline.max_wave_occupancy", "shard.peak_resident_bytes",
        "chunking.worker_utilization",
    ):
        out[name] = float(gauges.get(name, 0.0))
    for defense in DEFENSE_NAMES:
        out[f"sybil.{defense}_s"] = sum(
            walls[p] for p in paths_ending(walls, f"sybil.{defense}")
            if p.startswith("bench/")
        )
    out["shard.build_s"] = sum(walls[p] for p in paths_ending(walls, "shard.build"))
    out["markov.batch.tvd_profile_s"] = sum(
        walls[p] for p in paths_ending(walls, "markov.batch.tvd_profile")
    )
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    out["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["serve.cold_builds"] = float(misses)
    pauses = tel.distribution("serve.compaction.pause_seconds")
    out["serve.compaction.pause_ms"] = 1e3 * pauses.get("max", 0.0)
    out["host.usable_cores"] = float(usable_cores())
    out["bench.cpu_s"] = cpu_s
    out["bench.root_self_share"] = self_time(walls, "bench") / max(walls.get("bench", 0.0), 1e-12)
    out["telemetry.overhead"] = traced_s / untraced_s - 1.0
    return out


def process_cpu() -> float:
    times = os.times()
    return times.user + times.system


# --- paper ------------------------------------------------------------------
def shuffled_edge_list(dataset: str, scale: float, seed: int, rep: int,
                       path: Path) -> int:
    """Write a fixed analog graph to ``path`` as a seeded edge-list shuffle.

    Line order and endpoint order come from ``(seed, rep)``; the graph is
    the same, because its cost (GateKeeper, the defenses) depends on the
    graph far more than this host's run-to-run noise (README.md).  The
    file's bytes, and so every store key, are new.  Returns the node count.
    """
    load_dataset.cache_clear()
    graph = load_dataset(dataset, scale=scale, seed=0)
    rng = np.random.default_rng([seed, rep])
    edges = graph.edge_array()[rng.permutation(graph.num_edges)]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    np.savetxt(path, edges, fmt="%d")
    return graph.num_nodes


def stable_view(results: dict, *volatile: str) -> str:
    """Every entry of ``results`` except the ``volatile`` ones, as canonical JSON."""
    view = {
        name: to_jsonable(value)
        for name, value in results.items()
        if name not in volatile
    }
    return json.dumps(view, sort_keys=True)


def cold_then_warm(build, store_dir: Path, clock: HostClock):
    """One cold pipeline run into a fresh store, then WARM_REPLAYS replays.

    Returns the cold and the last warm result with the cold time and
    every replay's time, each scaled by its phase's factor.
    """
    clear_operator_cache()
    store = ArtifactStore(store_dir)
    (cold, cold_s), cold_factor = clock.phase(timed, build(store).run)

    def replays():
        runs = [timed(build(store).run) for _ in range(WARM_REPLAYS)]
        return runs[-1][0], [seconds for _, seconds in runs]

    (warm, warm_s), warm_factor = clock.phase(replays)
    return cold, warm, cold_factor * cold_s, [warm_factor * s for s in warm_s]


def repeat_cold_warm(seconds: float, prepare, cold_warm, check_run, out: Outcome) -> Outcome:
    """Prepare an input, run it cold then warm, until ``seconds`` have passed.

    Repetition 0 is an untimed warm-up (still checked): the first cold
    run of a process also pays for first imports and cold allocator and
    library caches, which made it up to 1.4x slower than the next.
    """
    cold, warm, _, _ = cold_warm(prepare(0), 0, HostClock(scale=False))
    out.attempted += len(cold.runs) + WARM_REPLAYS * len(warm.runs)
    check_run(cold, warm)
    clock = HostClock()
    cold_s, warm_s, setups = [], [], []

    def setup(rep: int):
        (inputs, setup_s), factor = clock.phase(timed, prepare, rep)
        setups.append(factor * setup_s)
        return inputs

    start = time.perf_counter()
    rep = 1
    while rep == 1 or time.perf_counter() - start < seconds:
        cold, warm, c, w = cold_warm(setup(rep), rep, clock)
        out.attempted += len(cold.runs) + WARM_REPLAYS * len(warm.runs)
        check_run(cold, warm)
        cold_s.append(c)
        warm_s.extend(w)
        rep += 1
    while len(setups) < MIN_SETUPS:
        setup(rep)
        rep += 1
    out.notes.append(clock.note())
    out.metrics = batch_metrics(cold_s, warm_s, setups)
    return out


def paper_cold_warm(path: Path, store_dir: Path, clock: HostClock,
                    executor: str | None = None):
    return cold_then_warm(
        lambda store: paper_measurement_pipeline(
            str(path), scale=PAPER_SCALE, workers=workers(), store=store,
            executor=executor,
        ),
        store_dir, clock,
    )


def check_paper(cold, warm, first) -> None:
    """Cold equals warm; every cold run of the graph agrees with the first.

    ARPACK starts from a random vector, so the spectral stage (and the
    SLEM copied into the tables) agrees only to a tolerance.
    """
    check(cold.digest() == warm.digest(), "paper: warm digest differs from cold")
    check(warm.executed == [], f"paper: warm replay executed {warm.executed}")
    check(len(cold.executed) == len(PAPER_STAGES), "paper: cold run skipped stages")
    tables, ref = cold.results["tables"], first.results["tables"]
    slem_gap = abs(tables["slem"] - ref["slem"])
    check(slem_gap < 1e-6, f"paper: SLEM differs by {slem_gap} between cold runs")
    check(
        stable_view(cold.results, "spectral", "tables")
        == stable_view(first.results, "spectral", "tables")
        and stable_view(tables, "slem") == stable_view(ref, "slem"),
        "paper: a cold run's stage results differ from the first cold run's",
    )


def run_paper(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return trace_paper(seed, workdir, out)
    first = []

    def prepare(rep: int) -> Path:
        # one path for every repetition: the target name is part of the results
        path = workdir / "paper.txt"
        shuffled_edge_list(PAPER_DATASET, PAPER_SCALE, seed, rep, path)
        return path

    def check_run(cold, warm) -> None:
        if not first:
            first.append(cold)
        check_paper(cold, warm, first[0])

    return repeat_cold_warm(
        seconds, prepare,
        lambda path, rep, clock: paper_cold_warm(path, workdir / f"paper-store-{rep}", clock),
        check_run, out,
    )


def trace_paper(seed: int, workdir: Path, out: Outcome) -> Outcome:
    path = workdir / "paper.txt"
    shuffled_edge_list(PAPER_DATASET, PAPER_SCALE, seed, 0, path)
    raw = HostClock(scale=False)
    base, _, thread_s, _ = paper_cold_warm(path, workdir / "store-untraced", raw)
    with telemetry.activate() as tel:
        cpu0 = process_cpu()
        with tel.span("bench"):
            with tel.span("cold_warm"):
                cold, warm, traced_s, _ = paper_cold_warm(path, workdir / "store-traced", raw)
        cpu = process_cpu() - cpu0
    check_paper(cold, warm, base)
    try:
        proc, proc_warm, process_s, _ = paper_cold_warm(
            path, workdir / "store-process", raw, executor="process")
    finally:
        parallel.shutdown()
    check_paper(proc, proc_warm, base)
    out.attempted = 3 * (1 + WARM_REPLAYS) * len(PAPER_STAGES)
    out.metrics = layer_metrics(tel, traced_s, thread_s, cpu)
    out.metrics["parallel.process_speedup"] = thread_s / process_s
    out.notes.append(f"paper: thread cold {thread_s:.3f}s, process cold {process_s:.3f}s")
    return out


# --- defenses -----------------------------------------------------------------
def defense_cold_warm(path: Path, store_dir: Path, attack_edges: int, clock: HostClock):
    return cold_then_warm(
        lambda store: fusion_comparison_pipeline(
            str(path), scale=DEFENSE_SCALE, num_attack_edges=attack_edges,
            topology="wild", workers=workers(), store=store,
        ),
        store_dir, clock,
    )


def check_defenses(cold, warm) -> None:
    report = cold.results["report"]
    check(warm.executed == [], f"defenses: warm replay executed {warm.executed}")
    check(cold.digest() == warm.digest(), "defenses: warm digest differs from cold")
    check(set(report["auc"]) == set(DEFENSE_NAMES), "defenses: missing AUCs")
    check(all(0.0 <= a <= 1.0 for a in report["auc"].values()),
          f"defenses: AUC outside [0, 1]: {report['auc']}")
    check(report["fusion_beats_structure"],
          f"defenses: fusion does not beat structure: {report['auc']}")


def defense_input(seed: int, rep: int, path: Path) -> tuple[Path, int]:
    nodes = shuffled_edge_list(DEFENSE_DATASET, DEFENSE_SCALE, seed, rep, path)
    return path, nodes // DEFENSE_ATTACK_EDGE_RATIO


def run_defenses(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return trace_defenses(seed, workdir, out)
    return repeat_cold_warm(
        seconds,
        lambda rep: defense_input(seed, rep, workdir / "defenses.txt"),
        lambda inputs, rep, clock: defense_cold_warm(
            inputs[0], workdir / f"def-store-{rep}", inputs[1], clock),
        check_defenses, out,
    )


def trace_defenses(seed: int, workdir: Path, out: Outcome) -> Outcome:
    path, edges = defense_input(seed, 0, workdir / "defenses.txt")
    raw = HostClock(scale=False)
    _, _, untraced_s, _ = defense_cold_warm(path, workdir / "store-untraced", edges, raw)
    with telemetry.activate() as tel:
        cpu0 = process_cpu()
        with tel.span("bench"):
            with tel.span("cold_warm"):
                cold, warm, traced_s, _ = defense_cold_warm(
                    path, workdir / "store-traced", edges, raw)
            attack = cold.results["attack"]
            with tel.span("each_defense"):
                aucs = {}
                for name in DEFENSE_NAMES:
                    with tel.span(f"sybil.{name}"):
                        aucs[name] = defense_scores(attack, name, seed=0).auc
        cpu = process_cpu() - cpu0
    check_defenses(cold, warm)
    check(aucs == cold.results["report"]["auc"],
          "defenses: one-by-one AUCs differ from the pipeline's")
    best = max(aucs[n] for n in STRUCTURE_DEFENSE_NAMES)
    out.attempted = 2 * (len(cold.runs) + WARM_REPLAYS * len(warm.runs)) + len(DEFENSE_NAMES)
    out.metrics = layer_metrics(tel, traced_s, untraced_s, cpu)
    out.notes.append(f"defenses: best structure AUC {best:.4f}, "
                     f"sybilframe {aucs['sybilframe']:.4f}, sybilfuse {aucs['sybilfuse']:.4f}")
    return out


# --- shard --------------------------------------------------------------------
_MU = re.compile(r"SLEM mu \(power iteration\)\s+([0-9.]+)")
_VERDICT = re.compile(r"fast-mixing \(O\(log n\)\)\s+(PASS|FAIL)")


def cli(argv: list[str]) -> tuple[int, str]:
    """Run ``repro.cli.main`` in-process, capturing its standard output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def shard_build(root: Path) -> None:
    code, text = cli([
        "shard", "build", "--stream", "fast", "--nodes", str(SHARD_NODES),
        "--num-shards", str(SHARD_SHARDS), "--seed", str(SHARD_STREAM_SEED),
        "--out", str(root),
    ])
    check(code == 0, f"shard build exited {code}: {text}")


def shard_audit(root: Path, seed: int) -> float:
    code, text = cli(["audit", "--sharded", str(root), "--seed", str(seed)])
    check(code == 0, f"shard audit exited {code}: {text}")
    verdict = _VERDICT.search(text)
    check(verdict is not None and verdict.group(1) == "PASS",
          f"shard audit verdict is not PASS: {text}")
    mu = _MU.search(text)
    check(mu is not None, f"shard audit printed no SLEM: {text}")
    return float(mu.group(1))


def shard_info(root: Path) -> None:
    code, text = cli(["shard", "info", str(root), "--verify"])
    check(code == 0 and "all shard digests match" in text,
          f"shard info --verify failed: {text}")


def check_shard_mu(root: Path, printed: list[float]) -> None:
    """μ agrees with the in-RAM eigensolver to the four printed decimals."""
    reference = slem(ShardedGraph.open(root).to_graph())
    for mu in printed:
        check(abs(mu - reference) <= 1.5e-4,
              f"shard: audit SLEM {mu} != in-RAM reference {reference:.6f}")


def run_shard(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return trace_shard(seed, workdir, out)
    clock = HostClock()
    setups = []
    for i in range(MIN_SETUPS):
        root = workdir / f"shards-{i}"
        (_, build_s), factor = clock.phase(timed, shard_build, root)
        setups.append(factor * build_s)
    audit_s, mus = [], []
    start = time.perf_counter()
    while not audit_s or time.perf_counter() - start < seconds:
        (mu, a), factor = clock.phase(timed, shard_audit, root, seed)
        mus.append(mu)
        audit_s.append(factor * a)
    info_s, factor = clock.phase(
        lambda: [timed(shard_info, root)[1] for _ in range(WARM_REPLAYS)])
    info_s = [factor * s for s in info_s]
    out.attempted += len(setups) + len(audit_s) + len(info_s)
    out.notes.append(clock.note())
    out.metrics = batch_metrics(audit_s, info_s, setups)
    check_shard_mu(root, mus)
    return out


def trace_shard(seed: int, workdir: Path, out: Outcome) -> Outcome:
    shard_build(workdir / "shards-untraced")
    _, untraced_s = timed(shard_audit, workdir / "shards-untraced", seed)
    root = workdir / "shards"
    with telemetry.activate() as tel:
        cpu0 = process_cpu()
        with tel.span("bench"):
            with tel.span("build"):
                shard_build(root)
            with tel.span("audit"):
                mu, traced_s = timed(shard_audit, root, seed)
            with tel.span("info"):
                shard_info(root)
        cpu = process_cpu() - cpu0
    check_shard_mu(root, [mu])
    out.attempted = 5
    out.metrics = layer_metrics(tel, traced_s, untraced_s, cpu)
    walls = span_walls(tel)
    out.metrics["mixing.slem_s"] = max(
        walls["bench/audit"] - out.metrics["markov.batch.tvd_profile_s"], 0.0)
    return out


# --- serve --------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    due: float
    op: str
    args: tuple


def serve_setup() -> AdmissionService:
    """Load the graph, build the attack, start the service and fill its caches.

    Every query kind is asked once (admission once per controller), so
    the open loop starts warm and its cold rebuilds are the ones that
    compactions cause.
    """
    load_dataset.cache_clear()
    honest = load_dataset(SERVE_DATASET, scale=SERVE_SCALE, seed=0)
    attack = standard_attack(honest, max(5, honest.num_nodes // 20), seed=0)
    service = AdmissionService(
        attack.graph,
        num_honest=attack.num_honest,
        config=ServiceConfig(seed=0),
        policy=CompactionPolicy(max_overlay_edges=SERVE_MAX_OVERLAY),
    )
    service.rank(0)
    service.escape()
    for controller in range(SERVE_CONTROLLERS):
        service.admission(0, controller)
    return service


def _pick(rng: np.random.Generator, table) -> str:
    names = [name for name, _ in table]
    weights = np.array([w for _, w in table])
    return names[int(rng.choice(len(names), p=weights / weights.sum()))]


def serve_schedule(seed: int, seconds: float, graph) -> list[Request]:
    """The whole open-loop schedule, fixed before timing starts.

    Each ``remove_edge`` deletes a distinct edge of the initial graph, so
    every removal takes the overlay's removal path, not a miss.
    """
    rng = np.random.default_rng(seed)
    n0 = graph.num_nodes
    ops = [
        _pick(rng, SERVE_WRITE_OPS if rng.random() < SERVE_WRITE_SHARE else SERVE_READ_OPS)
        for _ in range(max(1, int(SERVE_RATE * seconds)))
    ]
    edges = graph.edge_array()
    removals = iter(edges[rng.choice(len(edges), size=ops.count("remove_edge"), replace=False)])
    schedule = []
    for i, op in enumerate(ops):
        if op == "add_edge":
            u, v = (int(x) for x in rng.choice(n0, size=2, replace=False))
            args = (u, v)
        elif op == "remove_edge":
            args = tuple(int(x) for x in next(removals))
        elif op == "rank":
            args = (int(rng.integers(n0)),)
        elif op == "admission":
            args = (int(rng.integers(n0)), int(rng.integers(SERVE_CONTROLLERS)))
        elif op == "add_nodes":
            args = (1,)
        else:
            args = ()
        schedule.append(Request(i / SERVE_RATE, op, args))
    return schedule


def serve_pass(service: AdmissionService, schedule: list[Request]) -> dict:
    """Send ``schedule`` open-loop from SERVE_SENDERS threads.

    Each request is timed from its due time.  ``late`` is how late an
    idle sender woke for a request; ``wait`` is everything between due
    time and the start of service, including a busy sender's backlog.
    """
    n = len(schedule)
    started = np.full(n, np.nan)
    finished = np.full(n, np.nan)
    idle_late = np.full(n, np.nan)
    failed = np.zeros(n, dtype=bool)
    answers = [None] * n
    t0 = time.perf_counter() + 0.05

    def sender(k: int) -> None:
        for i in range(k, n, SERVE_SENDERS):
            req = schedule[i]
            due = t0 + req.due
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                idle_late[i] = time.perf_counter() - due
            started[i] = time.perf_counter()
            try:
                answers[i] = getattr(service, req.op)(*req.args)
            except ReproError:
                failed[i] = True
            finished[i] = time.perf_counter()

    threads = [threading.Thread(target=sender, args=(k,)) for k in range(SERVE_SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    due = t0 + np.array([r.due for r in schedule])
    return {
        "latency": finished - due,
        "service": finished - started,
        "wait": started - due,
        "late": idle_late[~np.isnan(idle_late)],
        "failed": failed,
        "answers": answers,
        "drain_s": float(np.nanmax(finished) - t0),
    }


def check_serve(service: AdmissionService, schedule: list[Request], n0: int,
                result: dict) -> None:
    answered = int(np.sum(~np.isnan(result["latency"]) & ~result["failed"]))
    check(answered + int(result["failed"].sum()) == len(schedule),
          "serve: a request was neither answered nor counted as failed")
    removed = [a for r, a in zip(schedule, result["answers"]) if r.op == "remove_edge"]
    check(all(removed), "serve: a remove_edge request found no edge to remove")
    stats = service.stats()
    check(stats.compactions >= 1, "serve: no compaction happened")
    appended = sum(r.args[0] for r in schedule if r.op == "add_nodes")
    check(stats.num_nodes == n0 + appended,
          f"serve: {stats.num_nodes} nodes, expected {n0} + {appended}")


def serve_once(service: AdmissionService, schedule: list[Request]) -> dict:
    n0 = service.stats().num_nodes
    result = serve_pass(service, schedule)
    check_serve(service, schedule, n0, result)
    return result


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    if trace:
        return trace_serve(seed, seconds, out)
    clock = HostClock()
    setups = []
    for _ in range(MIN_SETUPS):
        (service, setup_s), factor = clock.phase(timed, serve_setup)
        setups.append(factor * setup_s)
    schedule = serve_schedule(seed, seconds, service.snapshot)
    result = serve_once(service, schedule)
    failed = result["failed"]
    latency = result["latency"][~failed]
    length = len(schedule) / SERVE_RATE
    reads = np.isin([r.op for r in schedule], [op for op, _ in SERVE_READ_OPS])
    out.attempted = len(schedule)
    out.failed = int(failed.sum())
    # the set-up is scaled to the reference host; everything else is
    # measured through the 20 s loop and stays as measured.  warm_s is the
    # median service time of the loop's reads: timed in a burst before or
    # after the loop it moved by 1.4x between runs, with the set-up.
    out.notes.append(clock.note())
    out.metrics = {
        "wall_s": result["drain_s"],
        "warm_s": float(np.median(result["service"][reads & ~failed])),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "goodput_rps": float(np.sum(latency <= SERVE_LIMIT_S)) / length,
    }
    return out


def trace_serve(seed: int, seconds: float, out: Outcome) -> Outcome:
    untraced = serve_setup()
    base = serve_once(untraced, serve_schedule(seed, seconds, untraced.snapshot))
    with telemetry.activate() as tel:
        cpu0 = process_cpu()
        with tel.span("bench"):
            with tel.span("setup"):
                service = serve_setup()
            n0 = service.stats().num_nodes
            schedule = serve_schedule(seed, seconds, service.snapshot)
            with tel.span("open_loop"):
                result = serve_pass(service, schedule)
        cpu = process_cpu() - cpu0
    check_serve(service, schedule, n0, result)
    ok = ~result["failed"]
    # the open loop's wall is fixed by the schedule, so overhead compares
    # the total service time of the traced and untraced passes
    out.metrics = layer_metrics(
        tel, float(np.sum(result["service"][ok])),
        float(np.sum(base["service"][~base["failed"]])), cpu)
    ops = np.array([r.op for r in schedule])
    for op in SERVE_METHODS:
        times = list(1e3 * result["service"][ok & (ops == op)])
        if times:
            out.metrics[f"serve.{op}.service_ms.p50"] = nearest_rank(times, 50)
            out.metrics[f"serve.{op}.service_ms.p99"] = nearest_rank(times, 99)
    # the untraced pass's latencies: they spread too far over seeds to be
    # bounded end to end (README.md, "End-to-end metrics")
    base_latency = list(base["latency"][~base["failed"]])
    out.metrics["serve.p50_ms"] = 1e3 * nearest_rank(base_latency, 50)
    out.metrics["serve.p95_ms"] = 1e3 * nearest_rank(base_latency, 95)
    out.metrics["serve.p99_ms"] = 1e3 * nearest_rank(base_latency, 99)
    out.metrics["serve.wait_ms.p99"] = 1e3 * nearest_rank(list(result["wait"][ok]), 99)
    if result["late"].size:
        out.metrics["serve.late_ms.p99"] = 1e3 * nearest_rank(list(result["late"]), 99)
    out.attempted = 2 * len(schedule)
    out.failed = int(result["failed"].sum() + base["failed"].sum())
    return out


WORKLOADS = {
    "paper": run_paper,
    "defenses": run_defenses,
    "serve": run_serve,
    "shard": run_shard,
}
