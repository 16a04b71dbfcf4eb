"""Extension: serving latency under a mixed read/write load.

Stands up the online admission service (:mod:`repro.serve`) on the
standard attack scenario at two analog scales and drives the
closed-loop load generator in-process: concurrent clients mixing
SybilRank / GateKeeper / escape / stats reads with edge arrivals, edge
removals and node appends, while the compaction policy folds the
overlay into fresh snapshots mid-run.

Published artifacts: the per-op p50/p99 latency table and QPS at each
scale (``serve_load.txt``) plus the canonical telemetry document
(``serve_load_metrics.json``) with the ``serve.*`` counters, the
``serve.load.*_seconds`` latency distributions and the compaction
pause distribution.

Gates (at scale >= 0.2): zero failed requests while writes and reads
interleave, at least one compaction fires under load, the warm caches
actually hit, and read latency stays bounded.
"""

from __future__ import annotations

import numpy as np
from conftest import publish, publish_metrics

from repro import telemetry
from repro.analysis import format_table
from repro.datasets import load_dataset
from repro.serve import (
    AdmissionService,
    CompactionPolicy,
    InProcessClient,
    LoadConfig,
    ServiceConfig,
    run_load,
)
from repro.sybil import standard_attack

DATASET = "wiki_vote"
NUM_REQUESTS = 600
NUM_CLIENTS = 4
WRITE_FRACTION = 0.25


def _run_at(scale: float):
    honest = load_dataset(DATASET, scale=scale)
    attack = standard_attack(honest, seed=0)
    service = AdmissionService(
        attack.graph,
        num_honest=attack.num_honest,
        config=ServiceConfig(escape_walks=400, seed=0),
        policy=CompactionPolicy(max_overlay_edges=48),
    )
    report = run_load(
        InProcessClient(service),
        LoadConfig(
            num_clients=NUM_CLIENTS,
            num_requests=NUM_REQUESTS,
            write_fraction=WRITE_FRACTION,
            seed=0,
        ),
        target=f"{DATASET}@{scale}",
    )
    return service, report


def _gate(scale) -> bool:
    """Latency/compaction assertions only make sense at real scale."""
    return scale >= 0.2


def test_serve_load(benchmark, results_dir, scale):
    full = min(scale, 0.2)
    scales = sorted({round(full / 2, 3), full})
    with telemetry.activate() as tel:
        runs = [(s, *_run_at(s)) for s in scales[:-1]]
        service, report = benchmark.pedantic(
            _run_at, args=(full,), rounds=1, iterations=1
        )
        runs.append((full, service, report))

    sections = []
    for s, svc, rep in runs:
        stats = svc.stats()
        rows = [
            [
                summary.op,
                summary.count,
                f"{summary.p50_ms:.2f}",
                f"{summary.p99_ms:.2f}",
                f"{summary.max_ms:.2f}",
            ]
            for summary in rep.summaries
        ]
        rows.append(
            [
                "ALL",
                rep.total_requests,
                f"{rep.p50_ms:.2f}",
                f"{rep.p99_ms:.2f}",
                "-",
            ]
        )
        table = format_table(
            ["op", "count", "p50 ms", "p99 ms", "max ms"],
            rows,
            title=(
                f"Extension — serving latency ({DATASET}@{s}: "
                f"{stats.num_nodes} nodes, {NUM_CLIENTS} clients, "
                f"{WRITE_FRACTION:.0%} writes)"
            ),
        )
        pauses = (
            ", ".join(f"{p:.1f}" for p in rep.compaction_pauses_ms) or "none"
        )
        table += (
            f"\nthroughput: {rep.qps:.0f} req/s over {rep.duration_seconds:.2f}s"
            f" | errors: {rep.errors}"
            f" | compactions: {rep.compactions} (pauses ms: {pauses})"
            f" | warm-cache hit rate: "
            f"{stats.cache_hits / max(1, stats.cache_hits + stats.cache_misses):.1%}"
        )
        sections.append(table)
    publish(results_dir, "serve_load", "\n\n".join(sections))
    metrics_path = publish_metrics(results_dir, "serve_load_metrics", tel)
    assert metrics_path.exists()

    doc = tel.as_dict()
    assert doc["counters"]["serve.load.requests"] == NUM_REQUESTS * len(runs)
    assert "serve.load.rank_seconds" in doc["distributions"]
    assert "serve.compaction.pause_seconds" in doc["distributions"]

    # every scale: the mixed burst completes without a single failure
    for _, svc, rep in runs:
        assert rep.errors == 0
        assert rep.total_requests == NUM_REQUESTS
        final = svc.stats()
        assert final.writes > 0 and final.queries > 0

    if _gate(scale):
        _, svc, rep = runs[-1]
        final = svc.stats()
        # concurrent reads survived edge arrivals AND compactions
        assert rep.compactions >= 1
        assert final.cache_hits > final.cache_misses
        # reads stay interactive; generous bound for shared CI boxes
        rank = next(s for s in rep.summaries if s.op == "rank")
        assert rank.p99_ms < 500.0
        assert rep.qps > 20.0
