"""Out-of-core shard engine: a 1M-node sweep under a fixed RSS budget.

The tentpole demonstration for :mod:`repro.graph.shard`: a fast-mixing
analog is *streamed* straight into node-range shards (the full edge
list never exists), then the three batch engines — walk evolution
(TVD-to-stationary profile), multi-source BFS and the random-walk
sampler — plus the Lanczos SLEM on streamed shard matvecs all run
against the shard store, while the process's peak RSS stays under a budget a laptop
would not notice.  ``REPRO_BENCH_SCALE=1.0`` runs the full 1M-node
sweep; the default 0.25 keeps CI-adjacent runs quick.

Before the sweep, a small-scale twin of the same pipeline asserts the
engines are *bit-identical* to the in-RAM engines on the materialized
graph — the sharded path is a memory layout, not an approximation.
"""

from __future__ import annotations

import resource
import time

import numpy as np
from conftest import publish, publish_metrics

from repro import telemetry
from repro.analysis import format_table
from repro.datasets import build_sharded_analog
from repro.graph import ShardedGraph
from repro.graph.bfs_batch import bfs_level_sizes_block
from repro.markov.batch import batched_tvd_profile
from repro.markov.transition import stationary_distribution, transition_matrix
from repro.markov.walk_batch import walk_endpoints
from repro.mixing import slem
from repro.parallel import execution

BASE_NODES = 1_000_000
WALK_LENGTHS = [1, 2, 4, 8, 16]

#: Peak-RSS ceiling for the sweep (MB).  Holds up to scale 1.0: the
#: resident set is a handful of shards (LRU-bounded), the dense source
#: block, and the build's largest sort bucket — none of which grow past
#: a few hundred MB at 1M nodes.
PEAK_RSS_BUDGET_MB = 1536


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _assert_bit_identity(tmp_path) -> str:
    """Small-scale twin: sharded engines vs in-RAM, byte for byte."""
    n = 12_000
    sharded = build_sharded_analog(
        tmp_path / "small", n, regime="fast", seed=3, num_shards=5
    )
    graph = sharded.to_graph()
    rng = np.random.default_rng(0)
    sources = np.sort(rng.choice(n, size=12, replace=False))
    tvd_ram = batched_tvd_profile(
        transition_matrix(graph), stationary_distribution(graph), sources,
        WALK_LENGTHS,
    )
    pi = stationary_distribution(sharded)
    with execution(chunk_size=5, workers=2):
        tvd_sh = batched_tvd_profile(sharded, pi, sources, WALK_LENGTHS)
    assert np.array_equal(tvd_sh, tvd_ram)
    with execution(chunk_size=2):
        levels_sh = bfs_level_sizes_block(sharded, sources[:6])
    assert np.array_equal(levels_sh, bfs_level_sizes_block(graph, sources[:6]))
    walks = rng.integers(0, n, size=256)
    with execution(chunk_size=64):
        walks_sh = walk_endpoints(sharded, walks, length=16, seed=7)
    assert np.array_equal(walks_sh, walk_endpoints(graph, walks, length=16, seed=7))
    return f"bit-identity: PASS (n={n}, 5 shards, tvd+bfs+walk vs in-RAM)"


def test_shard_engine_sweep(results_dir, scale, num_sources, tmp_path):
    identity_line = _assert_bit_identity(tmp_path)
    n = max(int(BASE_NODES * scale), 20_000)
    nodes_per_shard = max(2048, -(-n // 8))  # always 8 shards
    timings = {}
    with telemetry.activate() as tel:
        start = time.perf_counter()
        sharded = build_sharded_analog(
            tmp_path / "sweep",
            n,
            regime="fast",
            seed=0,
            nodes_per_shard=nodes_per_shard,
            max_resident_shards=2,
        )
        timings["build (streamed)"] = time.perf_counter() - start

        rng = np.random.default_rng(1)
        sources = np.sort(
            rng.choice(n, size=min(16, num_sources), replace=False)
        )
        start = time.perf_counter()
        with execution(chunk_size=8):
            tvd = batched_tvd_profile(
                sharded, stationary_distribution(sharded), sources, WALK_LENGTHS
            )
        timings["mixing (TVD profile)"] = time.perf_counter() - start

        start = time.perf_counter()
        with execution(chunk_size=4):
            levels = bfs_level_sizes_block(sharded, sources[:8])
        timings["BFS (level sizes)"] = time.perf_counter() - start

        # the iterative stages revisit every shard thousands of times;
        # a 2-shard LRU would thrash, so they get a full-residency
        # handle — the whole mapped CSR still fits the RSS budget
        resident = ShardedGraph.open(sharded.root)
        start = time.perf_counter()
        mu = slem(resident)
        timings["SLEM (Lanczos)"] = time.perf_counter() - start

        start = time.perf_counter()
        endpoints = walk_endpoints(
            resident, rng.integers(0, n, size=4096), length=64, seed=2
        )
        timings["walks (4096 x 64)"] = time.perf_counter() - start

    peak_mb = _peak_rss_mb()
    rows = [[stage, f"{seconds:.2f}"] for stage, seconds in timings.items()]
    rows += [
        ["SLEM mu", f"{mu:.4f}"],
        ["SLEM matvecs / error bound", (
            f"{tel.counter('mixing.slem.matvecs'):.0f} / "
            f"{tel.gauges['mixing.slem.error_bound']:.1e}"
        )],
        ["worst TVD at t=16", f"{tvd[:, -1].max():.3e}"],
        ["shard loads / spills", (
            f"{tel.counter('shard.loads'):.0f} / "
            f"{tel.counter('shard.spills'):.0f}"
        )],
        ["peak resident shard bytes", (
            f"{tel.gauges['shard.peak_resident_bytes']:,.0f}"
        )],
        [f"peak RSS (budget {PEAK_RSS_BUDGET_MB} MB)", f"{peak_mb:.0f} MB"],
    ]
    rendered = format_table(
        ["stage / property", "value"],
        rows,
        title=(
            f"Out-of-core shard engine — streamed fast analog "
            f"(n={n:,}, m={sharded.num_edges:,}, "
            f"{sharded.num_shards} shards, 2 resident)"
        ),
    )
    rendered += f"\n{identity_line}"
    publish(results_dir, "shard_engine_sweep", rendered)
    publish_metrics(results_dir, "shard_engine_sweep_metrics", tel)

    # contract: engines streamed (shards were loaded and evicted), the
    # analog mixed fast, BFS reached the whole graph, walks stayed in
    # range, and the sweep respected the memory budget
    assert tel.counter("shard.loads") > 0
    assert tel.counter("shard.spills") > 0
    assert tel.gauges["shard.resident_bytes"] > 0
    assert 0.0 < mu < 0.7
    assert np.all(tvd[:, -1] < 1e-3)
    assert levels.sum(axis=1).max() == n  # BFS covers every node
    assert endpoints.min() >= 0 and endpoints.max() < n
    if scale <= 1.0:
        assert peak_mb < PEAK_RSS_BUDGET_MB
