"""Figure 3: |N(S)| versus |S| for envelopes from every core node.

Paper shape to reproduce: for every graph, the neighbor count rises,
peaks around a moderate envelope size, and collapses as the envelope
swallows the graph; the min/mean/max band is wide at small |S| and
narrows at large |S|.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import publish, publish_metrics

from repro import oracles, telemetry
from repro.analysis import figure3_expansion_summaries, format_table
from repro.datasets import load_dataset
from repro.expansion import aggregate_by_set_size

DATASETS = [
    "physics1",
    "physics2",
    "physics3",
    "wiki_vote",
    "facebook_a",
    "livejournal_a",
    "slashdot0811",
    "enron",
    "epinions",
    "rice_grad",
]
CHECKPOINTS = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75]


def _run(scale, num_sources):
    return figure3_expansion_summaries(
        DATASETS, num_sources=num_sources, scale=scale
    )


def _run_oracle(scale, num_sources):
    """The same Figure-3 sweep through the one-BFS-per-core oracle."""
    return {
        name: aggregate_by_set_size(
            oracles.envelope_expansion(
                load_dataset(name, scale=scale), num_sources=num_sources
            )
        )
        for name in DATASETS
    }


def test_fig3(benchmark, results_dir, scale, num_sources):
    summaries = benchmark.pedantic(
        _run, args=(scale, num_sources), rounds=1, iterations=1
    )
    blocks = []
    for name, summary in summaries.items():
        total = summary.set_sizes.max()
        rows = []
        for frac in CHECKPOINTS:
            target = frac * total
            idx = int(np.argmin(np.abs(summary.set_sizes - target)))
            rows.append(
                [
                    f"{frac:.0%}",
                    int(summary.set_sizes[idx]),
                    int(summary.minimum[idx]),
                    f"{summary.mean[idx]:.1f}",
                    int(summary.maximum[idx]),
                ]
            )
        blocks.append(
            format_table(
                ["|S| (rel)", "|S|", "min |N(S)|", "mean |N(S)|", "max |N(S)|"],
                rows,
                title=f"Figure 3 ({name})",
            )
        )
    rendered = (
        f"Figure 3 — neighbors of envelopes of every size (scale={scale}, "
        f"{num_sources} cores per graph)\n\n" + "\n\n".join(blocks)
    )
    publish(results_dir, "fig3_neighbors", rendered)
    # shape: every graph's |N(S)| collapses near |S| -> n
    for name, summary in summaries.items():
        assert summary.mean[-1] < summary.mean.max(), name


def test_fig3_band_narrows(benchmark, results_dir, scale, num_sources):
    summaries = figure3_expansion_summaries(
        ["wiki_vote"], num_sources=num_sources, scale=scale
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summaries["wiki_vote"]
    small = summary.set_sizes < 0.1 * summary.set_sizes.max()
    large = summary.set_sizes > 0.8 * summary.set_sizes.max()
    spread_small = (summary.maximum[small] - summary.minimum[small]).mean()
    spread_large = (summary.maximum[large] - summary.minimum[large]).mean()
    assert spread_large < spread_small


def test_fig3_engine_speedup(results_dir, scale, num_sources):
    """Wall-clock the batched BFS engine against the per-source oracle
    (:mod:`repro.oracles`) on the full Figure-3 workload and record both
    timings.

    The datasets are warmed first so both strategies time only the
    envelope measurement itself.
    """
    _run(scale, 1)  # warm the dataset cache
    timings = {}
    summaries = {}
    with telemetry.activate() as tel:
        for strategy, run in (("sequential", _run_oracle), ("batched", _run)):
            start = time.perf_counter()
            summaries[strategy] = run(scale, num_sources)
            timings[strategy] = time.perf_counter() - start
    speedup = timings["sequential"] / timings["batched"]
    rows = [
        ["sequential", f"{timings['sequential']:.3f}", "1.00x"],
        ["batched", f"{timings['batched']:.3f}", f"{speedup:.2f}x"],
    ]
    rendered = format_table(
        ["strategy", "wall-clock (s)", "speedup"],
        rows,
        title=(
            f"Figure 3 engine — batched vs sequential block BFS "
            f"(scale={scale}, {num_sources} cores, {len(DATASETS)} datasets)"
        ),
    )
    publish(results_dir, "fig3_engine_speedup", rendered)
    publish_metrics(results_dir, "fig3_engine_speedup_metrics", tel)
    # equivalence: byte-identical Figure-3 aggregates, dataset by dataset
    for name in DATASETS:
        bat, seq = summaries["batched"][name], summaries["sequential"][name]
        assert bat.set_sizes.tobytes() == seq.set_sizes.tobytes(), name
        assert bat.minimum.tobytes() == seq.minimum.tobytes(), name
        assert bat.mean.tobytes() == seq.mean.tobytes(), name
        assert bat.maximum.tobytes() == seq.maximum.tobytes(), name
        assert bat.count.tobytes() == seq.count.tobytes(), name
    assert speedup > 1.0
