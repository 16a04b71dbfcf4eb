"""Figure 1: mixing time via the sampling method.

Paper shape to reproduce:

* (a) small/medium graphs: Wiki-vote and Enron mix similarly despite a
  5x size gap; the Physics co-authorship graphs stay far from
  stationarity at every plotted walk length.
* (b) large graphs: Facebook A / LiveJournal A / YouTube drop fast,
  DBLP and LiveJournal B stay high.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import publish, publish_metrics

from repro import oracles, telemetry
from repro.analysis import figure1_mixing_profiles, format_table
from repro.datasets import load_dataset

WALK_LENGTHS = [1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 50]
SMALL = ["wiki_vote", "enron", "physics1", "physics2", "physics3", "epinions"]
LARGE = ["facebook_a", "facebook_b", "livejournal_a", "livejournal_b", "dblp", "youtube"]


def _run(datasets, scale, num_sources):
    return figure1_mixing_profiles(
        datasets, walk_lengths=WALK_LENGTHS, num_sources=num_sources, scale=scale
    )


def _run_oracle(datasets, scale, num_sources):
    """The same Figure-1 sweep through the one-matvec-per-source oracle."""
    return {
        name: oracles.sampled_mixing_profile(
            load_dataset(name, scale=scale),
            walk_lengths=WALK_LENGTHS,
            num_sources=num_sources,
        )
        for name in datasets
    }


def _asserts_paper_shape(scale: float) -> bool:
    """Below ~20% scale the analogs are too small to show the paper's
    fast/slow contrasts; smoke runs still exercise the full pipeline and
    publish artifacts, but skip the shape assertions."""
    return scale >= 0.2


def _render(profiles, title):
    headers = ["walk length"] + list(profiles)
    rows = []
    for i, length in enumerate(WALK_LENGTHS):
        rows.append(
            [length] + [f"{profiles[name].mean[i]:.4f}" for name in profiles]
        )
    return format_table(headers, rows, title=title)


def test_fig1a_small_datasets(benchmark, results_dir, scale, num_sources):
    profiles = benchmark.pedantic(
        _run, args=(SMALL, scale, num_sources), rounds=1, iterations=1
    )
    rendered = _render(
        profiles,
        f"Figure 1(a) — mean TVD vs walk length, small/medium analogs "
        f"(scale={scale}, {num_sources} sources)",
    )
    publish(results_dir, "fig1a_mixing_small", rendered)
    if _asserts_paper_shape(scale):
        wiki = profiles["wiki_vote"].mean
        enron = profiles["enron"].mean
        physics = profiles["physics1"].mean
        # Wiki-vote ~ Enron despite sizes; Physics 1 far slower than both
        assert np.max(np.abs(wiki[4:] - enron[4:])) < 0.2
        assert physics[-1] > wiki[-1] + 0.3


def test_fig1b_large_datasets(benchmark, results_dir, scale, num_sources):
    profiles = benchmark.pedantic(
        _run, args=(LARGE, scale, num_sources), rounds=1, iterations=1
    )
    rendered = _render(
        profiles,
        f"Figure 1(b) — mean TVD vs walk length, large analogs "
        f"(scale={scale}, {num_sources} sources)",
    )
    publish(results_dir, "fig1b_mixing_large", rendered)
    if _asserts_paper_shape(scale):
        # fast large analogs reach near-stationarity, slow ones do not
        assert profiles["facebook_a"].mean[-1] < 0.05
        assert profiles["youtube"].mean[-1] < 0.15
        assert profiles["dblp"].mean[-1] > 0.5
        assert profiles["livejournal_b"].mean[-1] > 0.5


def test_fig1_engine_speedup(results_dir, scale, num_sources):
    """Wall-clock the batched walk engine against the per-source oracle
    (:mod:`repro.oracles`) on the full Figure-1 workload and record both
    timings.

    The datasets are warmed first so both strategies time only the
    mixing measurement.
    """
    datasets = SMALL + LARGE
    _run(datasets, scale, 1)  # warm the dataset cache
    timings = {}
    profiles = {}
    with telemetry.activate() as tel:
        for strategy, run in (("sequential", _run_oracle), ("batched", _run)):
            start = time.perf_counter()
            profiles[strategy] = run(datasets, scale, num_sources)
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
            f"Figure 1 engine — batched vs sequential walk evolution "
            f"(scale={scale}, {num_sources} sources, 12 datasets)"
        ),
    )
    publish(results_dir, "fig1_engine_speedup", rendered)
    publish_metrics(results_dir, "fig1_engine_speedup_metrics", tel)
    # equivalence: identical TVD matrices, dataset by dataset
    for name in datasets:
        np.testing.assert_allclose(
            profiles["batched"][name].tvd,
            profiles["sequential"][name].tvd,
            atol=1e-12,
        )
    assert speedup > 1.0
