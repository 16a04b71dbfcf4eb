"""Figure 4: expected expansion factor versus set size.

Paper shape to reproduce: alpha decays with |S| for every graph, and at
comparable relative set sizes the fast-mixing analogs sit above the
slow-mixing ones (Section V: the expansion measurements "can be
interpreted as a scale of" the mixing measurements).
"""

from __future__ import annotations

import numpy as np
from conftest import publish

from repro.analysis import figure4_expansion_factors, format_table

SMALL = ["physics1", "physics2", "physics3", "facebook_a", "livejournal_a"]
MEDIUM = ["wiki_vote", "epinions", "enron", "slashdot0811"]
CHECKPOINTS = [0.01, 0.05, 0.1, 0.25, 0.5]


def _run(datasets, scale, num_sources):
    return figure4_expansion_factors(
        datasets, num_sources=num_sources, scale=scale
    )


def _alpha_at(series, frac):
    sizes, alphas = series
    target = frac * sizes.max()
    idx = int(np.argmin(np.abs(sizes - target)))
    return float(alphas[idx])


def _render(factors, title):
    headers = ["|S| / max"] + list(factors)
    rows = []
    for frac in CHECKPOINTS:
        rows.append(
            [f"{frac:.0%}"]
            + [f"{_alpha_at(factors[name], frac):.3f}" for name in factors]
        )
    return format_table(headers, rows, title=title)


def test_fig4a_small(benchmark, results_dir, scale, num_sources):
    factors = benchmark.pedantic(
        _run, args=(SMALL, scale, num_sources), rounds=1, iterations=1
    )
    rendered = _render(
        factors,
        f"Figure 4(a) — expected expansion factor (scale={scale})",
    )
    publish(results_dir, "fig4a_expansion_small", rendered)
    # alpha decays with |S| on every graph
    for name in SMALL:
        assert _alpha_at(factors[name], 0.01) > _alpha_at(factors[name], 0.5)
    # fast analog dominates slow analogs at small set sizes
    assert _alpha_at(factors["facebook_a"], 0.05) > _alpha_at(
        factors["physics1"], 0.05
    )


def test_fig4b_medium(benchmark, results_dir, scale, num_sources):
    factors = benchmark.pedantic(
        _run, args=(MEDIUM, scale, num_sources), rounds=1, iterations=1
    )
    rendered = _render(
        factors,
        f"Figure 4(b) — expected expansion factor (scale={scale})",
    )
    publish(results_dir, "fig4b_expansion_medium", rendered)
    for name in MEDIUM:
        assert _alpha_at(factors[name], 0.01) > _alpha_at(factors[name], 0.5)
