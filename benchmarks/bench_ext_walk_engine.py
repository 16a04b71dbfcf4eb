"""Extension: vectorized walk engine vs the per-walk oracle.

The escape-probability sweep is the walk-heaviest measurement in the
repo — thousands of independent walks, each tracked to its first step
inside the Sybil region.  This benchmark runs the identical sweep
through the vectorized engine of :mod:`repro.markov.walk_batch` and its
per-walk oracle in :mod:`repro.oracles` (per-walk seed streams make
them bit-identical), records the wall-clock of each, and publishes the
speedup plus the engine's telemetry counters as artifacts.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import publish, publish_metrics

from repro import oracles, telemetry
from repro.analysis import format_table
from repro.datasets import load_dataset
from repro.sybil import measure_escape, standard_attack

WALK_LENGTHS = [2, 8, 32, 128, 512]
ATTACK_EDGES = 20


def _asserts_speedup(scale: float) -> bool:
    """Smoke scales leave too little vector width per step for the
    batched gather to amortize; artifacts still publish, the 5x floor
    is asserted only at report scale."""
    return scale >= 0.2


def test_walk_engine_speedup(results_dir, scale, num_sources):
    honest = load_dataset("facebook_a", scale=scale)
    attack = standard_attack(honest, ATTACK_EDGES, seed=7)
    num_walks = 100 * num_sources
    timings = {}
    curves = {}
    with telemetry.activate() as tel:
        for strategy, measure in (
            ("sequential", oracles.measure_escape),
            ("batched", measure_escape),
        ):
            start = time.perf_counter()
            curves[strategy] = measure(
                attack, WALK_LENGTHS, num_walks=num_walks, seed=11
            )
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
            f"Walk engine — batched vs sequential escape sweep "
            f"(facebook_a analog, scale={scale}, {num_walks} walks, "
            f"w up to {WALK_LENGTHS[-1]})"
        ),
    )
    publish(results_dir, "walk_engine_speedup", rendered)
    publish_metrics(results_dir, "walk_engine_speedup_metrics", tel)
    # the engine must agree with the oracle bit for bit and report its
    # walks into telemetry (the oracle reports none)
    assert np.array_equal(
        curves["batched"].escape, curves["sequential"].escape
    )
    assert tel.counters["markov.walk.walks"] == num_walks
    assert np.all(np.diff(curves["batched"].escape) >= 0)
    if _asserts_speedup(scale):
        assert speedup >= 5.0
