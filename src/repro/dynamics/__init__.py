"""Dynamic social graphs: evolution models, event streams and property
tracking (the paper's Section-VI open problem)."""

from repro.dynamics.evolution import (
    ChurnModel,
    GraphDelta,
    GrowthModel,
    apply_delta,
    snapshots,
)
from repro.dynamics.tracking import SnapshotMetrics, track_evolution

__all__ = [
    "ChurnModel",
    "GraphDelta",
    "GrowthModel",
    "apply_delta",
    "snapshots",
    "SnapshotMetrics",
    "track_evolution",
]
