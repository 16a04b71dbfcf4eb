"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without
catching unrelated programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations or inputs."""


class NodeNotFoundError(GraphError):
    """Raised when a node id is outside the graph's node range."""

    def __init__(self, node: int, num_nodes: int) -> None:
        super().__init__(
            f"node {node} is out of range for a graph with {num_nodes} nodes"
        )
        self.node = node
        self.num_nodes = num_nodes


class EmptyGraphError(GraphError):
    """Raised when an operation requires a non-empty graph."""


class GeneratorError(ReproError):
    """Raised when a synthetic graph generator receives invalid parameters."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid dataset parameters."""


class ConvergenceError(ReproError):
    """Raised when an iterative numerical method fails to converge."""

    def __init__(self, message: str, iterations: int | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations


class SybilDefenseError(ReproError):
    """Raised for invalid Sybil-defense configurations or inputs."""


class ServeError(ReproError):
    """Raised for invalid admission-service requests or configuration."""


class StoreError(ReproError):
    """Raised for invalid artifact-store keys, params or configuration."""


class PipelineError(ReproError):
    """Raised for malformed experiment pipelines (cycles, unknown stages)."""
