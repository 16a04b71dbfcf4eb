"""Configuration-model graphs with prescribed degree sequences.

Used by the dataset analogs that need heavy-tailed degrees without the
temporal growth bias of preferential attachment, and by ablations that
hold the degree sequence fixed while varying community structure.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeneratorError
from repro.graph.core import Graph

__all__ = [
    "powerlaw_degree_sequence",
    "configuration_model",
    "powerlaw_configuration_graph",
]


def powerlaw_degree_sequence(
    num_nodes: int,
    exponent: float,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Sample a graphical power-law degree sequence.

    Degrees are drawn from ``P(d) ~ d**(-exponent)`` over
    ``[min_degree, max_degree]`` (default cap ``sqrt(n)``, which keeps
    the sequence graphical with high probability).  The sum is forced
    even by bumping one node if needed.
    """
    if num_nodes < 1:
        raise GeneratorError("num_nodes must be positive")
    if exponent <= 1.0:
        raise GeneratorError("exponent must exceed 1")
    if min_degree < 1:
        raise GeneratorError("min_degree must be at least 1")
    cap = max_degree if max_degree is not None else max(min_degree, int(np.sqrt(num_nodes)))
    if cap < min_degree:
        raise GeneratorError("max_degree must be >= min_degree")
    rng = np.random.default_rng(seed)
    support = np.arange(min_degree, cap + 1, dtype=float)
    weights = support**-exponent
    weights /= weights.sum()
    degrees = rng.choice(support.astype(np.int64), size=num_nodes, p=weights)
    if degrees.sum() % 2 == 1:
        degrees[int(np.argmin(degrees))] += 1
    return degrees.astype(np.int64)


def configuration_model(degrees: np.ndarray, seed: int = 0) -> Graph:
    """Return a simple graph approximating the given degree sequence.

    Runs the stub-matching construction, then discards self loops and
    parallel edges (the "erased" configuration model), which perturbs
    large degrees slightly but keeps the graph simple as the paper's
    model requires.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise GeneratorError("degrees must be non-negative")
    if degrees.sum() % 2 != 0:
        raise GeneratorError("degree sum must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return Graph.from_edges(pairs, num_nodes=degrees.size)


def powerlaw_configuration_graph(
    num_nodes: int, exponent: float, min_degree: int = 2, seed: int = 0
) -> Graph:
    """Convenience wrapper: power-law sequence -> erased configuration model."""
    degrees = powerlaw_degree_sequence(
        num_nodes, exponent, min_degree=min_degree, seed=seed
    )
    return configuration_model(degrees, seed=seed + 1)
