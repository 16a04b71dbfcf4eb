"""Graph transformations: subgraphs, relabeling, unions, edge edits.

All operations return new immutable graphs; the inputs are never touched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.traversal import largest_component_nodes

__all__ = [
    "induced_subgraph",
    "largest_connected_component",
    "with_edges_added",
    "disjoint_union",
]


def induced_subgraph(graph: Graph, nodes: Sequence[int]) -> tuple[Graph, np.ndarray]:
    """Return the subgraph induced by ``nodes`` plus the node mapping.

    The returned graph relabels the kept nodes to ``0 .. k-1`` in sorted
    order of their original ids.  The second return value ``original_ids``
    maps new id ``i`` back to ``original_ids[i]`` in the input graph.
    """
    keep = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= graph.num_nodes):
        raise GraphError("subgraph nodes must be valid node ids")
    new_id = np.full(graph.num_nodes, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size, dtype=np.int64)
    if graph.num_edges == 0:
        return Graph.empty(keep.size), keep
    edges = graph.edge_array()
    mask = (new_id[edges[:, 0]] >= 0) & (new_id[edges[:, 1]] >= 0)
    mapped = new_id[edges[mask]]
    return Graph.from_edges(mapped, num_nodes=keep.size), keep


def largest_connected_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Return the largest connected component and its node mapping."""
    nodes = largest_component_nodes(graph)
    return induced_subgraph(graph, nodes)


def with_edges_added(graph: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Return a copy of ``graph`` with ``edges`` added.

    New endpoints beyond the current node range grow the graph.
    """
    extra = np.asarray(list(edges), dtype=np.int64)
    if extra.size == 0:
        return graph
    if extra.ndim != 2 or extra.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    combined = (
        np.concatenate([graph.edge_array(), extra])
        if graph.num_edges
        else extra
    )
    n = max(graph.num_nodes, int(extra.max()) + 1)
    return Graph.from_edges(combined, num_nodes=n)


def disjoint_union(first: Graph, second: Graph) -> Graph:
    """Return the disjoint union; ``second``'s node ids shift by ``len(first)``."""
    offset = first.num_nodes
    n = offset + second.num_nodes
    parts = []
    if first.num_edges:
        parts.append(first.edge_array())
    if second.num_edges:
        parts.append(second.edge_array() + offset)
    if not parts:
        return Graph.empty(n)
    return Graph.from_edges(np.concatenate(parts), num_nodes=n)
