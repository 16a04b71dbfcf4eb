"""Graph substrate: CSR graphs, traversal, transformations and metrics."""

from repro.graph.builder import GraphBuilder
from repro.graph.centrality import betweenness_centrality
from repro.graph.core import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.shard import DEFAULT_NODES_PER_SHARD, Shard, ShardedGraph
from repro.graph.metrics import (
    degree_assortativity,
    average_clustering,
    average_degree,
    local_clustering,
)
from repro.graph.ops import (
    disjoint_union,
    induced_subgraph,
    largest_connected_component,
    with_edges_added,
)
from repro.graph.traversal import (
    bfs_distances,
    bfs_distances_block,
    bfs_level_sizes_block,
    bfs_levels,
    connected_components,
    largest_component_nodes,
    num_connected_components,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "Shard",
    "ShardedGraph",
    "DEFAULT_NODES_PER_SHARD",
    "read_edge_list",
    "write_edge_list",
    "bfs_distances",
    "bfs_levels",
    "bfs_distances_block",
    "bfs_level_sizes_block",
    "connected_components",
    "num_connected_components",
    "largest_component_nodes",
    "induced_subgraph",
    "largest_connected_component",
    "with_edges_added",
    "disjoint_union",
    "average_degree",
    "local_clustering",
    "average_clustering",
    "degree_assortativity",
    "betweenness_centrality",
]
