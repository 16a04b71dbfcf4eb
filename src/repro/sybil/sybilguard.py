"""SybilGuard: Sybil defense via intersecting random routes.

Implements Yu, Kaminsky, Gibbons and Flaxman (SIGCOMM 2006), the first
of the fast-mixing-based defenses the paper discusses.  Every node fixes
a random permutation between its incident edges (a *route table*); a
**random route** is the deterministic walk those permutations induce.
A verifier V accepts a suspect S when enough of V's routes intersect
S's routes: honest routes of length ``w = Theta(sqrt(n log n))`` stay in
the honest region and intersect with high probability, while routes
crossing an attack edge are confined to the Sybil region's limited
"route slots" (one route set per attack edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walks import _route_paths

__all__ = ["SybilGuardConfig", "SybilGuard"]


@dataclass(frozen=True)
class SybilGuardConfig:
    """SybilGuard parameters.

    ``route_length`` defaults (when None) to
    ``ceil(2 * sqrt(n * log n))``, the theory's scaling constant-tuned
    for the graph sizes used here.  ``intersection_threshold`` is the
    fraction of verifier routes that must intersect the suspect's routes.
    """

    route_length: int | None = None
    intersection_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.route_length is not None and self.route_length < 1:
            raise SybilDefenseError("route_length must be positive")
        if not 0.0 < self.intersection_threshold <= 1.0:
            raise SybilDefenseError("intersection_threshold must be in (0, 1]")


class SybilGuard:
    """Random-route verification over a fixed graph.

    The routes of all nodes are one ``(2m, w + 1)`` block, built with
    the defense: one route per half-edge of one route table, advanced
    together (:func:`~repro.markov.walks._route_paths`), so node ``v``'s
    routes are rows ``indptr[v]:indptr[v + 1]``.  Verdicts are boolean
    masks over that block.  The defense computes every node's routes
    from the graph, so a suspect is credited only with routes it really
    has, which is what the protocol's per-node route registries
    enforce.
    """

    def __init__(self, graph: Graph, config: SybilGuardConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SybilGuard needs at least 3 nodes")
        self._graph = graph
        self._config = config or SybilGuardConfig()
        if self._config.route_length is not None:
            self._length = self._config.route_length
        else:
            n = graph.num_nodes
            self._length = int(np.ceil(2.0 * np.sqrt(n * np.log(max(n, 2)))))
        self._block = _route_paths(graph, self._config.seed, self._length)

    @property
    def graph(self) -> Graph:
        """The graph being verified over."""
        return self._graph

    @property
    def route_length(self) -> int:
        """The route length ``w`` in use."""
        return self._length

    def _node_routes(self, node: int) -> np.ndarray:
        """The ``(deg, w + 1)`` rows of ``node``'s routes in the block."""
        self._graph._check_node(node)
        indptr = self._graph.indptr
        return self._block[indptr[node] : indptr[node + 1]]

    def routes(self, node: int) -> list[np.ndarray]:
        """Return the node's routes, one per incident edge (rows of the
        route block)."""
        return list(self._node_routes(node))

    def verify(self, verifier: int, suspect: int) -> bool:
        """Return True when the verifier accepts the suspect.

        A verifier route accepts when it shares a node with one of the
        suspect's routes; acceptance needs the configured fraction of
        verifier routes to accept (the paper's majority-of-routes
        rule).  The suspect's route nodes are one mask, read along each
        verifier route.
        """
        if verifier == suspect:
            return True
        verifier_routes = self._node_routes(verifier)
        if not verifier_routes.size:
            return False
        suspect_mask = np.zeros(self._graph.num_nodes, dtype=bool)
        suspect_mask[self._node_routes(suspect)] = True
        hits = int(suspect_mask[verifier_routes].any(axis=1).sum())
        return hits >= self._config.intersection_threshold * len(verifier_routes)

    def accepted_set(
        self, verifier: int, candidates: np.ndarray | list[int] | None = None
    ) -> np.ndarray:
        """Return all candidates the verifier accepts (default: everyone)."""
        nodes = (
            np.arange(self._graph.num_nodes, dtype=np.int64)
            if candidates is None
            else np.asarray(list(candidates), dtype=np.int64)
        )
        return np.array(
            [node for node in nodes if self.verify(verifier, int(node))],
            dtype=np.int64,
        )
