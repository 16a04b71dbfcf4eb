"""SybilLimit: near-optimal Sybil defense via route tails.

Implements Yu, Gibbons, Kaminsky and Xiao (IEEE S&P 2008).  SybilLimit
improves SybilGuard by using many *short* routes (length ``w = O(mixing
time)``) instead of one long one, accepting per-attack-edge only
``O(log n)`` Sybils:

* each node runs ``r = r0 * sqrt(m)`` (here ``r0 = 3``) independent
  random-route *instances* and registers the **tail** (last directed
  edge) of each;
* a verifier accepts a suspect when one of the suspect's tails collides
  with one of the verifier's tails (the *intersection condition*);
* each verifier tail keeps a load counter; an acceptance is charged to
  the least-loaded intersecting tail and refused when the load would
  exceed ``h * max(log r, a)`` where ``a`` is the average load (the
  *balance condition* — this is what bounds accepted Sybils even when
  the adversary aims all its tails at one verifier tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunking import validate_sources
from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walks import _route_tails

__all__ = ["SybilLimitConfig", "SybilLimit"]


@dataclass(frozen=True)
class SybilLimitConfig:
    """SybilLimit parameters.

    ``num_routes`` defaults (None) to ``ceil(3 * sqrt(m))``;
    ``route_length`` defaults to ``max(2, ceil(2 * log2 n))``, standing
    in for the O(mixing time) length the protocol assumes.
    """

    num_routes: int | None = None
    route_length: int | None = None
    balance_h: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_routes is not None and self.num_routes < 1:
            raise SybilDefenseError("num_routes must be positive")
        if self.route_length is not None and self.route_length < 1:
            raise SybilDefenseError("route_length must be positive")
        if self.balance_h <= 0:
            raise SybilDefenseError("balance_h must be positive")


class SybilLimit:
    """Tail-intersection verification with the balance condition.

    The ``r`` route-table instances and every node's first hop in each
    come from one stream, ``default_rng(seed)``
    (:func:`~repro.markov.walks._route_tails`; instance 0 is the table
    SybilGuard routes on with the same seed), and the routes of every
    node in every instance advance as one block when the defense is
    built.
    """

    def __init__(self, graph: Graph, config: SybilLimitConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SybilLimit needs at least 3 nodes")
        self._graph = graph
        self._config = config or SybilLimitConfig()
        cfg = self._config
        self._num_routes = (
            cfg.num_routes
            if cfg.num_routes is not None
            else int(np.ceil(3.0 * np.sqrt(max(graph.num_edges, 1))))
        )
        self._length = (
            cfg.route_length
            if cfg.route_length is not None
            else max(2, int(np.ceil(2.0 * np.log2(graph.num_nodes))))
        )
        self._tail_edges = _route_tails(graph, cfg.seed, self._num_routes, self._length)
        self._tail_cache: dict[int, list[tuple[int, int]]] = {}

    @property
    def graph(self) -> Graph:
        """The graph being verified over."""
        return self._graph

    @property
    def num_routes(self) -> int:
        """``r``, the number of route instances per node."""
        return self._num_routes

    @property
    def route_length(self) -> int:
        """``w``, the per-route length."""
        return self._length

    def tails(self, node: int) -> list[tuple[int, int]]:
        """Return the node's ``r`` tails (last directed edges).

        In instance ``i`` the node routes along its degree-many edges;
        the protocol uses one uniformly chosen starting edge per
        instance, drawn from the configured seed (see the class notes)
        so results are reproducible.
        """
        cached = self._tail_cache.get(node)
        if cached is not None:
            return cached
        self._graph._check_node(node)
        edges = self._tail_edges[node]
        if edges[0] < 0:
            tails: list[tuple[int, int]] = []
        else:
            indptr = self._graph.indptr
            src = np.searchsorted(indptr, edges, side="right") - 1
            tails = list(zip(src.tolist(), self._graph.indices[edges].tolist()))
        self._tail_cache[node] = tails
        return tails

    def verify_all(
        self, verifier: int, suspects: np.ndarray | list[int]
    ) -> np.ndarray:
        """Run intersection + balance verification over many suspects.

        Suspects are processed in the given order; each accepted suspect
        loads one verifier tail, so earlier suspects can crowd out later
        ones at the same tail (this *is* the balance condition working).
        Tails compare as half-edge ids; an acceptance is charged to the
        least-loaded matching verifier tail, the first on ties in the
        order of the suspect's instances, then of the verifier's.
        Returns the accepted suspects.
        """
        self._graph._check_node(verifier)
        chosen = validate_sources(self._graph.num_nodes, suspects)
        all_tails = self._tail_edges
        if all_tails[verifier, 0] < 0:
            return np.empty(0, dtype=np.int64)
        tail_index: dict[int, list[int]] = {}
        for idx, tail in enumerate(all_tails[verifier].tolist()):
            tail_index.setdefault(tail, []).append(idx)
        r = self._num_routes
        loads = [0] * r
        total = 0
        accepted: list[int] = []
        log_r = max(np.log(r), 1.0)
        for suspect, tails in zip(chosen.tolist(), all_tails[chosen].tolist()):
            if suspect == verifier:
                accepted.append(suspect)
                continue
            matching = [idx for tail in tails for idx in tail_index.get(tail, ())]
            if not matching:
                continue
            best = min(matching, key=loads.__getitem__)
            average = (total + 1) / r
            bound = self._config.balance_h * max(log_r, average)
            if loads[best] + 1 > bound:
                continue
            loads[best] += 1
            total += 1
            accepted.append(suspect)
        return np.asarray(accepted, dtype=np.int64)

    def verify(self, verifier: int, suspect: int) -> bool:
        """Single-suspect convenience check (intersection condition only)."""
        return bool(self.verify_all(verifier, [suspect]).size)

    def accepted_set(self, verifier: int, seed: int = 0) -> np.ndarray:
        """Verify every node in random order and return the accepted set."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(self._graph.num_nodes)
        return np.sort(self.verify_all(verifier, order))
