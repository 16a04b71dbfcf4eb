"""Social-metric routing for delay-tolerant networks (Daly & Haahr).

Reference [2] and the paper's third motivating application: in a DTN,
nodes meet intermittently (here: along the social graph's edges) and a
message should be handed to encountered nodes that are *socially better
placed* to reach the destination.  SimBet forwards on a utility mixing
two metrics computable from the social graph:

* **betweenness utility** — carriers with high betweenness centrality
  reach more of the graph;
* **similarity utility** — carriers sharing more neighbors with the
  destination are likely to meet it.

The simulator below plays contact rounds: each round every message
holder meets its social neighbors in random order and hands the message
to a neighbor with strictly higher SimBet utility toward the
destination.  Delivery ratio and hop counts against a flooding
upper bound and a random-forwarding baseline quantify how much the
social metrics buy — the experiment Daly & Haahr report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.centrality import betweenness_centrality
from repro.graph.core import Graph

__all__ = ["SimBetRouter", "DeliveryStats", "simulate_delivery"]


@dataclass(frozen=True)
class DeliveryStats:
    """Aggregate outcome of a routing simulation."""

    delivered: int
    total: int
    mean_hops: float
    mean_rounds: float

    @property
    def delivery_ratio(self) -> float:
        """Fraction of messages that reached their destination."""
        return self.delivered / max(self.total, 1)


class SimBetRouter:
    """SimBet utility routing over a social graph.

    Parameters
    ----------
    alpha:
        Weight of the betweenness utility; similarity gets
        ``1 - alpha``.  The original paper uses 0.5.  Betweenness is
        exact.
    """

    def __init__(self, graph: Graph, alpha: float = 0.5) -> None:
        if graph.num_nodes < 2:
            raise GraphError("routing needs at least 2 nodes")
        if not 0.0 <= alpha <= 1.0:
            raise GraphError("alpha must be in [0, 1]")
        self._graph = graph
        self._alpha = alpha
        raw = betweenness_centrality(graph, normalized=True)
        peak = raw.max()
        self._betweenness = raw / peak if peak > 0 else raw
        self._neighbor_sets = [
            set(graph.neighbors(v).tolist()) for v in range(graph.num_nodes)
        ]

    @property
    def graph(self) -> Graph:
        """The contact graph."""
        return self._graph

    def similarity(self, node: int, destination: int) -> float:
        """Return the normalized common-neighbor count."""
        if node == destination:
            return 1.0
        common = self._neighbor_sets[node] & self._neighbor_sets[destination]
        denom = len(self._neighbor_sets[destination])
        return len(common) / denom if denom else 0.0

    def utility(self, node: int, destination: int) -> float:
        """Return the SimBet utility of ``node`` for ``destination``."""
        return self._alpha * float(self._betweenness[node]) + (
            1 - self._alpha
        ) * self.similarity(node, destination)


#: Chance per round of one encounter with a uniformly random node.
_STRANGER_PROBABILITY = 0.1


def simulate_delivery(
    graph: Graph,
    num_messages: int = 100,
    max_rounds: int = 30,
    strategy: str = "simbet",
    contacts_per_round: int = 3,
    seed: int = 0,
) -> DeliveryStats:
    """Simulate single-copy message delivery over DTN contact rounds.

    Contact model: each round the current message holder encounters
    ``contacts_per_round`` uniformly random *social neighbors* (with
    replacement), plus — with probability 0.1 — one uniformly random
    node (the chance encounter that real mobility traces contain;
    without it every single-copy scheme deadlocks at its first local
    utility maximum).

    ``strategy`` decides what to do with the encounter set:

    * ``"simbet"`` — hand over to the highest-utility encounter that
      strictly improves on the holder (:class:`SimBetRouter` with
      ``alpha = 0.5``);
    * ``"random"``  — hand over to a random encounter (baseline);
    * ``"direct"``  — never hand over (delivery only when the holder
      encounters the destination itself — the floor).

    A message is delivered the moment the destination is encountered.
    """
    if strategy not in ("simbet", "random", "direct"):
        raise GraphError("strategy must be 'simbet', 'random' or 'direct'")
    if num_messages < 1 or max_rounds < 1:
        raise GraphError("num_messages and max_rounds must be positive")
    if contacts_per_round < 1:
        raise GraphError("contacts_per_round must be positive")
    rng = np.random.default_rng(seed)
    router = SimBetRouter(graph) if strategy == "simbet" else None
    delivered = 0
    hop_counts: list[int] = []
    round_counts: list[int] = []
    for _ in range(num_messages):
        source = int(rng.integers(graph.num_nodes))
        destination = int(rng.integers(graph.num_nodes))
        while destination == source:
            destination = int(rng.integers(graph.num_nodes))
        holder = source
        hops = 0
        for round_no in range(1, max_rounds + 1):
            encounters: list[int] = []
            nbrs = graph.neighbors(holder)
            if nbrs.size:
                picks = rng.integers(nbrs.size, size=contacts_per_round)
                encounters.extend(int(nbrs[i]) for i in set(picks.tolist()))
            if rng.random() < _STRANGER_PROBABILITY:
                stranger = int(rng.integers(graph.num_nodes))
                if stranger != holder:
                    encounters.append(stranger)
            if destination in encounters:
                delivered += 1
                hop_counts.append(hops + 1)
                round_counts.append(round_no)
                break
            if strategy == "direct" or not encounters:
                continue
            if strategy == "random":
                holder = encounters[rng.integers(len(encounters))]
                hops += 1
                continue
            assert router is not None
            current = router.utility(holder, destination)
            best = max(encounters, key=lambda e: router.utility(e, destination))
            if router.utility(best, destination) > current + 1e-12:
                holder = best
                hops += 1
    return DeliveryStats(
        delivered=delivered,
        total=num_messages,
        mean_hops=float(np.mean(hop_counts)) if hop_counts else 0.0,
        mean_rounds=float(np.mean(round_counts)) if round_counts else 0.0,
    )
