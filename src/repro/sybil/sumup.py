"""SumUp: Sybil-resilient online content voting.

Implements Tran, Min, Li and Subramanian (NSDI 2009).  A vote collector
wants to tally votes such that an attacker with ``g`` attack edges can
cast at most O(g) bogus votes:

1. The collector distributes ``C_max`` tickets outward over BFS levels
   (the same primitive GateKeeper later adopted); the tickets define a
   *vote envelope* around the collector.
2. Each *directed* link toward the collector gets capacity
   ``1 + tickets`` (links inside the envelope have extra capacity,
   links outside have capacity exactly 1).
3. A vote from node v is collected iff one unit of flow can be pushed
   from v to the collector under those capacities; votes are processed
   sequentially, consuming capacity (equivalently: the number of
   collected votes from a set of voters is the max-flow from a
   super-source over the voters to the collector).

Because every path from the Sybil region crosses an attack edge of
capacity O(1), bogus votes are bounded per attack edge, while the
envelope gives honest voters enough capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.sybil.tickets import TicketPlan

__all__ = ["SumUpConfig", "SumUpResult", "SumUp"]


@dataclass(frozen=True)
class SumUpConfig:
    """SumUp parameters.

    ``vote_capacity`` is C_max, the expected number of honest votes to
    collect (the paper adapts it multiplicatively; callers can sweep
    it).  When None it defaults to ``n // 10``.
    """

    vote_capacity: int | None = None

    def __post_init__(self) -> None:
        # 1 + C_max must fit the int32 capacities of the flow graph
        if self.vote_capacity is not None and not (
            1 <= self.vote_capacity < np.iinfo(np.int32).max
        ):
            raise SybilDefenseError(
                "vote_capacity must be positive and below 2**31 - 1"
            )


@dataclass(frozen=True)
class SumUpResult:
    """Outcome of one voting round."""

    collector: int
    voters: np.ndarray
    collected_votes: int
    max_possible: int

    @property
    def collection_fraction(self) -> float:
        """Fraction of submitted votes that were collected."""
        return self.collected_votes / max(self.max_possible, 1)


class SumUp:
    """Capacity-constrained vote collection around a collector."""

    def __init__(self, graph: Graph, config: SumUpConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SumUp needs at least 3 nodes")
        self._graph = graph
        self._config = config or SumUpConfig()
        # collector -> read-only capacity of every CSR half-edge
        self._capacities: dict[int, np.ndarray] = {}

    @property
    def graph(self) -> Graph:
        """The graph votes flow over."""
        return self._graph

    def _budget(self) -> float:
        """C_max, the tickets the collector distributes."""
        return float(
            self._config.vote_capacity or max(self._graph.num_nodes // 10, 2)
        )

    def _capacity(self, collector: int) -> np.ndarray:
        """Capacity of every half-edge of the CSR toward ``collector``.

        Every half-edge gets capacity 1 except the envelope links toward
        the collector: a link ``v -> u`` whose reverse ``u -> v`` carried
        tickets outward from the collector gets ``1 + ceil(tickets)``
        (the paper's integer ticket split: a link that carries any
        tickets gets at least one unit of extra capacity).  Links
        pointing away from the collector keep capacity 1 to allow
        detours, as in the paper's implementation.  Built from one
        :class:`TicketPlan` on a collector's first collection and kept,
        read-only, for every later one.
        """
        capacity = self._capacities.get(collector)
        if capacity is not None:
            return capacity
        graph = self._graph
        n = graph.num_nodes
        plan = TicketPlan(graph, collector)
        u, v, tickets = plan._carried(plan._tickets(self._budget())[1])
        rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        capacity = np.ones(rows.size, dtype=np.int64)
        # tickets flowed u -> v outward; votes flow back over (v, u),
        # found by its (row, col) key in the row-sorted CSR
        half_edge = np.searchsorted(rows * n + graph.indices, v * n + u)
        capacity[half_edge] = 1 + np.ceil(tickets).astype(np.int64)
        capacity.flags.writeable = False
        self._capacities[collector] = capacity
        return capacity

    def _flow_graph(
        self, collector: int, voters: np.ndarray
    ) -> tuple[sp.csr_matrix, int]:
        """Build the integer capacity matrix with a super-source.

        Rows ``0 .. n-1`` are the graph's CSR carrying
        :meth:`_capacity`; the super-source ``n`` links to each voter
        with capacity 1, the only row that changes between collections.
        """
        graph = self._graph
        n = graph.num_nodes
        matrix = sp.csr_matrix(
            (
                np.concatenate(
                    [self._capacity(collector), np.ones(voters.size, dtype=np.int64)]
                ),
                np.concatenate([graph.indices, voters]),
                np.append(graph.indptr, graph.indptr[-1] + voters.size),
            ),
            shape=(n + 1, n + 1),
            dtype=np.int32,
        )
        return matrix, n

    def collect(self, collector: int, voters: np.ndarray | list[int]) -> SumUpResult:
        """Collect votes from ``voters`` and return the tally."""
        self._graph._check_node(collector)
        voter_array = np.unique(np.asarray(list(voters), dtype=np.int64))
        if voter_array.size == 0:
            raise SybilDefenseError("at least one voter is required")
        if np.any(voter_array == collector):
            voter_array = voter_array[voter_array != collector]
        capacities, source = self._flow_graph(collector, voter_array)
        flow = maximum_flow(capacities, source, collector)
        return SumUpResult(
            collector=int(collector),
            voters=voter_array,
            collected_votes=int(flow.flow_value),
            max_possible=int(voter_array.size),
        )
