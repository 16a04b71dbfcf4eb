"""Level-based ticket distribution, the primitive shared by GateKeeper
and SumUp.

A distributor starts with ``t`` tickets at BFS level 0.  Each node that
receives tickets consumes one (admitting itself / becoming eligible) and
splits the rest evenly over its *forward* links — edges to neighbors one
BFS level farther from the distributor.  Tickets that reach a node with
no forward links are dropped.  Because the number of edges crossing into
the Sybil region is bounded by the attack-edge count, only O(1) tickets
per attack edge can ever leak, which is the source of both protocols'
per-attack-edge guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.graph.traversal import bfs_distances, bfs_distances_block

__all__ = [
    "TicketDistribution",
    "TicketPlan",
    "ticket_plans",
    "distribute_tickets",
]


@dataclass(frozen=True)
class TicketDistribution:
    """Outcome of one ticket distribution run.

    Attributes
    ----------
    source:
        The distributor node.
    tickets_sent:
        The initial ticket count ``t``.
    node_tickets:
        Tickets received per node (the distributor counts its own ``t``).
    reached:
        Node ids that received at least one ticket.
    edge_tickets:
        Mapping ``(u, v) -> tickets`` forwarded along each directed
        forward edge; SumUp turns these into link capacities.
    """

    source: int
    tickets_sent: float
    node_tickets: np.ndarray
    reached: np.ndarray
    edge_tickets: dict[tuple[int, int], float]


class TicketPlan:
    """The BFS scaffolding for repeated distributions from one source.

    GateKeeper's adaptive doubling re-runs the distribution with larger
    budgets; the BFS levels and forward-edge classification only depend
    on (graph, source), so they are computed once here and reused.  The
    forward edges are grouped by their source's level with a stable
    sort, so CSR order survives inside each level, and one run is one
    NumPy pass over each level's contiguous slice: no Python per edge.
    """

    def __init__(
        self,
        graph: Graph,
        source: int,
        distances: np.ndarray | None = None,
        *,
        _edge_src: np.ndarray | None = None,
    ) -> None:
        graph._check_node(source)
        self._graph = graph
        self._source = int(source)
        n = graph.num_nodes
        if distances is None:
            distances = bfs_distances(graph, source)
        elif distances.shape != (n,):
            raise SybilDefenseError(
                f"precomputed distances must have shape ({n},)"
            )
        self._dist = distances
        max_level = int(distances.max())
        if _edge_src is None:
            _edge_src = _edge_sources(graph)
        # the level as the narrowest unsigned key that holds every level;
        # unreachable nodes wrap to the key's largest value.  An edge
        # joins two reachable or two unreachable nodes, so ``key + 1``
        # matches only a reachable node one level farther on
        key = distances.astype(np.min_scalar_type(max_level + 1))
        level = key[_edge_src]
        forward = np.flatnonzero(key[graph.indices] == level + 1)
        level = level[forward]
        # _order[i] is the CSR rank of the i-th level-grouped forward
        # edge; a stable sort of a key of 16 bits or fewer is a radix sort
        self._order = np.argsort(level, kind="stable")
        forward = forward[self._order]
        self._src = _edge_src[forward]
        self._dst = graph.indices[forward]
        self._forward_count = np.bincount(self._src, minlength=n).astype(float)
        self._level_bounds = np.searchsorted(
            level[self._order], np.arange(max_level + 1, dtype=key.dtype)
        ).tolist()

    @property
    def source(self) -> int:
        """The distributor node."""
        return self._source

    @property
    def distances(self) -> np.ndarray:
        """BFS hop distances from the distributor (-1 for unreachable).

        Exposed so callers that need the same levels reuse this plan's
        BFS instead of re-running it.
        """
        return self._dist

    def _tickets(self, num_tickets: float) -> tuple[np.ndarray, np.ndarray]:
        """Node tickets and the share sent along each forward edge.

        The shares follow the plan's level-grouped edge order; read them
        through :meth:`_carried`.
        """
        tickets = np.zeros(self._graph.num_nodes)
        tickets[self._source] = num_tickets
        shares = np.empty(self._src.size)
        bounds = self._level_bounds
        for lo, hi in zip(bounds, bounds[1:]):
            # level L+1 receives tickets only from level L, so tickets[src]
            # is final here: each node consumes one ticket and splits the
            # rest evenly over its forward links
            src = self._src[lo:hi]
            share = shares[lo:hi]
            np.maximum(tickets[src] - 1.0, 0.0, out=share)
            share /= self._forward_count[src]
            np.add.at(tickets, self._dst[lo:hi], share)
        return tickets, shares

    def _carried(
        self, shares: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forward edges ``(u, v)`` that carry tickets, with their
        shares, in CSR order."""
        edges = np.flatnonzero(shares > 0)
        edges = edges[np.argsort(self._order[edges])]
        return self._src[edges], self._dst[edges], shares[edges]

    def run(self, num_tickets: float) -> TicketDistribution:
        """Distribute ``num_tickets`` tickets level by level;
        ``edge_tickets`` is built in CSR order."""
        if not (np.isfinite(num_tickets) and num_tickets >= 1):
            raise SybilDefenseError("num_tickets must be finite and at least 1")
        num_tickets = float(num_tickets)
        tickets, shares = self._tickets(num_tickets)
        src, dst, carried = self._carried(shares)
        return TicketDistribution(
            source=self._source,
            tickets_sent=num_tickets,
            node_tickets=tickets,
            reached=np.flatnonzero(tickets >= 1.0).astype(np.int64),
            edge_tickets=dict(
                zip(zip(src.tolist(), dst.tolist()), carried.tolist())
            ),
        )


def ticket_plans(
    graph: Graph,
    sources: np.ndarray | list[int],
) -> list[TicketPlan]:
    """Build one :class:`TicketPlan` per source with one block BFS.

    GateKeeper runs the distribution from ~99 distributors per
    controller; computing every distributor's BFS levels through
    :func:`repro.graph.bfs_distances_block` amortizes the frontier
    bookkeeping across the whole distributor block.  Each returned plan
    is identical to ``TicketPlan(graph, source)`` (the block rows are
    byte-identical to per-source BFS).
    """
    chosen = np.asarray(list(sources), dtype=np.int64)
    if chosen.size == 0:
        raise SybilDefenseError("at least one source is required")
    rows = bfs_distances_block(graph, chosen)
    edge_src = _edge_sources(graph)
    return [
        TicketPlan(graph, int(source), distances=row, _edge_src=edge_src)
        for source, row in zip(chosen, rows)
    ]


def _edge_sources(graph: Graph) -> np.ndarray:
    """The source node of every CSR half-edge."""
    return np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)


def distribute_tickets(
    graph: Graph, source: int, num_tickets: float
) -> TicketDistribution:
    """Run the GateKeeper/SumUp ticket distribution from ``source``."""
    return TicketPlan(graph, source).run(num_tickets)


#: Budgets a distributor tries (2, 4, ..., 2**40 tickets) before its
#: reach target counts as unreachable.
_MAX_DOUBLINGS = 40


def _doubling(plan: TicketPlan, target_reached: int) -> np.ndarray:
    """GateKeeper's adaptive ticket count: the node tickets of the first
    budget on the grid 2, 4, ..., 2**40 under which ``target_reached``
    nodes hold a ticket.

    The protocol does not know n, so each distributor doubles its budget
    until the reach target is hit.  The doubling starts at the first
    budget on the grid that is at least the target: every node that
    holds a ticket consumes one, so ``b`` tickets reach at most ``b``
    nodes, every smaller budget must fail, and the first budget that
    succeeds is the one a doubling from 2 finds.  Raises
    :class:`SybilDefenseError` if the target is unreachable (e.g. a
    disconnected graph).
    """
    first = min(max((target_reached - 1).bit_length(), 1), _MAX_DOUBLINGS)
    for exponent in range(first, _MAX_DOUBLINGS + 1):
        tickets, _ = plan._tickets(2.0**exponent)
        reached = int(np.count_nonzero(tickets >= 1.0))
        if reached >= target_reached:
            return tickets
    raise SybilDefenseError(
        f"distributor {plan.source} reached only {reached} nodes "
        f"(target {target_reached}) after {_MAX_DOUBLINGS} doublings"
    )
