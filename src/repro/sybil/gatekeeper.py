"""GateKeeper: optimal Sybil-resilient node admission control.

Implements Tran, Li, Subramanian and Chow (INFOCOM 2011), the protocol
the paper evaluates in Table II.  A controller node admits a suspect
based on *decentralized ticket distribution*:

1. The controller picks ``m`` random **distributors** by short random
   walks (so distributor choice is not adversary-controlled).
2. Each distributor runs the adaptive ticket distribution of
   :mod:`repro.sybil.tickets`, doubling its budget until it reaches at
   least ``n/2`` nodes (estimated via the reach target).
3. A suspect is **admitted** when at least ``f_admit * m`` distributors
   reached it with a ticket.

On an expander, tickets spread evenly, so nearly all honest nodes are
reached by most distributors; tickets entering the Sybil region are
limited by the attack-edge cut, so each attack edge yields only O(1)
admitted Sybils per distributor threshold.  Table II reports honest
acceptance (% of all honest nodes) and Sybils admitted per attack edge
for ``f_admit`` in {0.1, 0.2, 0.3} ("f" in the paper's table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_endpoints
from repro.sybil.tickets import _doubling, ticket_plans

__all__ = ["GateKeeperConfig", "GateKeeperResult", "GateKeeper"]


@dataclass(frozen=True)
class GateKeeperConfig:
    """Tuning knobs for a GateKeeper run.

    Attributes
    ----------
    num_distributors:
        ``m``, distributors sampled by the controller (paper: 99).
    admission_factor:
        ``f_admit``: fraction of distributors that must reach a node
        for admission (Table II sweeps 0.1 / 0.2 / 0.3).
    reach_fraction:
        Adaptive ticket target as a fraction of the node count.
    walk_length_factor:
        Distributor-selection walks have length
        ``walk_length_factor * log2(n)``.
    seed:
        Randomness seed for distributor selection.
    """

    num_distributors: int = 99
    admission_factor: float = 0.2
    reach_fraction: float = 0.5
    walk_length_factor: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_distributors < 1:
            raise SybilDefenseError("num_distributors must be positive")
        if not 0.0 < self.admission_factor <= 1.0:
            raise SybilDefenseError("admission_factor must be in (0, 1]")
        if not 0.0 < self.reach_fraction <= 1.0:
            raise SybilDefenseError("reach_fraction must be in (0, 1]")
        if not (
            np.isfinite(self.walk_length_factor) and self.walk_length_factor > 0
        ):
            raise SybilDefenseError(
                "walk_length_factor must be finite and positive"
            )


@dataclass(frozen=True)
class GateKeeperResult:
    """Admission outcome for one controller.

    ``reach_counts[v]`` is the number of distributors whose tickets
    reached node v; ``admitted`` applies the ``f_admit * m`` threshold.
    """

    controller: int
    distributors: np.ndarray
    reach_counts: np.ndarray
    admitted: np.ndarray
    config: GateKeeperConfig = field(repr=False)

    def admitted_at(self, admission_factor: float) -> np.ndarray:
        """Re-threshold the same distribution runs at a different f.

        Lets Table II sweep f without re-running the distributors.
        """
        needed = max(
            1, int(np.ceil(admission_factor * self.distributors.size))
        )
        return np.flatnonzero(self.reach_counts >= needed).astype(np.int64)


class GateKeeper:
    """GateKeeper admission control over a fixed graph.

    Parameters
    ----------
    graph:
        The social graph (honest + Sybil region under test).
    config:
        Protocol parameters.
    """

    def __init__(self, graph: Graph, config: GateKeeperConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("GateKeeper needs at least 3 nodes")
        self._graph = graph
        self._config = config or GateKeeperConfig()
        # distributor -> the nodes its accepted ticket budget reached
        self._reach: dict[int, np.ndarray] = {}

    @property
    def graph(self) -> Graph:
        """The graph under admission control."""
        return self._graph

    @property
    def config(self) -> GateKeeperConfig:
        """The active configuration."""
        return self._config

    def select_distributors(self, controller: int) -> np.ndarray:
        """Sample ``m`` distributors by random walks from the controller.

        Walk endpoints approximate the stationary distribution, so the
        adversary cannot bias distributor selection toward the Sybil
        region beyond its (small) stationary mass.
        """
        self._graph._check_node(controller)
        length = max(
            2, int(self._config.walk_length_factor * np.log2(self._graph.num_nodes))
        )
        return walk_endpoints(
            self._graph,
            np.full(self._config.num_distributors, controller, dtype=np.int64),
            length,
            seed=self._config.seed + controller,
        )

    def warm_distributors(self, distributors: np.ndarray | list[int]) -> None:
        """Run all missing distributors' BFS as one block.

        Walk endpoints repeat (and controllers share distributors), so
        only cache misses are batched; their plans come from one
        :func:`repro.sybil.ticket_plans` call and the adaptive doublings
        then reuse each plan's scaffolding.  Only each distributor's
        reach set is kept.  Public so a long-lived serving layer can
        pre-warm its per-snapshot reach sets (:mod:`repro.serve`) before
        queries arrive; :meth:`run` calls it automatically.
        """
        missing = [
            d
            for d in dict.fromkeys(int(v) for v in distributors)
            if d not in self._reach
        ]
        if not missing:
            return
        target = max(2, int(self._config.reach_fraction * self._graph.num_nodes))
        for distributor, plan in zip(missing, ticket_plans(self._graph, missing)):
            tickets = _doubling(plan, target)
            self._reach[distributor] = np.flatnonzero(tickets >= 1.0)

    def run(self, controller: int) -> GateKeeperResult:
        """Run the full admission protocol for one controller."""
        distributors = self.select_distributors(controller)
        self.warm_distributors(distributors)
        reach_counts = np.zeros(self._graph.num_nodes, dtype=np.int64)
        for distributor in distributors:
            reach_counts[self._reach[int(distributor)]] += 1
        needed = max(
            1, int(np.ceil(self._config.admission_factor * distributors.size))
        )
        admitted = np.flatnonzero(reach_counts >= needed).astype(np.int64)
        return GateKeeperResult(
            controller=int(controller),
            distributors=distributors,
            reach_counts=reach_counts,
            admitted=admitted,
            config=self._config,
        )
