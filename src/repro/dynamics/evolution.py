"""Dynamic social graphs: evolution models, event streams and snapshots.

Section VI names this the paper's open problem: "investigate the
expansion and mixing characteristics of dynamic social graphs ...
understanding the long-term impact of evolution".  This module provides
the substrate: seeded evolution models that turn a base graph into a
sequence of snapshots.

Two models cover the regimes the social-networks literature describes:

* :class:`ChurnModel` — membership is stable but ties rewire: each step
  deletes a fraction of random edges and draws replacements, either
  uniformly ("random" — erodes community structure over time) or via
  triadic closure ("triadic" — reinforces it).
* :class:`GrowthModel` — densification: new nodes arrive by
  preferential attachment (Leskovec et al.'s densification pattern,
  cited as [8] in the paper).

Both models expose two step surfaces:

* ``step(graph) -> Graph`` — the classic snapshot-to-snapshot form.
* ``step_events(graph) -> GraphDelta`` — the **event-stream adapter**:
  one step expressed as a delta (edges added, edges removed, nodes
  created) instead of a rebuilt graph.  ``step`` is now literally
  ``apply_delta(graph, step_events(graph))``, and consumers that keep
  incremental state (the :mod:`repro.serve` overlay layer) can feed the
  deltas straight into a :class:`repro.serve.GraphOverlay` without ever
  rebuilding per-step edge lists.

Proposal drawing is vectorized at *block* granularity: each round draws
one numpy block of candidate edges sized to the remaining need, then
filters invalid / duplicate / already-present candidates in bulk.  For
``rewiring="random"`` the block draw consumes the PCG64 stream exactly
as the historical one-candidate-at-a-time loop did, so random-mode
churn is bit-identical to the legacy implementation.  Triadic mode
redefines the draw order at block granularity (node block, then
neighbor-index blocks) — a documented RNG-scheme change.  Both modes
are pinned bit-identical to the churn twin in :mod:`repro.oracles`,
which consumes the *same* block draws but applies the filtering rules
one candidate at a time in plain python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.ops import largest_connected_component

__all__ = [
    "GraphDelta",
    "apply_delta",
    "ChurnModel",
    "GrowthModel",
    "snapshots",
]


@dataclass(frozen=True)
class GraphDelta:
    """One evolution step as an event batch.

    ``added`` and ``removed`` are ``(k, 2)`` arrays of canonical
    ``u < v`` edges; ``num_new_nodes`` counts nodes appended after the
    current id range (new ids are assigned densely).  ``added`` may
    re-create an edge listed in ``removed`` — removals apply first.
    """

    num_new_nodes: int
    added: np.ndarray
    removed: np.ndarray

    def __post_init__(self) -> None:
        if self.num_new_nodes < 0:
            raise GraphError("num_new_nodes must be non-negative")
        for name in ("added", "removed"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphError(f"{name} must be a (k, 2) edge array")


def _empty_edges() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def apply_delta(graph: Graph, delta: GraphDelta) -> Graph:
    """Return the graph with ``delta`` applied (removals before additions)."""
    edges = graph.edge_array()
    n = graph.num_nodes + delta.num_new_nodes
    if delta.removed.size:
        keys = edges[:, 0] * n + edges[:, 1]
        removed_keys = delta.removed[:, 0] * n + delta.removed[:, 1]
        edges = edges[~np.isin(keys, removed_keys)]
    if delta.added.size:
        edges = np.concatenate([edges, delta.added.astype(np.int64)])
    return Graph.from_edges(edges, num_nodes=n)


class ChurnModel:
    """Edge churn over a fixed node set.

    Parameters
    ----------
    churn_rate:
        Fraction of edges replaced per step.
    rewiring:
        ``"random"`` draws replacement edges uniformly; ``"triadic"``
        closes triangles (a neighbor's neighbor), keeping community
        structure tight.
    """

    def __init__(
        self,
        churn_rate: float = 0.05,
        rewiring: str = "random",
        seed: int = 0,
    ) -> None:
        if not 0.0 < churn_rate <= 1.0:
            raise GraphError("churn_rate must be in (0, 1]")
        if rewiring not in ("random", "triadic"):
            raise GraphError("rewiring must be 'random' or 'triadic'")
        self._rate = churn_rate
        self._rewiring = rewiring
        self._rng = np.random.default_rng(seed)

    def step(self, graph: Graph) -> Graph:
        """Return the next snapshot after one churn step."""
        return apply_delta(graph, self.step_events(graph))

    def step_events(self, graph: Graph) -> GraphDelta:
        """One churn step as a :class:`GraphDelta` (no graph rebuild).

        Drops ``churn_rate * m`` random edges, then draws replacements
        in vectorized blocks until the count is restored or the attempt
        budget (50 per replacement) is exhausted.  Dropped edges may be
        re-proposed, matching the historical semantics (candidates are
        rejected only against *kept* and already-accepted edges).
        """
        return self._step_events(graph, ChurnModel._propose)

    def _step_events(self, graph: Graph, propose) -> GraphDelta:
        """:meth:`step_events` with the proposal filter passed in."""
        if graph.num_edges < 2:
            raise GraphError("churn needs at least 2 edges")
        edges = graph.edge_array()
        num_replace = max(int(self._rate * graph.num_edges), 1)
        drop_idx = self._rng.choice(
            edges.shape[0], size=num_replace, replace=False
        )
        keep_mask = np.ones(edges.shape[0], dtype=bool)
        keep_mask[drop_idx] = False
        kept = edges[keep_mask]
        kept_keys = kept[:, 0] * graph.num_nodes + kept[:, 1]
        kept_keys.sort()
        added = propose(self, graph, kept_keys, num_replace)
        return GraphDelta(
            num_new_nodes=0, added=added, removed=edges[np.sort(drop_idx)]
        )

    def _draw_block(
        self, graph: Graph, size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``size`` candidate edges; returns (lo, hi, valid).

        Random mode draws a ``(size, 2)`` block — the same PCG64
        consumption as ``size`` historical two-scalar proposals.
        Triadic mode draws the node block, then one neighbor-index
        block per hop; candidates whose start node is isolated are
        marked invalid (their index draws are burned, by design — the
        draw count must not depend on the data).
        """
        n = graph.num_nodes
        if self._rewiring == "random":
            block = self._rng.integers(n, size=(size, 2))
            lo = np.minimum(block[:, 0], block[:, 1])
            hi = np.maximum(block[:, 0], block[:, 1])
            return lo, hi, lo != hi
        indptr, indices = graph.indptr, graph.indices
        degrees = graph.degrees
        u = self._rng.integers(n, size=size)
        deg_u = degrees[u]
        iv = self._rng.integers(0, np.maximum(deg_u, 1), size=size)
        v = indices[np.minimum(indptr[u] + iv, indices.size - 1)]
        iw = self._rng.integers(0, np.maximum(degrees[v], 1), size=size)
        w = indices[np.minimum(indptr[v] + iw, indices.size - 1)]
        lo = np.minimum(u, w)
        hi = np.maximum(u, w)
        return lo, hi, (deg_u > 0) & (lo != hi)

    def _propose(
        self, graph: Graph, kept_keys: np.ndarray, num_replace: int
    ) -> np.ndarray:
        n = graph.num_nodes
        budget = 50 * num_replace
        attempts = 0
        found = 0
        taken_keys = np.empty(0, dtype=np.int64)
        chosen: list[np.ndarray] = []
        while found < num_replace and attempts < budget:
            size = min(num_replace - found, budget - attempts)
            lo, hi, valid = self._draw_block(graph, size)
            attempts += size
            keys = lo * n + hi
            valid &= ~np.isin(keys, kept_keys)
            valid &= ~np.isin(keys, taken_keys)
            # keep only the first occurrence of each key among the
            # still-valid candidates (mirrors the oracle's seen-set)
            idx = np.flatnonzero(valid)
            _, first = np.unique(keys[idx], return_index=True)
            take = idx[np.sort(first)]
            if take.size:
                chosen.append(np.stack([lo[take], hi[take]], axis=1))
                taken_keys = np.concatenate([taken_keys, keys[take]])
                found += take.size
        if not chosen:
            return _empty_edges()
        return np.concatenate(chosen).astype(np.int64)


class GrowthModel:
    """Preferential-attachment growth: new nodes join each step.

    The target-sampling draw sequence is bit-identical to the original
    implementation (one scalar draw per candidate endpoint); what the
    event-stream rewrite removed is the per-step python rebuild of the
    full edge and endpoint lists — the base endpoint multiset is now
    the raveled ``edge_array`` and only the step's new endpoints live
    in python lists.
    """

    def __init__(
        self, nodes_per_step: int = 10, attachment: int = 3, seed: int = 0
    ) -> None:
        if nodes_per_step < 1:
            raise GraphError("nodes_per_step must be positive")
        if attachment < 1:
            raise GraphError("attachment must be positive")
        self._per_step = nodes_per_step
        self._attachment = attachment
        self._rng = np.random.default_rng(seed)

    def step(self, graph: Graph) -> Graph:
        """Return the graph grown by ``nodes_per_step`` new members."""
        return apply_delta(graph, self.step_events(graph))

    def step_events(self, graph: Graph) -> GraphDelta:
        """One growth step as a :class:`GraphDelta` (new nodes + edges)."""
        if graph.num_edges == 0:
            raise GraphError("growth needs a non-empty base graph")
        # endpoint multiset: each edge contributes both endpoints, in
        # edge_array order — degree-proportional sampling by index
        endpoints = graph.edge_array().ravel()
        base_len = endpoints.size
        extra: list[int] = []
        added: list[tuple[int, int]] = []
        next_id = graph.num_nodes
        for _ in range(self._per_step):
            wanted = min(self._attachment, next_id)
            total = base_len + len(extra)
            targets: set[int] = set()
            while len(targets) < wanted:
                j = int(self._rng.integers(total))
                targets.add(
                    int(endpoints[j]) if j < base_len else extra[j - base_len]
                )
            for t in sorted(targets):
                added.append((t, next_id))
                extra.extend((t, next_id))
            next_id += 1
        return GraphDelta(
            num_new_nodes=self._per_step,
            added=np.asarray(added, dtype=np.int64),
            removed=_empty_edges(),
        )


def snapshots(
    base: Graph, model: ChurnModel | GrowthModel, num_steps: int
) -> Iterator[Graph]:
    """Yield ``num_steps + 1`` snapshots: the base, then each evolution step.

    Each yielded snapshot is restricted to its largest component (churn
    can orphan nodes), but evolution continues from the full graph.
    """
    if num_steps < 0:
        raise GraphError("num_steps must be non-negative")

    def clean(graph: Graph) -> Graph:
        lcc, _ = largest_connected_component(graph)
        return lcc

    current = base
    yield clean(current)
    for _ in range(num_steps):
        current = model.step(current)
        yield clean(current)
