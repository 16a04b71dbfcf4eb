"""Link-privacy perturbation: t-step random-walk edge rewiring.

Implements the edge-perturbation scheme of Mittal, Papamanthou and Song,
"Preserving Link Privacy in Social Network Based Systems" (arXiv
1208.6189): every directed half-edge ``u -> v`` of the published graph
is replaced by ``u -> z``, where ``z`` is the endpoint of a ``t``-step
uniform random walk started at ``v``.  Small ``t`` keeps most links in
place (little privacy, full utility); large ``t`` drives the endpoint
toward the stationary distribution, decoupling the published edge from
the real one (strong link privacy, degraded utility).  Sweeping ``t``
is the privacy-utility frontier measured in :mod:`repro.privacy.frontier`.

The rewiring is vectorized on the Monte-Carlo walk engine
(:func:`repro.markov.walk_batch.walk_endpoints`): one walk per
half-edge, walk ``i`` drawing by the engine's counter-based rule keyed
by ``(seed, i, step)``, so the perturbed graph is **bit-identical** for every
schedule the ambient :func:`repro.parallel.execution` scope sets
(``chunk_size`` x ``workers``, fan-out via :mod:`repro.chunking`) and
identical to the per-edge oracle in :mod:`repro.oracles`.

Repair keeps the output a simple undirected graph on the same node set:
a walk that returns to its own source (which would mint a self loop)
falls back to the original neighbor, and the canonical CSR constructor
merges duplicate proposals.  Both repairs are vectorized post-passes
over the endpoint array, so they cannot break the bit-identity
contract.  Every run reports ``privacy.perturb.*`` telemetry counters
and a ``privacy.perturb`` span.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_endpoints

__all__ = ["perturb_links", "edge_overlap"]


def perturb_links(
    graph: Graph,
    t: int,
    seed: "int | np.random.SeedSequence" = 0,
) -> Graph:
    """Return the ``t``-step random-walk perturbation of ``graph``.

    Every directed half-edge ``u -> v`` proposes the replacement edge
    ``{u, z}`` with ``z`` the endpoint of a ``t``-step uniform random
    walk from ``v`` (half-edge ``i`` in CSR order is walk ``i`` of
    ``seed`` under the engine's draw rule).  Proposals are repaired into a
    simple undirected graph on the same node set: endpoints landing
    back on ``u`` fall back to the original neighbor ``v`` (no self
    loops), and duplicate proposals merge in the canonical CSR
    constructor.

    ``t = 0`` is the identity transform: length-0 walks end at ``v``,
    so every proposal is the original edge.

    The result is bit-identical for every schedule.
    """
    return _perturb(graph, t, seed, walk_endpoints)


def _perturb(
    graph: Graph, t: int, seed, endpoints_of: Callable[..., np.ndarray]
) -> Graph:
    """:func:`perturb_links` with the endpoint walk engine passed in."""
    if t < 0:
        raise GraphError("perturbation parameter t must be non-negative")
    n = graph.num_nodes
    src = np.repeat(graph.nodes(), graph.degrees)
    dst = graph.indices
    tel = telemetry.current()
    with tel.span("privacy.perturb"):
        tel.count("privacy.perturb.walks", int(dst.size))
        tel.count("privacy.perturb.steps", int(dst.size) * t)
        endpoints = endpoints_of(graph, dst, t, seed=seed)
        loops = endpoints == src
        if loops.any():
            endpoints = np.where(loops, dst, endpoints)
        tel.count("privacy.perturb.self_loop_repairs", int(np.count_nonzero(loops)))
        perturbed = Graph.from_edges(
            np.stack([src, endpoints], axis=1), num_nodes=n
        )
        tel.count("privacy.perturb.kept_edges", perturbed.num_edges)
        tel.count(
            "privacy.perturb.merged_duplicates",
            int(dst.size) - perturbed.num_edges,
        )
    return perturbed


def edge_overlap(original: Graph, perturbed: Graph) -> float:
    """Fraction of ``original``'s edges that survive in ``perturbed``.

    The frontier's privacy proxy: overlap 1.0 means every real link is
    still published (no privacy); overlap near the density of a random
    graph means a published edge carries almost no information about
    the real one.  Graphs must share a node set.
    """
    if original.num_nodes != perturbed.num_nodes:
        raise GraphError("edge overlap needs graphs on the same node set")
    if original.num_edges == 0:
        return 1.0
    n = original.num_nodes
    a = original.edge_array()
    b = perturbed.edge_array()
    keys_a = a[:, 0] * n + a[:, 1]
    keys_b = b[:, 0] * n + b[:, 1]
    return float(np.intersect1d(keys_a, keys_b).size / keys_a.size)
