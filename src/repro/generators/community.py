"""Community-structured random graphs.

The paper's central empirical finding is that *mixing speed tracks
community structure*: graphs with tight-knit communities (strict trust
models — co-authorship, LiveJournal) mix slowly, while graphs with weak
community confinement (Wiki votes, Epinions trust) mix fast.  These
generators plant that structure explicitly so the dataset analogs can be
placed anywhere on the fast-to-slow spectrum.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeneratorError
from repro.graph.builder import GraphBuilder
from repro.graph.core import Graph
from repro.generators.classic import powerlaw_cluster_mixed

__all__ = [
    "community_social_graph",
]


def community_social_graph(
    num_nodes: int,
    num_communities: int,
    attachment: int,
    inter_community_fraction: float,
    triad_probability: float = 0.6,
    seed: int = 0,
) -> Graph:
    """Return a power-law graph partitioned into preferential communities.

    Each community is an independent variable-attachment power-law
    cluster graph (:func:`powerlaw_cluster_mixed` with attachments drawn
    from ``1 .. 3 * attachment``), giving every community a dense core
    plus a heavy low-degree periphery — the structure that lets k-core
    peeling fragment the graph the way the paper's Figure 5 shows.
    A fraction of additional bridge edges is then drawn between
    communities.  ``inter_community_fraction`` controls the community
    bottleneck and therefore where the graph sits on the fast/slow
    mixing spectrum:

    * ``>= 0.2`` behaves like the paper's fast-mixing graphs
      (Wiki-vote, Epinions, Facebook A);
    * ``<= 0.02`` behaves like the slow-mixing, strict-trust graphs
      (Physics co-authorships, DBLP, LiveJournal B).
    """
    if num_communities < 1:
        raise GeneratorError("num_communities must be positive")
    if not 0.0 <= inter_community_fraction <= 1.0:
        raise GeneratorError("inter_community_fraction must be in [0, 1]")
    base = num_nodes // num_communities
    # clamp the attachment window to the community size so small-scale
    # analogs stay generable; each community still needs a few nodes
    max_attachment = max(min(3 * attachment, base - 2), 1)
    if base < 4 or base <= max_attachment + 1:
        raise GeneratorError(
            "communities are too small for the requested attachment count"
        )
    rng = np.random.default_rng(seed)
    sizes = [base] * num_communities
    sizes[-1] += num_nodes - base * num_communities
    builder = GraphBuilder(num_nodes)
    offset = 0
    members: list[np.ndarray] = []
    for size in sizes:
        part = powerlaw_cluster_mixed(
            size,
            min_attachment=1,
            max_attachment=max_attachment,
            attachment_exponent=1.8,
            triad_probability=triad_probability,
            seed=int(rng.integers(2**31)),
        )
        for u, v in part.edge_array():
            builder.add_edge(int(u) + offset, int(v) + offset)
        members.append(np.arange(offset, offset + size, dtype=np.int64))
        offset += size
    internal_edges = builder.num_pending_edges
    num_bridges = max(
        num_communities - 1, int(internal_edges * inter_community_fraction)
    )
    # ring of guaranteed bridges keeps the graph connected even at
    # extremely small inter-community fractions
    for c in range(num_communities):
        u = int(rng.choice(members[c]))
        v = int(rng.choice(members[(c + 1) % num_communities]))
        builder.add_edge(u, v)
    for _ in range(num_bridges):
        a, b = rng.choice(num_communities, size=2, replace=False)
        u = int(rng.choice(members[int(a)]))
        v = int(rng.choice(members[int(b)]))
        builder.add_edge(u, v)
    return builder.build()
