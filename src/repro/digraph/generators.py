"""Directed social graph generators.

The directed analogs mirror how Wiki-vote / Epinions / Slashdot arcs
actually form: new members express trust toward established
(high-in-degree) members, and a fraction of arcs is reciprocated.  The
``reciprocity`` knob spans asymmetric-ballot graphs (~0.05) through
mutual-friend graphs (~1.0, equivalent to an undirected graph).
"""

from __future__ import annotations

import numpy as np

from repro.digraph.core import DiGraph
from repro.errors import GeneratorError

__all__ = ["directed_preferential_attachment"]


def directed_preferential_attachment(
    num_nodes: int,
    out_links: int,
    reciprocity: float = 0.3,
    seed: int = 0,
) -> DiGraph:
    """Grow a directed trust graph by in-degree preferential attachment.

    Each arriving node points ``out_links`` arcs at existing nodes
    chosen proportionally to (1 + in-degree); each new arc is
    reciprocated independently with probability ``reciprocity``.
    """
    if out_links < 1:
        raise GeneratorError("out_links must be at least 1")
    if num_nodes <= out_links:
        raise GeneratorError("num_nodes must exceed out_links")
    if not 0.0 <= reciprocity <= 1.0:
        raise GeneratorError("reciprocity must be in [0, 1]")
    rng = np.random.default_rng(seed)
    arcs: list[tuple[int, int]] = []
    # seed: a directed cycle over the first out_links + 1 nodes
    seed_size = out_links + 1
    attractiveness: list[int] = []
    for u in range(seed_size):
        v = (u + 1) % seed_size
        arcs.append((u, v))
        attractiveness.append(v)
    for new in range(seed_size, num_nodes):
        targets: set[int] = set()
        while len(targets) < out_links:
            if rng.random() < 0.2:  # uniform exploration keeps tails honest
                pick = int(rng.integers(new))
            else:
                pick = attractiveness[int(rng.integers(len(attractiveness)))]
            if pick != new:
                targets.add(pick)
        for target in sorted(targets):
            arcs.append((new, target))
            attractiveness.append(target)
            if rng.random() < reciprocity:
                arcs.append((target, new))
                attractiveness.append(new)
    return DiGraph.from_arcs(arcs, num_nodes=num_nodes)
