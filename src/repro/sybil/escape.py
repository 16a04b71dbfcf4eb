"""Walk escape probability — the quantity every defense's bound rests on.

SybilGuard/SybilLimit/Whānau all reduce to one lemma: a w-step random
walk from a uniformly random honest node crosses into the Sybil region
with probability O(g * w / m) (g attack edges, m honest edges), because
each step crosses the attack cut with probability (edges at the cut) /
(local volume).  This module measures that probability directly — both
by Monte-Carlo walks and exactly by evolving the absorbing chain — so
the O(g w / m) scaling itself becomes a testable, benchable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.batch import evolve_block
from repro.markov.walk_batch import NO_HIT, walk_first_hits
from repro.sybil.attack import SybilAttack

__all__ = [
    "EscapeMeasurement",
    "escape_profile",
    "measure_escape",
    "exact_escape_probability",
]


@dataclass(frozen=True)
class EscapeMeasurement:
    """Escape probabilities per walk length.

    ``escape[i]`` is the probability that a walk of length
    ``walk_lengths[i]`` starting at a uniformly random honest node
    *ever* enters the Sybil region.
    """

    walk_lengths: np.ndarray
    escape: np.ndarray
    num_attack_edges: int
    honest_edges: int

    def theoretical_bound(self) -> np.ndarray:
        """Return the first-order bound ``g * w / m`` per walk length."""
        return np.minimum(
            self.num_attack_edges * self.walk_lengths / max(self.honest_edges, 1),
            1.0,
        )


def _escape_curve(
    graph: Graph,
    num_honest: int,
    lengths: np.ndarray,
    num_walks: int,
    seed: int,
    first_hits: Callable[..., np.ndarray],
) -> np.ndarray:
    """The shared Monte-Carlo core: escape fraction per walk length."""
    if num_walks < 1:
        raise SybilDefenseError("num_walks must be positive")
    max_length = int(lengths[-1])
    source_seed, walk_seed = np.random.SeedSequence(seed).spawn(2)
    sources = np.random.default_rng(source_seed).integers(
        num_honest, size=num_walks, dtype=np.int64
    )
    sybil_mask = np.zeros(graph.num_nodes, dtype=bool)
    sybil_mask[num_honest:] = True
    first_escape = first_hits(graph, sources, max_length, sybil_mask, seed=walk_seed)
    first_escape[first_escape == NO_HIT] = np.iinfo(np.int64).max
    return np.array([(first_escape <= w).mean() for w in lengths], dtype=float)


def _check_lengths(walk_lengths: list[int]) -> np.ndarray:
    lengths = np.asarray(walk_lengths, dtype=np.int64)
    if lengths.size == 0 or np.any(np.diff(lengths) <= 0) or lengths[0] < 1:
        raise SybilDefenseError("walk_lengths must be strictly increasing, >= 1")
    return lengths


def escape_profile(
    graph: Graph,
    num_honest: int,
    walk_lengths: list[int],
    num_walks: int = 2000,
    seed: int = 0,
) -> EscapeMeasurement:
    """Escape measurement from a labeled graph, without a SybilAttack.

    The snapshot-reuse variant the serving layer queries: honest nodes
    are the id prefix ``0 .. num_honest - 1`` and everything else is
    the Sybil region; the attack-cut and honest-edge counts are derived
    from the edge labels.  For a graph assembled by
    :func:`repro.sybil.inject_sybils` this is bit-identical to
    :func:`measure_escape` on the corresponding attack.
    """
    lengths = _check_lengths(walk_lengths)
    if not 0 < num_honest <= graph.num_nodes:
        raise SybilDefenseError("num_honest must be in 1..num_nodes")
    escape = _escape_curve(
        graph, num_honest, lengths, num_walks, seed, walk_first_hits
    )
    edges = graph.edge_array()
    sybil_side = edges >= num_honest
    cut = int((sybil_side[:, 0] != sybil_side[:, 1]).sum())
    sybil_internal = int((sybil_side[:, 0] & sybil_side[:, 1]).sum())
    return EscapeMeasurement(
        walk_lengths=lengths,
        escape=escape,
        num_attack_edges=cut,
        honest_edges=graph.num_edges - cut - sybil_internal,
    )


def measure_escape(
    attack: SybilAttack,
    walk_lengths: list[int],
    num_walks: int = 2000,
    seed: int = 0,
) -> EscapeMeasurement:
    """Monte-Carlo estimate of the escape probability.

    Samples ``num_walks`` honest starting nodes uniformly and records,
    through the vectorized engine's first-hit mode, the first step (if
    any) at which each walk touches a Sybil node.  Start sampling and
    the walks' draw key derive from one seed tree, so the measurement
    is bit-identical across schedules and to the per-walk oracle in
    :mod:`repro.oracles`.
    """
    return _measure_escape(attack, walk_lengths, num_walks, seed, walk_first_hits)


def _measure_escape(
    attack: SybilAttack,
    walk_lengths: list[int],
    num_walks: int,
    seed: int,
    first_hits: Callable[..., np.ndarray],
) -> EscapeMeasurement:
    """:func:`measure_escape` with the first-hit walk engine passed in."""
    lengths = _check_lengths(walk_lengths)
    escape = _escape_curve(
        attack.graph, attack.num_honest, lengths, num_walks, seed, first_hits
    )
    honest_edges = (
        attack.graph.num_edges
        - attack.num_attack_edges
        - _sybil_internal_edges(attack)
    )
    return EscapeMeasurement(
        walk_lengths=lengths,
        escape=escape,
        num_attack_edges=attack.num_attack_edges,
        honest_edges=honest_edges,
    )


def _sybil_internal_edges(attack: SybilAttack) -> int:
    degrees = attack.graph.degrees
    sybil_degree_total = int(degrees[attack.num_honest :].sum())
    return (sybil_degree_total - attack.num_attack_edges) // 2


def exact_escape_probability(
    attack: SybilAttack, walk_lengths: list[int]
) -> EscapeMeasurement:
    """Exact escape probabilities by evolving the absorbing chain.

    Makes the Sybil region absorbing, starts from the uniform honest
    distribution, and reads off the absorbed mass per step — the limit
    the Monte-Carlo measurement converges to.
    """
    lengths = _check_lengths(walk_lengths)
    graph = attack.graph
    honest_count = attack.num_honest
    dist = np.zeros((graph.num_nodes, 1))
    dist[:honest_count] = 1.0 / honest_count
    absorbed = 0.0
    escape = np.zeros(lengths.size)
    step = 0
    for col, target in enumerate(lengths):
        while step < int(target):
            dist = evolve_block(graph, dist, 1)
            absorbed += float(dist[honest_count:, 0].sum())
            dist[honest_count:] = 0.0  # absorb
            step += 1
        escape[col] = absorbed
    honest_edges = (
        graph.num_edges - attack.num_attack_edges - _sybil_internal_edges(attack)
    )
    return EscapeMeasurement(
        walk_lengths=lengths,
        escape=np.minimum(escape, 1.0),
        num_attack_edges=attack.num_attack_edges,
        honest_edges=honest_edges,
    )
