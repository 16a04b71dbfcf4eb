"""Anonymous communication over social networks (Nagaraja, PETS 2007).

Reference [18] and the paper's second motivating application: a social
graph whose random walk mixes fast can host a mix network — relay a
message along a w-step random walk and the exit node is nearly
stationary-distributed, so an observer learns little about the sender.

The standard metrics, all computed from the walk's t-step distribution:

* **entropy anonymity** ``H(P_t)`` (Serjantov–Danezis): Shannon entropy
  of the exit distribution; its exponential is the *effective anonymity
  set size*;
* **normalized anonymity** ``H(P_t) / H(pi)``: 1.0 means the walk is as
  anonymous as the stationary mixer allows;
* **sender-anonymity TVD**: how far the adversary's posterior over exit
  nodes is from the stationary prior — identical to the paper's mixing
  measurement, which is exactly why mixing time is the right metric for
  this application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunking import sample_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.markov.batch import delta_block, evolve_block
from repro.markov.transition import stationary_distribution, transition_matrix

__all__ = [
    "entropy",
    "AnonymityProfile",
    "walk_anonymity_profile",
    "anonymity_walk_length",
]


def entropy(distribution: np.ndarray) -> float:
    """Return the Shannon entropy (nats) of a probability vector."""
    p = np.asarray(distribution, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise GraphError("distribution must be a non-empty 1-D array")
    if not np.isclose(p.sum(), 1.0, atol=1e-6) or p.min() < -1e-12:
        raise GraphError("distribution must be non-negative and sum to 1")
    positive = p[p > 0]
    return float(-(positive * np.log(positive)).sum())


@dataclass(frozen=True)
class AnonymityProfile:
    """Anonymity metrics per walk length for sampled senders."""

    walk_lengths: np.ndarray
    mean_entropy: np.ndarray
    max_entropy: float
    mean_tvd: np.ndarray

    @property
    def normalized_entropy(self) -> np.ndarray:
        """Mean entropy relative to the stationary mixer's entropy."""
        return self.mean_entropy / self.max_entropy

    @property
    def effective_set_size(self) -> np.ndarray:
        """``exp(H)`` — the size of a uniform set with equal anonymity."""
        return np.exp(self.mean_entropy)


def walk_anonymity_profile(
    graph: Graph,
    walk_lengths: list[int],
    num_senders: int = 50,
    seed: int = 0,
) -> AnonymityProfile:
    """Measure exit-node anonymity for walks of various lengths.

    For each sampled sender, evolve its delta distribution; record the
    entropy of the exit distribution and its TVD from stationary.  The
    walks are lazy (a mix relay can stay put), which also makes the
    metrics monotone.
    """
    lengths = np.asarray(walk_lengths, dtype=np.int64)
    if lengths.size == 0 or np.any(np.diff(lengths) <= 0) or lengths[0] < 0:
        raise GraphError("walk_lengths must be strictly increasing and >= 0")
    chain = transition_matrix(graph, lazy=True)
    pi = stationary_distribution(graph)
    pi_entropy = entropy(pi)
    rng = np.random.default_rng(seed)
    senders = sample_sources(rng, graph.num_nodes, num_senders, "num_senders")
    count = senders.size
    ent = np.zeros((count, lengths.size))
    tvd = np.zeros((count, lengths.size))
    # all senders evolve together on the batched walk engine
    block = delta_block(graph.num_nodes, senders)
    step = 0
    for col, target in enumerate(lengths):
        block = evolve_block(chain, block, int(target) - step)
        step = int(target)
        safe = np.where(block > 0, block, 1.0)  # log(1) = 0 kills zero terms
        ent[:, col] = -(block * np.log(safe)).sum(axis=0)
        tvd[:, col] = 0.5 * np.abs(np.subtract(block.T, pi, order="C")).sum(axis=1)
    return AnonymityProfile(
        walk_lengths=lengths,
        mean_entropy=ent.mean(axis=0),
        max_entropy=pi_entropy,
        mean_tvd=tvd.mean(axis=0),
    )


def anonymity_walk_length(
    graph: Graph,
    target_fraction: float = 0.9,
    max_length: int = 200,
    num_senders: int = 30,
    seed: int = 0,
) -> int | None:
    """Return the walk length achieving the target normalized entropy.

    The mix-route length a deployment must pay on this graph; None when
    ``max_length`` steps do not reach the target (slow mixer).
    """
    if not 0.0 < target_fraction <= 1.0:
        raise GraphError("target_fraction must be in (0, 1]")
    profile = walk_anonymity_profile(
        graph,
        list(range(1, max_length + 1)),
        num_senders=num_senders,
        seed=seed,
    )
    reached = np.flatnonzero(profile.normalized_entropy >= target_fraction)
    if reached.size == 0:
        return None
    return int(profile.walk_lengths[reached[0]])
