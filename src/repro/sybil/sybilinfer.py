"""SybilInfer: Bayesian inference of the honest region.

Implements the inference scheme of Danezis and Mittal (NDSS 2009) in the
centralized setting.  The defender:

1. generates a trace set ``T`` of short random walks (one or more walks
   per node, length ``O(log n)``);
2. treats "the honest set is X" as a hypothesis whose likelihood scores
   how *fast-mixing* the walks restricted to X look: walks that start in
   X should end in X roughly with probability proportional to X's
   stationary mass, while a Sybil cut traps walks inside the Sybil
   region and depresses the cross-cut ending rate;
3. samples hypotheses with Metropolis–Hastings and reports per-node
   marginal probabilities of being honest.

The likelihood follows the paper's per-walk endpoint model, symmetrized
into a two-block partition: under the hypothesis "X is the honest
region", both X and its complement are internally fast-mixing (the
adversary's region is itself well connected), but walks rarely cross
the attack cut.  A walk from region R ends in R with probability
``1 - alpha`` landing degree-uniformly within R, and crosses with
probability ``alpha`` landing degree-uniformly in the other region:

    P(end = e | s in R) = (1 - alpha) * deg(e) / vol(R)      e in R
    P(end = e | s in R) = alpha * deg(e) / vol(V \\ R)        e not in R

This makes the hypothesis space a two-block stochastic partition of
the observed walk transitions: the maximum-likelihood X is the side of
the sparsest cut containing the trusted node, which is exactly the
structure a Sybil attack creates.  Unlike the one-sided model, it
cannot cheat by shrinking X (expelled honest nodes' walks become
expensive cross-cut events).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_endpoints

__all__ = ["SybilInferConfig", "SybilInferResult", "SybilInfer"]


@dataclass(frozen=True)
class SybilInferConfig:
    """SybilInfer parameters.

    ``walks_per_node`` random walks of length ``max(2, int(2 log2 n))``
    form the trace set; ``num_samples`` MH samples are drawn after
    ``burn_in``, with a pairwise add/remove proposal.
    """

    walks_per_node: int = 2
    num_samples: int = 300
    burn_in: int = 150
    escape_probability: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.walks_per_node < 1:
            raise SybilDefenseError("walks_per_node must be positive")
        if self.num_samples < 1 or self.burn_in < 0:
            raise SybilDefenseError("invalid sampling schedule")
        if not 0.0 < self.escape_probability < 1.0:
            raise SybilDefenseError("escape_probability must be in (0, 1)")


@dataclass(frozen=True)
class SybilInferResult:
    """Marginal honesty probabilities plus the MAP-ish sample."""

    honest_probability: np.ndarray
    best_set: np.ndarray
    best_log_likelihood: float

    def accepted(self, threshold: float = 0.5) -> np.ndarray:
        """Return nodes whose marginal honesty probability >= threshold."""
        return np.flatnonzero(self.honest_probability >= threshold).astype(np.int64)


class SybilInfer:
    """Metropolis–Hastings sampler over honest-set hypotheses."""

    def __init__(self, graph: Graph, config: SybilInferConfig | None = None) -> None:
        if graph.num_nodes < 4:
            raise SybilDefenseError("SybilInfer needs at least 4 nodes")
        self._graph = graph
        self._config = config or SybilInferConfig()
        cfg = self._config
        self._length = max(2, int(2 * np.log2(graph.num_nodes)))
        # trace set: walks_per_node walks from every node, run as one
        # block through the vectorized engine
        self._walk_starts = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), cfg.walks_per_node
        )
        self._walk_ends = walk_endpoints(
            graph, self._walk_starts, self._length, seed=cfg.seed
        )
        self._degrees = graph.degrees.astype(float)
        self._total_volume = float(self._degrees.sum())

    @property
    def graph(self) -> Graph:
        """The graph the traces were generated on."""
        return self._graph

    @property
    def walk_length(self) -> int:
        """Trace walk length."""
        return self._length

    def log_likelihood(self, member: np.ndarray) -> float:
        """Return ``log L(X)`` for the boolean membership vector ``member``.

        Two-block partition model (the constant ``sum log deg(e)`` term
        is dropped — identical across hypotheses).  ``member`` may be
        all-True/all-False: then the model degenerates to a single
        fast-mixing block over the whole graph.
        """
        member = np.asarray(member, dtype=bool)
        from_x = member[self._walk_starts]
        ends_x = member[self._walk_ends]
        inside_xx = int(np.count_nonzero(from_x & ends_x))
        total_from_x = int(np.count_nonzero(from_x))
        ends_in_x = int(np.count_nonzero(ends_x))
        vol_x = float(self._degrees[member].sum())
        return self._log_likelihood_from_counts(
            inside_xx, total_from_x, ends_in_x, vol_x
        )

    def _log_likelihood_from_counts(
        self, inside_xx: int, total_from_x: int, ends_in_x: int, vol_x: float
    ) -> float:
        """O(1) two-block likelihood from the sufficient statistics.

        ``inside_xx``: walks X -> X; ``total_from_x``: walks starting in
        X; ``ends_in_x``: walks ending in X; ``vol_x``: degree volume of
        X.  The four transition-block counts follow by arithmetic.
        """
        alpha = self._config.escape_probability
        total = self._walk_starts.size
        vol_out = self._total_volume - vol_x
        escaped_x = total_from_x - inside_xx  # X -> out
        crossed_in = ends_in_x - inside_xx  # out -> X
        inside_oo = total - total_from_x - crossed_in  # out -> out
        ll = 0.0
        if inside_xx:
            if vol_x <= 0:
                return -np.inf
            ll += inside_xx * (np.log1p(-alpha) - np.log(vol_x))
        if escaped_x:
            if vol_out <= 0:
                return -np.inf
            ll += escaped_x * (np.log(alpha) - np.log(vol_out))
        if crossed_in:
            if vol_x <= 0:
                return -np.inf
            ll += crossed_in * (np.log(alpha) - np.log(vol_x))
        if inside_oo:
            if vol_out <= 0:
                return -np.inf
            ll += inside_oo * (np.log1p(-alpha) - np.log(vol_out))
        return float(ll)

    def _initial_membership(self, trusted: int) -> np.ndarray:
        """Return the sampler's starting hypothesis.

        The start is the set of nodes whose degree-normalized short-walk
        landing probability (from the trusted node) is within a factor
        two of the stationary level — the defender's natural prior, and
        crucially a start on the honest side of the attack cut, which
        spares Metropolis–Hastings from having to expel a dense Sybil
        cluster one node at a time through an energy barrier.
        """
        from repro.sybil.ranking import walk_probability_ranking

        scores = walk_probability_ranking(
            self._graph, trusted, walk_length=self._length
        )
        member = scores * self._total_volume >= 0.5
        member[trusted] = True
        return member

    def run(self, trusted: int) -> SybilInferResult:
        """Sample honest sets containing the trusted node.

        The trusted node is pinned inside X.  Each MH step is a full
        sweep of single-node flip proposals in random order; the
        likelihood is maintained incrementally from per-walk membership
        flags, so one proposal costs O(walks touching the node).
        """
        self._graph._check_node(trusted)
        cfg = self._config
        rng = np.random.default_rng(cfg.seed + 1)
        n = self._graph.num_nodes
        num_walks = self._walk_starts.size
        # reverse indexes: which walks start / end at each node
        walks_starting: list[list[int]] = [[] for _ in range(n)]
        walks_ending: list[list[int]] = [[] for _ in range(n)]
        for w in range(num_walks):
            walks_starting[self._walk_starts[w]].append(w)
            walks_ending[self._walk_ends[w]].append(w)
        member = self._initial_membership(trusted)
        start_in = member[self._walk_starts].copy()
        end_in = member[self._walk_ends].copy()
        inside_xx = int(np.count_nonzero(start_in & end_in))
        total_from_x = int(np.count_nonzero(start_in))
        ends_in_x = int(np.count_nonzero(end_in))
        vol_x = float(self._degrees[member].sum())
        current = self._log_likelihood_from_counts(
            inside_xx, total_from_x, ends_in_x, vol_x
        )
        counts = np.zeros(n, dtype=np.int64)
        best_set = member.copy()
        best_ll = current
        steps = cfg.burn_in + cfg.num_samples
        for step in range(steps):
            for node in rng.permutation(n):
                node = int(node)
                if node == trusted:
                    continue
                entering = not member[node]
                sign = 1 if entering else -1
                delta_inside = 0
                delta_from_x = 0
                delta_ends = 0
                for w in walks_starting[node]:
                    delta_from_x += sign
                    if self._walk_ends[w] == node:
                        # self walk: (v, v) contributes iff v is in X, so
                        # its inside count always moves with the flip
                        delta_inside += sign
                    elif end_in[w]:
                        delta_inside += sign
                for w in walks_ending[node]:
                    delta_ends += sign
                    if self._walk_starts[w] == node:
                        continue  # the start-side delta covered this walk
                    if start_in[w]:
                        delta_inside += sign
                new_vol = vol_x + sign * self._degrees[node]
                proposed = self._log_likelihood_from_counts(
                    inside_xx + delta_inside,
                    total_from_x + delta_from_x,
                    ends_in_x + delta_ends,
                    new_vol,
                )
                if proposed >= current or rng.random() < np.exp(proposed - current):
                    member[node] = entering
                    for w in walks_starting[node]:
                        start_in[w] = entering
                    for w in walks_ending[node]:
                        end_in[w] = entering
                    inside_xx += delta_inside
                    total_from_x += delta_from_x
                    ends_in_x += delta_ends
                    vol_x = new_vol
                    current = proposed
            if current > best_ll:
                best_ll = current
                best_set = member.copy()
            if step >= cfg.burn_in:
                counts += member
        probability = counts / cfg.num_samples
        probability[trusted] = 1.0
        return SybilInferResult(
            honest_probability=probability,
            best_set=np.flatnonzero(best_set).astype(np.int64),
            best_log_likelihood=float(best_ll),
        )
