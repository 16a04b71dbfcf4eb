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
        self._num_walks = self._walk_starts.size
        self._degrees = graph.degrees.tolist()
        self._total_volume = int(graph.degrees.sum())
        alpha = cfg.escape_probability
        self._log_stay = float(np.log1p(-alpha))
        self._log_cross = float(np.log(alpha))
        # log(vol) for vol = 0 .. vol(V), one np.log over an array: the
        # same bits as a scalar np.log per volume (math.log is not);
        # entry 0 is never read, the likelihood guards vol <= 0 first
        with np.errstate(divide="ignore"):
            self._log_volume = np.log(
                np.arange(self._total_volume + 1, dtype=float)
            ).tolist()
        # per node: walks in, self walks, and the walk partners (the
        # other endpoint of each walk from or to the node); every node
        # starts walks_per_node walks
        n = graph.num_nodes
        starts, ends = self._walk_starts, self._walk_ends
        loop = starts == ends
        self._walks_in = np.bincount(ends, minlength=n).tolist()
        self._self_walks = np.bincount(starts[loop], minlength=n).tolist()
        self._partners: list[list[int]] = [[] for _ in range(n)]
        for s, e in zip(starts[~loop].tolist(), ends[~loop].tolist()):
            self._partners[s].append(e)
            self._partners[e].append(s)

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
        vol_x = int(self._graph.degrees[member].sum())
        return self._log_likelihood_from_counts(
            inside_xx, total_from_x, ends_in_x, vol_x
        )

    def _log_likelihood_from_counts(
        self, inside_xx: int, total_from_x: int, ends_in_x: int, vol_x: int
    ) -> float:
        """O(1) two-block likelihood from the sufficient statistics.

        ``inside_xx``: walks X -> X; ``total_from_x``: walks starting in
        X; ``ends_in_x``: walks ending in X; ``vol_x``: degree volume of
        X.  The four transition-block counts follow by arithmetic, and
        both logs of a volume come from the table.
        """
        log_volume = self._log_volume
        log_stay, log_cross = self._log_stay, self._log_cross
        vol_out = self._total_volume - vol_x
        escaped_x = total_from_x - inside_xx  # X -> out
        crossed_in = ends_in_x - inside_xx  # out -> X
        inside_oo = self._num_walks - total_from_x - crossed_in  # out -> out
        ll = 0.0
        if inside_xx:
            if vol_x <= 0:
                return -np.inf
            ll += inside_xx * (log_stay - log_volume[vol_x])
        if escaped_x:
            if vol_out <= 0:
                return -np.inf
            ll += escaped_x * (log_cross - log_volume[vol_out])
        if crossed_in:
            if vol_x <= 0:
                return -np.inf
            ll += crossed_in * (log_cross - log_volume[vol_x])
        if inside_oo:
            if vol_out <= 0:
                return -np.inf
            ll += inside_oo * (log_stay - log_volume[vol_out])
        return ll

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
        sweep of single-node flip proposals in random order.  A node's
        ``links`` count (its self walks plus its walk partners now in
        X) is how far the X -> X walk count moves when it flips, so a
        proposal costs O(1); an accepted flip moves its partners'
        ``links`` by one each.
        """
        self._graph._check_node(trusted)
        cfg = self._config
        rng = np.random.default_rng(cfg.seed + 1)
        n = self._graph.num_nodes
        member = self._initial_membership(trusted)
        start_in = member[self._walk_starts]
        end_in = member[self._walk_ends]
        inside_xx = int(np.count_nonzero(start_in & end_in))
        total_from_x = int(np.count_nonzero(start_in))
        ends_in_x = int(np.count_nonzero(end_in))
        vol_x = int(self._graph.degrees[member].sum())
        likelihood = self._log_likelihood_from_counts
        current = likelihood(inside_xx, total_from_x, ends_in_x, vol_x)
        in_x = member.tolist()
        partners = self._partners
        links = [
            loops + sum(in_x[p] for p in mates)
            for loops, mates in zip(self._self_walks, partners)
        ]
        walks_in, degrees = self._walks_in, self._degrees
        counts = np.zeros(n, dtype=np.int64)
        best_set = in_x.copy()
        best_ll = current
        steps = cfg.burn_in + cfg.num_samples
        for step in range(steps):
            for node in rng.permutation(n).tolist():
                if node == trusted:
                    continue
                sign = -1 if in_x[node] else 1
                delta_inside = sign * links[node]
                delta_from_x = sign * cfg.walks_per_node
                delta_ends = sign * walks_in[node]
                new_vol = vol_x + sign * degrees[node]
                proposed = likelihood(
                    inside_xx + delta_inside,
                    total_from_x + delta_from_x,
                    ends_in_x + delta_ends,
                    new_vol,
                )
                if proposed >= current or rng.random() < np.exp(proposed - current):
                    in_x[node] = sign > 0
                    for p in partners[node]:
                        links[p] += sign
                    inside_xx += delta_inside
                    total_from_x += delta_from_x
                    ends_in_x += delta_ends
                    vol_x = new_vol
                    current = proposed
            if current > best_ll:
                best_ll = current
                best_set = in_x.copy()
            if step >= cfg.burn_in:
                counts += in_x
        probability = counts / cfg.num_samples
        probability[trusted] = 1.0
        return SybilInferResult(
            honest_probability=probability,
            best_set=np.flatnonzero(best_set).astype(np.int64),
            best_log_likelihood=float(best_ll),
        )
