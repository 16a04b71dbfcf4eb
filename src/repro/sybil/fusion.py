"""Fusion Sybil defenses: local priors + loopy belief propagation.

The structure-only defenses (SybilGuard through SybilRank) all cut the
graph where random walks mix poorly — and all degrade together when the
Sybil region stops being tight-knit, because a sparse Sybil topology
creates no strong cut ("Uncovering Social Network Sybils in the Wild",
arXiv 1106.5321).  The fusion family answers with *defense in depth*:
combine weak per-node local evidence with global structure.

* **SybilFrame** (arXiv 1503.02985): turn local features into per-node
  label priors, derive per-edge homophily confidences from prior
  agreement, and run pairwise-potential loopy belief propagation over
  the social graph.  Structure sharpens the noisy priors; priors break
  the symmetry structure alone cannot see.
* **SybilFuse** (arXiv 1803.06772): the same priors additionally *seed*
  prior-weighted random walks (on the vectorized Monte-Carlo engine,
  :mod:`repro.markov.walk_batch`); the degree-normalized landing
  frequency is fused with the BP posterior into one trust score.

The BP engine operates directly on the CSR half-edge arrays: messages
live on the ``2m`` directed half-edges as a ``(2m, 2)`` log-message
block, beliefs as an ``(n, 2)`` block, and every round is one gather /
scatter pass (aggregate incoming log-messages per node, then update all
half-edge messages from the aggregate with reverse-message exclusion).
Rounds use damping and stop on message convergence; every round is one
pass of a module-level half-edge kernel through
:func:`repro.chunking.run_kernel` (on the process backend the message
state stays in shared memory across rounds), reported into
:mod:`repro.telemetry` (``sybil.fusion.bp.*`` spans and counters).

**Determinism contract.**  Message updates for one round depend only on
the previous round's state, and chunks write disjoint slices, so
posteriors are **bit-identical** for every schedule the ambient
:func:`repro.parallel.execution` scope sets (``chunk_size`` x
``workers`` x backend), and identical to the per-edge oracle in
:mod:`repro.oracles` (which replays the same IEEE operations edge by
edge).  On trees the fixed point is the exact marginal distribution —
the property the brute-force enumeration oracle in the test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.chunking import run_kernel
from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_visit_counts
from repro.sybil.attack import SybilAttack
from repro.sybil.ranking import accept_top, ranking_order

__all__ = [
    "PriorConfig",
    "extract_priors",
    "BeliefPropagationResult",
    "loopy_belief_propagation",
    "FusionConfig",
    "SybilFrameResult",
    "SybilFrame",
    "SybilFuseResult",
    "SybilFuse",
]


# ----------------------------------------------------------------------
# (1) local prior extraction
# ----------------------------------------------------------------------
#: Weight of the saturating degree feature ``d / (d + _DEGREE_SCALE)``:
#: wild Sybils cannot amass many accepted friendships.
_DEGREE_WEIGHT = 0.5
_DEGREE_SCALE = 5.0
#: Penalty weight of *victim-edge exposure*: the fraction of a node's
#: edges that are attack edges, the acceptance-behavior signal of the
#: attack model (Sybils initiate them, victims accepted them).
_EXPOSURE_WEIGHT = 2.0
#: Weight of the simulated behavioral classifier (see :class:`PriorConfig`).
_BEHAVIOR_WEIGHT = 1.2


@dataclass(frozen=True)
class PriorConfig:
    """Knobs of the local-evidence prior extractor.

    Every feature is strictly *local* (a node's prior never depends on
    edits elsewhere in the graph), which is what makes the fusion
    defenses robust where global-structure defenses degrade.  The
    features carry fixed weights; the config sets:

    ``behavior_noise``
        The simulated behavioral classifier is a per-node
        accept/decline-pattern observation that reports the true region
        flipped with probability ``behavior_noise`` (drawn from a
        per-node child stream of ``seed``, so observations are stable
        under graph edits).
    ``floor``
        Priors are squashed into ``[floor, 1 - floor]`` — BP must never
        receive a certain (0 or 1) prior for an unobserved node.
    """

    behavior_noise: float = 0.1
    floor: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.floor < 0.5:
            raise SybilDefenseError("floor must be in (0, 0.5)")
        if not 0.0 <= self.behavior_noise < 0.5:
            raise SybilDefenseError("behavior_noise must be in [0, 0.5)")


def extract_priors(
    attack: SybilAttack,
    trusted: int | np.ndarray | list[int] = 0,
    config: PriorConfig | None = None,
) -> np.ndarray:
    """Return per-node honest-label priors in ``(0, 1)``.

    Combines the three local features (degree, victim-edge exposure and
    the behavioral observation of :class:`PriorConfig`) through a
    logistic squash, clips into ``[floor, 1 - floor]``, and pins the
    ``trusted`` node(s) to a near-certain honest prior (``1 - 1e-9``) —
    near-certainty makes their outgoing BP messages independent of
    incoming ones, so verified nodes anchor rather than absorb doubt.
    """
    cfg = config or PriorConfig()
    graph = attack.graph
    n = graph.num_nodes
    trusted_arr = np.unique(np.asarray(np.atleast_1d(trusted), dtype=np.int64))
    if trusted_arr.size == 0:
        raise SybilDefenseError("at least one trusted node is required")
    if trusted_arr[0] < 0 or trusted_arr[-1] >= n:
        raise SybilDefenseError("trusted nodes must be valid node ids")
    tel = telemetry.current()
    with tel.span("sybil.fusion.priors"):
        degrees = graph.degrees.astype(float)
        degree_feature = degrees / (degrees + _DEGREE_SCALE)
        exposure = np.zeros(n)
        if attack.num_attack_edges:
            np.add.at(exposure, attack.attack_edges[:, 0], 1.0)
            np.add.at(exposure, attack.attack_edges[:, 1], 1.0)
        exposure_rate = exposure / np.maximum(degrees, 1.0)
        honest_observed = (np.arange(n) < attack.num_honest).astype(float)
        if cfg.behavior_noise > 0.0:
            # One child stream per node id: an observation never changes
            # because an unrelated edge appeared elsewhere.
            children = np.random.SeedSequence(cfg.seed).spawn(n)
            flips = np.fromiter(
                (np.random.default_rng(c).random() for c in children),
                dtype=float,
                count=n,
            )
            flipped = flips < cfg.behavior_noise
            honest_observed[flipped] = 1.0 - honest_observed[flipped]
        z = (
            _DEGREE_WEIGHT * (2.0 * degree_feature - 1.0)
            - _EXPOSURE_WEIGHT * exposure_rate
            + _BEHAVIOR_WEIGHT * (2.0 * honest_observed - 1.0)
        )
        priors = cfg.floor + (1.0 - 2.0 * cfg.floor) / (1.0 + np.exp(-z))
        priors[trusted_arr] = 1.0 - 1e-9
        tel.count("sybil.fusion.priors.nodes", n)
    return priors


# ----------------------------------------------------------------------
# (2) the loopy-BP engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BeliefPropagationResult:
    """Fixed point (or truncation) of one loopy-BP run.

    ``beliefs[v] = (P(v is Sybil), P(v is honest))``, each row summing
    to 1.  ``converged`` is honest: it is True only when the final
    round's largest message change fell at or below the tolerance —
    a run cut off by ``max_rounds`` says so.
    """

    beliefs: np.ndarray
    converged: bool
    rounds: int
    delta: float

    @property
    def honest_posterior(self) -> np.ndarray:
        """Per-node posterior probability of being honest."""
        return self.beliefs[:, 1]


def _twin_permutation(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(src, twin)`` for the CSR half-edge list.

    Half-edge ``p`` runs ``src[p] -> indices[p]``; ``twin[p]`` is the
    position of the reverse half-edge.  Because CSR order sorts
    half-edges by ``(src, dst)`` and the edge set is symmetric, sorting
    by ``(dst, src)`` enumerates exactly the twins in CSR order.
    """
    src = np.repeat(graph.nodes(), graph.degrees)
    order = np.lexsort((src, graph.indices))
    twin = np.empty(order.size, dtype=np.int64)
    twin[order] = np.arange(order.size, dtype=np.int64)
    return src, twin


def _edge_log_potentials(
    graph: Graph, edge_potentials: float | np.ndarray, twin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate homophily strengths and return ``(log w, log(1 - w))``.

    ``edge_potentials`` is the same-label probability of the pairwise
    potential ``[[w, 1-w], [1-w, w]]`` — a scalar, or one value per CSR
    half-edge (then it must be symmetric: ``w[p] == w[twin[p]]``).
    """
    num_half_edges = graph.indices.size
    w = np.asarray(edge_potentials, dtype=float)
    if w.ndim == 0:
        w = np.full(num_half_edges, float(w))
    elif w.shape != (num_half_edges,):
        raise SybilDefenseError(
            f"edge_potentials must be scalar or shape ({num_half_edges},), "
            f"got {w.shape}"
        )
    if num_half_edges and (w.min() <= 0.5 or w.max() >= 1.0):
        raise SybilDefenseError("edge potentials must lie in (0.5, 1)")
    if num_half_edges and not np.array_equal(w, w[twin]):
        raise SybilDefenseError("edge potentials must be edge-symmetric")
    return np.log(w), np.log1p(-w)


def _validate_priors(graph: Graph, priors: np.ndarray) -> np.ndarray:
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (graph.num_nodes,):
        raise SybilDefenseError(
            f"priors must have shape ({graph.num_nodes},), got {priors.shape}"
        )
    if priors.size and (priors.min() <= 0.0 or priors.max() >= 1.0):
        raise SybilDefenseError("priors must lie strictly inside (0, 1)")
    return priors


def _aggregate_incoming(
    n: int, dst: np.ndarray, logm: np.ndarray
) -> np.ndarray:
    """Sum incoming log-messages per node, in half-edge order.

    ``np.add.at`` applies the additions sequentially in index order, so
    the per-node accumulation order is fixed (source ascending) — the
    per-edge oracle replays the same order, which is what makes the
    two bit-identical.
    """
    acc = np.zeros((n, 2))
    np.add.at(acc, dst, logm)
    return acc


def _bp_inputs(
    graph: Graph,
    priors: np.ndarray,
    edge_potentials: float | np.ndarray,
    max_rounds: int,
    damping: float,
    tol: float,
) -> dict[str, np.ndarray]:
    """Validate a BP call; return its static half-edge arrays by name."""
    priors = _validate_priors(graph, priors)
    if max_rounds < 0:
        raise SybilDefenseError("max_rounds must be non-negative")
    if not 0.0 <= damping < 1.0:
        raise SybilDefenseError("damping must be in [0, 1)")
    if tol < 0:
        raise SybilDefenseError("tol must be non-negative")
    src, twin = _twin_permutation(graph)
    log_w, log_not_w = _edge_log_potentials(graph, edge_potentials, twin)
    log_phi = np.stack([np.log1p(-priors), np.log(priors)], axis=1)
    return {
        "src": src, "twin": twin, "log_w": log_w, "log_not_w": log_not_w,
        "log_phi": log_phi,
    }


def _beliefs(
    graph: Graph, log_phi: np.ndarray, logm: np.ndarray
) -> np.ndarray:
    """Per-node beliefs from the final messages (row-wise softmax)."""
    beliefs = log_phi + _aggregate_incoming(graph.num_nodes, graph.indices, logm)
    z = np.logaddexp(beliefs[:, 0], beliefs[:, 1])
    return np.exp(beliefs - z[:, None])


def loopy_belief_propagation(
    graph: Graph,
    priors: np.ndarray,
    edge_potentials: float | np.ndarray = 0.9,
    max_rounds: int = 50,
    damping: float = 0.25,
    tol: float = 1e-6,
) -> BeliefPropagationResult:
    """Run pairwise-potential loopy BP and return per-node beliefs.

    The model is a binary MRF over the social graph: node potential
    ``(1 - prior, prior)`` and edge potential ``[[w, 1-w], [1-w, w]]``
    with same-label (homophily) probability ``w`` per edge.  Messages
    are kept in the log domain with reverse-message exclusion, damped
    linearly (``damping`` of the old message is retained), and declared
    converged when no message component moves more than ``tol``.

    Each round's half-edge update runs in chunks through
    :func:`repro.chunking.run_kernel`; on the process backend the
    message state lives in shared memory for the whole run, so workers
    attach the buffers once — the GIL-bound workload where the process
    backend pays off, and still bit-identical to the thread path and to
    the per-edge oracle.
    """
    inputs = _bp_inputs(graph, priors, edge_potentials, max_rounds, damping, tol)
    n, dst = graph.num_nodes, graph.indices
    num_half_edges = dst.size
    logm = np.full((num_half_edges, 2), np.log(0.5))
    converged = num_half_edges == 0 or max_rounds == 0
    delta = 0.0
    rounds = 0
    tel = telemetry.current()

    def advance(env) -> bool:
        """Fold one finished round in; return whether to run another."""
        nonlocal converged, delta, rounds
        rounds += 1
        tel.count("sybil.fusion.bp.rounds")
        tel.count("sybil.fusion.bp.messages", num_half_edges)
        env.logm[...] = env.new_logm
        delta = float(env.diffs.max())
        converged = delta <= tol
        if converged or rounds == max_rounds:
            return False
        env.acc[...] = _aggregate_incoming(n, dst, env.logm)
        return True

    with tel.span("sybil.fusion.bp"):
        if not converged:
            run_kernel(
                _bp_kernel,
                num_half_edges,
                inputs={**inputs, "damping": damping},
                outputs={
                    "acc": _aggregate_incoming(n, dst, logm),
                    "logm": logm,
                    "new_logm": np.empty_like(logm),
                    "diffs": np.empty(num_half_edges),
                },
                repeat=advance,
                span="sybil.fusion.bp.chunk",
            )
        beliefs = _beliefs(graph, inputs["log_phi"], logm)
        tel.count("sybil.fusion.bp.converged", int(converged))
    return BeliefPropagationResult(
        beliefs=beliefs, converged=bool(converged), rounds=rounds, delta=delta
    )


def _bp_kernel(columns: slice, env) -> None:
    """Update one chunk of half-edge messages (vectorized)."""
    senders = env.src[columns]
    reverse = env.logm[env.twin[columns]]
    log_w, log_not_w, log_phi = env.log_w[columns], env.log_not_w[columns], env.log_phi
    pre0 = env.acc[senders, 0] + log_phi[senders, 0] - reverse[:, 0]
    pre1 = env.acc[senders, 1] + log_phi[senders, 1] - reverse[:, 1]
    upd0 = np.logaddexp(pre0 + log_w, pre1 + log_not_w)
    upd1 = np.logaddexp(pre0 + log_not_w, pre1 + log_w)
    z = np.logaddexp(upd0, upd1)
    m0 = np.exp(upd0 - z)
    m1 = np.exp(upd1 - z)
    old0 = np.exp(env.logm[columns, 0])
    old1 = np.exp(env.logm[columns, 1])
    damping = env.damping
    if damping > 0.0:
        m0 = (1.0 - damping) * m0 + damping * old0
        m1 = (1.0 - damping) * m1 + damping * old1
        total = m0 + m1
        m0 = m0 / total
        m1 = m1 / total
    env.diffs[columns] = np.maximum(np.abs(m0 - old0), np.abs(m1 - old1))
    env.new_logm[columns, 0] = np.log(m0)
    env.new_logm[columns, 1] = np.log(m1)


# ----------------------------------------------------------------------
# (3) the two fusion defenses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusionConfig:
    """Shared parameters of the fusion defenses.

    ``homophily`` is the baseline same-label edge probability;
    SybilFrame additionally modulates it per edge by prior agreement
    with amplitude ``confidence_range`` (an edge between nodes whose
    priors agree carries a stronger potential than one between a
    likely-honest and a likely-Sybil endpoint).  Both run
    :func:`loopy_belief_propagation` with its default schedule.
    SybilFuse runs two prior-weighted random walks per node, of length
    ``ceil(log2 n)``, and blends the degree-normalized landing
    frequency into the BP posterior with weight ``walk_mix``.
    """

    homophily: float = 0.85
    confidence_range: float = 0.1
    walk_mix: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.5 < self.homophily < 1.0:
            raise SybilDefenseError("homophily must be in (0.5, 1)")
        if not 0.0 <= self.confidence_range < 0.5:
            raise SybilDefenseError("confidence_range must be in [0, 0.5)")
        if self.homophily + self.confidence_range >= 1.0:
            raise SybilDefenseError(
                "homophily + confidence_range must stay below 1"
            )
        if not 0.0 <= self.walk_mix <= 1.0:
            raise SybilDefenseError("walk_mix must be in [0, 1]")


@dataclass(frozen=True)
class SybilFrameResult:
    """SybilFrame posterior plus the BP run's convergence record."""

    posterior: np.ndarray
    priors: np.ndarray
    converged: bool
    rounds: int

    def ranking(self) -> np.ndarray:
        """Node ids ranked most-honest first (ties by id)."""
        return ranking_order(self.posterior)

    def accepted(self, threshold: float = 0.5) -> np.ndarray:
        """Nodes whose honest posterior reaches ``threshold``."""
        return np.flatnonzero(self.posterior >= threshold).astype(np.int64)


class SybilFrame:
    """Prior + pairwise-potential BP defense (arXiv 1503.02985).

    Same call shape as :class:`~repro.sybil.sybilrank.SybilRank` /
    :class:`~repro.sybil.sybilinfer.SybilInfer`: construct over the
    graph, then ``run(trusted, priors)``.
    """

    def __init__(self, graph: Graph, config: FusionConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SybilFrame needs at least 3 nodes")
        self._graph = graph
        self._config = config or FusionConfig()

    @property
    def graph(self) -> Graph:
        """The social graph."""
        return self._graph

    def edge_confidences(self, priors: np.ndarray) -> np.ndarray:
        """Per-half-edge homophily strengths from prior agreement.

        ``w_e = homophily + confidence_range * (1 - |prior_u - prior_v|
        - 1/2) * 2`` — rescaled so full agreement raises the potential
        by ``confidence_range`` and full disagreement lowers it by the
        same amount, always staying inside ``(0.5, 1)``.
        """
        priors = _validate_priors(self._graph, priors)
        src = np.repeat(self._graph.nodes(), self._graph.degrees)
        agreement = 1.0 - np.abs(priors[src] - priors[self._graph.indices])
        return self._config.homophily + self._config.confidence_range * (
            2.0 * agreement - 1.0
        )

    def run(self, trusted: int, priors: np.ndarray) -> SybilFrameResult:
        """Fuse ``priors`` with graph structure through loopy BP."""
        self._graph._check_node(trusted)
        priors = _validate_priors(self._graph, priors)
        tel = telemetry.current()
        with tel.span("sybil.fusion.sybilframe"):
            result = loopy_belief_propagation(
                self._graph, priors, edge_potentials=self.edge_confidences(priors)
            )
        return SybilFrameResult(
            posterior=result.honest_posterior,
            priors=priors,
            converged=result.converged,
            rounds=result.rounds,
        )


@dataclass(frozen=True)
class SybilFuseResult:
    """SybilFuse fused trust scores plus their two ingredients."""

    scores: np.ndarray
    posterior: np.ndarray
    walk_trust: np.ndarray
    converged: bool
    rounds: int

    def ranking(self) -> np.ndarray:
        """Node ids ranked most-trusted first (ties by id)."""
        return ranking_order(self.scores)

    def accepted(self, count: int) -> np.ndarray:
        """Accept the ``count`` best-ranked nodes."""
        return accept_top(self.scores, count)


class SybilFuse:
    """Prior-weighted walks fused with BP posteriors (arXiv 1803.06772)."""

    def __init__(self, graph: Graph, config: FusionConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SybilFuse needs at least 3 nodes")
        self._graph = graph
        self._config = config or FusionConfig()

    @property
    def graph(self) -> Graph:
        """The social graph."""
        return self._graph

    def walk_trust(self, trusted: int, priors: np.ndarray) -> np.ndarray:
        """Degree-normalized landing frequency of prior-weighted walks.

        Two walks per node, of length ``ceil(log2 n)``: walk starts are
        sampled proportionally to the priors (the trusted node always
        contributes), so trust flows out of the likely-honest region;
        landing counts are divided by degree and normalized to a
        ``[0, 1]`` score.
        """
        priors = _validate_priors(self._graph, priors)
        n = self._graph.num_nodes
        length = max(1, int(np.ceil(np.log2(n))))
        starts_seed, walks_seed = np.random.SeedSequence(self._config.seed).spawn(2)
        weights = priors / priors.sum()
        num_walks = 2 * n
        starts = np.random.default_rng(starts_seed).choice(
            n, size=max(num_walks - 1, 0), p=weights
        )
        starts = np.concatenate([[trusted], starts])
        counts = walk_visit_counts(self._graph, starts, length, seed=walks_seed)
        trust = counts / np.maximum(self._graph.degrees.astype(float), 1.0)
        peak = trust.max()
        return trust / peak if peak > 0 else trust

    def run(self, trusted: int, priors: np.ndarray) -> SybilFuseResult:
        """Fuse BP posteriors with prior-weighted walk trust."""
        self._graph._check_node(trusted)
        priors = _validate_priors(self._graph, priors)
        cfg = self._config
        tel = telemetry.current()
        with tel.span("sybil.fusion.sybilfuse"):
            bp = loopy_belief_propagation(
                self._graph, priors, edge_potentials=cfg.homophily
            )
            trust = self.walk_trust(trusted, priors)
            scores = (
                1.0 - cfg.walk_mix
            ) * bp.honest_posterior + cfg.walk_mix * trust
        return SybilFuseResult(
            scores=scores,
            posterior=bp.honest_posterior,
            walk_trust=trust,
            converged=bp.converged,
            rounds=bp.rounds,
        )
