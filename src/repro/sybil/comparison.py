"""Uniform cross-defense evaluation (the Viswanath-style experiment).

Viswanath et al. compared SybilGuard, SybilLimit, SybilInfer and SumUp
under one harness and found they all make the same community-shaped
cut.  This module provides that harness over all ten defenses: one
attack scenario in, one :class:`~repro.sybil.harness.DefenseOutcome`
per defense out, with consistent honest-acceptance / Sybils-per-edge
accounting.

Route-based defenses are evaluated on a suspect sample (their per-pair
verification is expensive by design); sample-based results are rescaled
to the full graph by stratifying honest and Sybil suspects.

Besides the accept/reject view, every defense also exposes a *score*
view (:func:`defense_scores`): a trust score per node (or per sampled
suspect for the route-based defenses), summarized as a ROC AUC with
**midrank** tie handling.  Midranks matter: honest ids precede Sybil
ids in every attack scenario, so breaking score ties by node id (the
ranking-order convention) silently awards every tie to the honest side
and inflates AUC — ties must earn half credit instead.

Both views come from one run: a single private runner builds and runs
each defense once and computes either view on demand, so a caller that
needs both (the privacy frontier) runs every defense once per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SybilDefenseError
from repro.sybil.attack import SybilAttack
from repro.sybil.fusion import (
    FusionConfig,
    PriorConfig,
    SybilFrame,
    SybilFuse,
    extract_priors,
)
from repro.sybil.gatekeeper import GateKeeper, GateKeeperConfig
from repro.sybil.harness import DefenseOutcome
from repro.sybil.ranking import accept_top, walk_probability_ranking
from repro.sybil.sumup import SumUp
from repro.sybil.sybildefender import SybilDefender, SybilDefenderConfig
from repro.sybil.sybilguard import SybilGuard, SybilGuardConfig
from repro.sybil.sybilrank import SybilRank
from repro.sybil.sybilinfer import SybilInfer, SybilInferConfig
from repro.sybil.sybillimit import SybilLimit, SybilLimitConfig

__all__ = [
    "DEFENSE_NAMES",
    "STRUCTURE_DEFENSE_NAMES",
    "FUSION_DEFENSE_NAMES",
    "evaluate_defense",
    "compare_defenses",
    "roc_auc",
    "DefenseScores",
    "defense_scores",
]

STRUCTURE_DEFENSE_NAMES = (
    "gatekeeper",
    "sybilguard",
    "sybillimit",
    "sybilinfer",
    "sybilrank",
    "sybildefender",
    "sumup",
    "ranking",
)

FUSION_DEFENSE_NAMES = (
    "sybilframe",
    "sybilfuse",
)

DEFENSE_NAMES = STRUCTURE_DEFENSE_NAMES + FUSION_DEFENSE_NAMES


def _stratified_suspects(
    attack: SybilAttack, sample_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if sample_size < 2:
        raise SybilDefenseError(
            "suspect_sample must be at least 2 (one honest and one Sybil "
            f"suspect), got {sample_size}"
        )
    half = sample_size // 2
    honest = rng.choice(
        attack.num_honest, size=min(half, attack.num_honest), replace=False
    )
    sybil = rng.choice(
        attack.sybil_nodes, size=min(half, attack.num_sybil), replace=False
    )
    return honest, sybil


def _sampled_outcome(
    attack: SybilAttack,
    accepted: set[int],
    honest_sample: np.ndarray,
    sybil_sample: np.ndarray,
) -> tuple[float, float]:
    """Rescale sample acceptance rates to whole-graph Table-II metrics."""
    honest_rate = (
        sum(1 for s in honest_sample if int(s) in accepted)
        / max(honest_sample.size, 1)
    )
    sybil_rate = (
        sum(1 for s in sybil_sample if int(s) in accepted)
        / max(sybil_sample.size, 1)
    )
    sybils_total = sybil_rate * attack.num_sybil
    return honest_rate, sybils_total / max(attack.num_attack_edges, 1)


@dataclass(frozen=True)
class _DefenseRun:
    """One run of one defense; each view is computed only when asked for.

    ``nodes`` are the scored node ids, ``trust()`` their trust values,
    ``table_ii()`` the (honest acceptance, Sybils per attack edge) pair.
    """

    defense: str
    attack: SybilAttack
    nodes: np.ndarray
    trust: Callable[[], np.ndarray]
    table_ii: Callable[[], tuple[float, float]]

    def scores(self) -> DefenseScores:
        """The trust-score view, summarized by its midrank ROC AUC."""
        scores = np.asarray(self.trust(), dtype=float)
        return DefenseScores(
            defense=self.defense,
            nodes=np.asarray(self.nodes, dtype=np.int64),
            scores=scores,
            auc=roc_auc(scores, self.nodes >= self.attack.num_honest),
        )

    def outcome(self, dataset: str) -> DefenseOutcome:
        """The accept/reject view, as one Table-II cell."""
        honest_frac, per_edge = self.table_ii()
        return DefenseOutcome(
            dataset=dataset,
            defense=self.defense,
            parameter=0.0,
            honest_acceptance=float(honest_frac),
            sybils_per_attack_edge=float(per_edge),
            num_controllers=1,
        )


def _run_defense(
    attack: SybilAttack,
    defense: str,
    verifier: int = 0,
    suspect_sample: int = 120,
    seed: int = 0,
    prior_config: PriorConfig | None = None,
) -> _DefenseRun:
    """Run one defense once on one attack scenario.

    SumUp scores each suspect by its own collection, but its Table-II
    pair collects each side of the sample as one batch, because votes
    compete for capacity within a collection.
    """
    if defense not in DEFENSE_NAMES:
        raise SybilDefenseError(
            f"unknown defense {defense!r}; expected one of {DEFENSE_NAMES}"
        )
    if not 0 <= verifier < attack.num_honest:
        raise SybilDefenseError("the verifier must be an honest node")
    rng = np.random.default_rng(seed)
    honest_sample, sybil_sample = _stratified_suspects(attack, suspect_sample, rng)
    suspects = np.concatenate([honest_sample, sybil_sample])
    graph = attack.graph

    def scored(
        trust: Callable[[], np.ndarray], accepted: Callable[[], np.ndarray]
    ) -> _DefenseRun:
        # every node scored; Table II counts the set the scores accept
        return _DefenseRun(
            defense,
            attack,
            np.arange(graph.num_nodes, dtype=np.int64),
            trust,
            lambda: attack.evaluate_accepted(accepted()),
        )

    if defense == "gatekeeper":
        result = GateKeeper(
            graph,
            GateKeeperConfig(num_distributors=50, admission_factor=0.2, seed=seed),
        ).run(verifier)
        return scored(
            lambda: result.reach_counts.astype(float), lambda: result.admitted
        )
    if defense == "sybilinfer":
        result = SybilInfer(
            graph, SybilInferConfig(num_samples=80, burn_in=40, seed=seed)
        ).run(verifier)
        return scored(
            lambda: result.honest_probability, lambda: result.accepted(0.5)
        )
    if defense == "sybilrank":
        result = SybilRank(graph).run(seeds=[verifier])
        return scored(
            lambda: result.normalized, lambda: result.accepted(attack.num_honest)
        )
    if defense == "ranking":
        ranking = walk_probability_ranking(graph, trusted=verifier)
        return scored(
            lambda: ranking, lambda: accept_top(ranking, attack.num_honest)
        )
    if defense in FUSION_DEFENSE_NAMES:
        priors = extract_priors(
            attack, trusted=verifier, config=prior_config or PriorConfig(seed=seed)
        )
        config = FusionConfig(seed=seed)
        if defense == "sybilframe":
            result = SybilFrame(graph, config).run(verifier, priors)
            return scored(lambda: result.posterior, lambda: result.accepted(0.5))
        result = SybilFuse(graph, config).run(verifier, priors)
        return scored(
            lambda: result.scores, lambda: result.accepted(attack.num_honest)
        )
    if defense == "sumup":
        sumup = SumUp(graph)

        def votes() -> np.ndarray:
            return np.array(
                [
                    float(sumup.collect(verifier, np.array([s])).collected_votes)
                    for s in suspects
                ]
            )

        def batches() -> tuple[float, float]:
            honest_votes = sumup.collect(verifier, honest_sample).collected_votes
            sybil_votes = sumup.collect(verifier, sybil_sample).collected_votes
            per_edge = (
                sybil_votes / max(sybil_sample.size, 1) * attack.num_sybil
            ) / max(attack.num_attack_edges, 1)
            return honest_votes / max(honest_sample.size, 1), per_edge

        return _DefenseRun(defense, attack, suspects, votes, batches)
    # sybilguard / sybillimit / sybildefender: binary per-pair verdicts
    if defense == "sybilguard":
        verdicts = SybilGuard(graph, SybilGuardConfig(seed=seed)).accepted_set(
            verifier, suspects
        )
    elif defense == "sybillimit":
        verdicts = SybilLimit(graph, SybilLimitConfig(seed=seed)).verify_all(
            verifier, suspects
        )
    else:
        verdicts = SybilDefender(
            graph, SybilDefenderConfig(seed=seed)
        ).accepted_set(verifier, suspects)
    accepted = set(int(x) for x in np.asarray(verdicts))
    return _DefenseRun(
        defense,
        attack,
        suspects,
        lambda: np.array([float(int(s) in accepted) for s in suspects]),
        lambda: _sampled_outcome(attack, accepted, honest_sample, sybil_sample),
    )


def evaluate_defense(
    attack: SybilAttack,
    defense: str,
    verifier: int = 0,
    suspect_sample: int = 120,
    dataset: str = "unknown",
    seed: int = 0,
) -> DefenseOutcome:
    """Run one defense on one attack scenario.

    ``verifier`` is the honest controller / verifier / trusted node /
    vote collector, depending on the defense.
    """
    return _run_defense(attack, defense, verifier, suspect_sample, seed).outcome(
        dataset
    )


def compare_defenses(
    attack: SybilAttack,
    defenses: tuple[str, ...] = DEFENSE_NAMES,
    suspect_sample: int = 120,
    dataset: str = "unknown",
    seed: int = 0,
) -> list[DefenseOutcome]:
    """Evaluate several defenses on the same attack scenario, verified
    from node 0."""
    return [
        evaluate_defense(
            attack,
            name,
            suspect_sample=suspect_sample,
            dataset=dataset,
            seed=seed,
        )
        for name in defenses
    ]


def roc_auc(scores: np.ndarray, is_sybil: np.ndarray) -> float:
    """ROC AUC of trust ``scores`` against Sybil labels, with midranks.

    Equals the probability that a uniformly chosen honest node outscores
    a uniformly chosen Sybil, counting ties as half a win (the
    Mann-Whitney statistic).  The midrank handling is the point: the
    earlier ranking-induced computation broke ties by node id, and since
    honest ids always precede Sybil ids in :class:`SybilAttack`, every
    tie was silently awarded to the honest side — defenses that scored
    large regions identically (e.g. reach counts of zero) reported
    inflated AUCs.  Pinned by the known-AUC fixture in the test suite:
    scores ``[0.9, 0.5, 0.5, 0.1]`` with the middle pair split across
    labels must give exactly 0.875.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(is_sybil, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise SybilDefenseError("scores and labels must be matching 1-d arrays")
    num_sybil = int(labels.sum())
    num_honest = labels.size - num_sybil
    if num_honest == 0 or num_sybil == 0:
        raise SybilDefenseError("AUC needs both honest and Sybil labels")
    _, inverse, counts = np.unique(
        scores, return_inverse=True, return_counts=True
    )
    group_end = np.cumsum(counts)
    midranks = group_end - (counts - 1) / 2.0
    ranks = midranks[inverse]
    honest_rank_sum = float(ranks[~labels].sum())
    return (honest_rank_sum - num_honest * (num_honest + 1) / 2.0) / (
        num_honest * num_sybil
    )


@dataclass(frozen=True)
class DefenseScores:
    """Per-node trust scores of one defense, with the induced AUC.

    ``nodes`` are the scored node ids (the whole graph for
    score-producing defenses; the stratified suspect sample for the
    route/vote defenses whose verdicts are binary per pair), ``scores``
    the matching trust values (higher = more trusted), ``auc`` the
    midrank ROC AUC of those scores against the true Sybil labels.
    """

    defense: str
    nodes: np.ndarray
    scores: np.ndarray
    auc: float


def defense_scores(
    attack: SybilAttack,
    defense: str,
    suspect_sample: int = 120,
    seed: int = 0,
    prior_config: PriorConfig | None = None,
) -> DefenseScores:
    """Extract one defense's trust-score view of an attack scenario,
    verified from node 0; ``prior_config`` parameterizes the fusion
    defenses' priors.

    Score-producing defenses (ranking, SybilRank, SybilInfer,
    GateKeeper, SybilFrame, SybilFuse) score every node; the route- and
    vote-based defenses (SybilGuard, SybilLimit, SybilDefender, SumUp)
    yield accept/reject indicators over the stratified suspect sample —
    their coarse, tie-heavy scores are exactly why :func:`roc_auc` must
    midrank.
    """
    return _run_defense(
        attack, defense, suspect_sample=suspect_sample, seed=seed,
        prior_config=prior_config,
    ).scores()
