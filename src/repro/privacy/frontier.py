"""The privacy-utility frontier: sweep the perturbation knob ``t``.

The source paper's thesis is that mixing time, expansion and core
structure carry the trust signal social-network defenses rely on.  The
sharpest demonstration is to anonymize the links and watch the signal
fade: perturb the published graph with
:func:`~repro.privacy.perturb.perturb_links` at increasing ``t``, run
each perturbed graph through the standard measurement pipeline (mixing
TVD profile, SLEM, expansion envelope, core statistics) and through
every registered Sybil defense (one run each yields both its AUC and its
Table-II accounting), and chart utility retention against the privacy
gained.

Two monotone axes frame the frontier:

* **privacy rises** — the edge overlap with the real graph falls
  toward the random-graph floor as ``t`` grows;
* **utility falls** — the mixing profile drifts away from the real
  graph's (the :meth:`~PrivacyFrontier.mixing_degradation` curve rises
  from zero) and the mean defense ROC AUC falls toward coin-flipping,
  because the rewiring dissolves the sparse honest/Sybil cut every
  structural defense keys on.

Note the *direction* of the mixing shift: rewiring randomizes the
graph, so the perturbed graph usually mixes *faster* (smaller SLEM,
lower TVD) than the original — the degradation is the growing distance
from the real profile, reported here as the rising
``mixing_degradation`` curve, not a rising raw mixing time.  This
matches Mittal et al.'s own utility measurements and the
mixing-estimation framing of arXiv 1610.05646.

:func:`privacy_frontier_pipeline` exposes the sweep as a DAG: one
cacheable stage per perturbation level, fanned out by the pipeline
scheduler and memoized through the artifact store, so warm reruns of a
frontier recompute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from repro import parallel, telemetry
from repro.cores.statistics import core_structure
from repro.errors import GraphError
from repro.expansion.envelope import envelope_expansion
from repro.graph.core import Graph
from repro.graph.ops import largest_connected_component
from repro.mixing.sampling import mixing_time_from_profile, sampled_mixing_profile
from repro.mixing.spectral import slem
from repro.privacy.perturb import edge_overlap, perturb_links
from repro.sybil.attack import SybilAttack
from repro.sybil.comparison import DEFENSE_NAMES, _run_defense
from repro.sybil.harness import DefenseOutcome, standard_attack

__all__ = [
    "PrivacyPoint",
    "PrivacyFrontier",
    "privacy_utility_frontier",
    "privacy_frontier_pipeline",
]

#: Walk lengths of the per-point mixing TVD profile (the paper's
#: Figure-1 grid).
DEFAULT_WALK_LENGTHS = (1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 50)


@dataclass(frozen=True)
class PrivacyPoint:
    """All measurements of one perturbation level ``t``.

    Structural metrics (``slem``, ``mixing_tvd``, ``mixing_time``) are
    measured on the largest connected component of the perturbed graph
    (rewiring can strand nodes); ``lcc_fraction`` records how much of
    the graph that component retains.  ``mixing_time`` is the sampled
    worst-source ``T(1/n)`` in steps, or None when the chain has not
    mixed within the measured walk lengths.  ``defense_auc`` maps each
    evaluated defense to its midrank ROC AUC on the perturbed attack
    scenario; ``outcomes`` carries the Table-II style acceptance
    accounting of :func:`repro.sybil.compare_defenses`.  Both come from
    one run of each defense.
    """

    t: int
    num_edges: int
    edge_overlap: float
    lcc_fraction: float
    slem: float
    mixing_tvd: np.ndarray
    mixing_time: int | None
    degeneracy: int
    max_cores: int
    mean_small_set_expansion: float
    defense_auc: dict[str, float]
    outcomes: list[DefenseOutcome]

    @property
    def mean_defense_auc(self) -> float:
        """Mean midrank ROC AUC across the evaluated defenses."""
        return float(np.mean(list(self.defense_auc.values())))


def _ratio(value: float, base: float) -> float:
    if base:
        return float(value / base)
    return 1.0 if value == base else 0.0


@dataclass(frozen=True)
class PrivacyFrontier:
    """One privacy-utility sweep: a :class:`PrivacyPoint` per ``t``.

    ``points[i]`` measures perturbation level ``ts[i]``; the first
    point is the retention/degradation baseline (sweeps normally start
    at ``t = 0``, the identity transform).  ``walk_lengths`` is the
    shared grid of every point's ``mixing_tvd`` profile.
    """

    target: str
    topology: str
    ts: np.ndarray
    walk_lengths: np.ndarray
    points: list[PrivacyPoint]

    @property
    def baseline(self) -> PrivacyPoint:
        """The first (least-perturbed) point, the retention denominator."""
        return self.points[0]

    @property
    def mean_aucs(self) -> np.ndarray:
        """Mean defense AUC per perturbation level (the utility headline)."""
        return np.array([p.mean_defense_auc for p in self.points])

    @property
    def privacy(self) -> np.ndarray:
        """Per-level link privacy: ``1 - edge overlap`` with the original."""
        return np.array([1.0 - p.edge_overlap for p in self.points])

    def mixing_degradation(self) -> np.ndarray:
        """Mean absolute TVD-profile shift from the baseline, per level.

        Zero at the baseline and rising as the perturbed graph's mixing
        behavior drifts from the real graph's — the frontier's
        mixing-time degradation curve.
        """
        base = self.baseline.mixing_tvd
        return np.array(
            [float(np.abs(p.mixing_tvd - base).mean()) for p in self.points]
        )

    def utility_retention(self) -> dict[str, np.ndarray]:
        """Per-metric utility retained at each level, relative to baseline.

        Ratios of edges, SLEM, small-set expansion, degeneracy and mean
        defense AUC against the baseline point, plus the mixing-profile
        similarity ``1 - mean |tvd_t - tvd_0|``.  Every curve starts at
        1.0.
        """
        base = self.baseline
        return {
            "edges": np.array(
                [_ratio(p.num_edges, base.num_edges) for p in self.points]
            ),
            "slem": np.array([_ratio(p.slem, base.slem) for p in self.points]),
            "mixing_profile": 1.0 - self.mixing_degradation(),
            "expansion": np.array(
                [
                    _ratio(
                        p.mean_small_set_expansion, base.mean_small_set_expansion
                    )
                    for p in self.points
                ]
            ),
            "degeneracy": np.array(
                [_ratio(p.degeneracy, base.degeneracy) for p in self.points]
            ),
            "mean_defense_auc": np.array(
                [
                    _ratio(p.mean_defense_auc, base.mean_defense_auc)
                    for p in self.points
                ]
            ),
        }

    def auc_degradation(self) -> dict[str, np.ndarray]:
        """Per-defense AUC drop from the baseline at each level."""
        base = self.baseline.defense_auc
        return {
            name: np.array(
                [base[name] - p.defense_auc[name] for p in self.points]
            )
            for name in base
        }


def _walk_lengths(walk_lengths: Sequence[int] | None) -> np.ndarray:
    """The int64 walk-length grid; ``None`` is :data:`DEFAULT_WALK_LENGTHS`."""
    return np.asarray(
        list(DEFAULT_WALK_LENGTHS if walk_lengths is None else walk_lengths),
        dtype=np.int64,
    )


def _validate_ts(ts: Sequence[int]) -> np.ndarray:
    arr = np.asarray(list(ts), dtype=np.int64)
    if arr.size == 0:
        raise GraphError("the frontier needs at least one perturbation level")
    if arr.min() < 0:
        raise GraphError("perturbation levels must be non-negative")
    if np.any(np.diff(arr) <= 0):
        raise GraphError(
            "perturbation levels must be strictly increasing (the first "
            "is the retention baseline)"
        )
    return arr


def _measure_point(
    attack: SybilAttack,
    t: int,
    walk_lengths: np.ndarray,
    defenses: tuple[str, ...],
    num_sources: int,
    suspect_sample: int,
    seed: int,
    target: str,
) -> PrivacyPoint:
    """Perturb the attack graph at level ``t`` and measure everything.

    The *combined* graph (honest region, Sybil region, attack edges) is
    what the operator would publish, so that is what gets anonymized;
    the true labels (``num_honest``) are kept for scoring.
    """
    tel = telemetry.current()
    with tel.span("privacy.frontier.point"):
        tel.count("privacy.frontier.points")
        perturbed = perturb_links(attack.graph, t, seed=seed)
        lcc, _ = largest_connected_component(perturbed)
        if lcc.num_nodes >= 2:
            mu = slem(lcc)
            profile = sampled_mixing_profile(
                lcc, walk_lengths=walk_lengths, num_sources=num_sources, seed=seed
            )
            tvd = profile.mean
            mixing_time = mixing_time_from_profile(
                profile, 1.0 / lcc.num_nodes, aggregate="max"
            )
        else:  # a fully shattered graph has no chain to measure
            mu = 0.0
            tvd = np.zeros(walk_lengths.size)
            mixing_time = None
        structure = core_structure(perturbed)
        measurement = envelope_expansion(
            perturbed, num_sources=num_sources, seed=seed
        )
        perturbed_attack = SybilAttack(
            graph=perturbed,
            num_honest=attack.num_honest,
            attack_edges=attack.attack_edges,
        )
        runs = [
            _run_defense(
                perturbed_attack, name, suspect_sample=suspect_sample, seed=seed
            )
            for name in defenses
        ]
        aucs = {run.defense: run.scores().auc for run in runs}
        outcomes = [run.outcome(target) for run in runs]
    return PrivacyPoint(
        t=int(t),
        num_edges=perturbed.num_edges,
        edge_overlap=edge_overlap(attack.graph, perturbed),
        lcc_fraction=lcc.num_nodes / max(perturbed.num_nodes, 1),
        slem=float(mu),
        mixing_tvd=np.asarray(tvd, dtype=float),
        mixing_time=mixing_time,
        degeneracy=int(structure.degeneracy),
        max_cores=int(structure.num_cores.max()),
        mean_small_set_expansion=measurement.small_set_expansion(
            perturbed.num_nodes
        ),
        defense_auc=aucs,
        outcomes=outcomes,
    )


def privacy_utility_frontier(
    honest: Graph,
    ts: Sequence[int] = (0, 1, 2, 5, 10),
    topology: str = "powerlaw",
    defenses: tuple[str, ...] = DEFENSE_NAMES,
    suspect_sample: int = 120,
    num_sources: int = 50,
    walk_lengths: Sequence[int] | None = None,
    seed: int = 0,
    target: str = "unknown",
) -> PrivacyFrontier:
    """Sweep the perturbation knob and measure the privacy-utility frontier.

    Attaches the standard Sybil attack scenario to ``honest`` (same
    construction as the comparison harness, with its default
    ``max(n // 20, 5)`` attack edges), then for each ``t`` in
    ``ts`` perturbs the combined graph with
    :func:`~repro.privacy.perturb.perturb_links` and measures the
    mixing TVD profile, SLEM and sampled mixing time (on the LCC), core
    structure, envelope expansion, and every defense in ``defenses``,
    each run once for both its midrank AUC (as
    :func:`~repro.sybil.defense_scores` reports it) and its Table-II
    accounting (as :func:`~repro.sybil.compare_defenses` reports it).

    ``ts`` must be strictly increasing; start it at 0 so the first
    point is the unperturbed baseline the retention and degradation
    tables normalize against.
    """
    levels = _validate_ts(ts)
    lengths = _walk_lengths(walk_lengths)
    attack = standard_attack(honest, seed=seed, topology=topology)
    tel = telemetry.current()
    with tel.span("privacy.frontier"):
        points = [
            _measure_point(
                attack,
                int(t),
                lengths,
                tuple(defenses),
                num_sources,
                suspect_sample,
                seed,
                target,
            )
            for t in levels
        ]
    return PrivacyFrontier(
        target=target,
        topology=topology,
        ts=levels,
        walk_lengths=lengths,
        points=points,
    )


def privacy_frontier_pipeline(
    target: str,
    scale: float = 0.25,
    seed: int = 0,
    ts: Sequence[int] = (0, 1, 2, 5, 10),
    num_attack_edges: int | None = None,
    topology: str = "powerlaw",
    defenses: tuple[str, ...] = DEFENSE_NAMES,
    suspect_sample: int = 120,
    num_sources: int = 50,
    walk_lengths: Sequence[int] | None = None,
    store=None,
    workers: int | None = None,
    executor: str | None = None,
):
    """Build the privacy-frontier sweep as a memoized pipeline DAG.

    Stage layout: ``load -> attack -> perturb_t{t} (one independent,
    individually cacheable stage per level) -> frontier``.  The per-``t``
    stages only depend on the attack scenario, so the pipeline scheduler
    fans them out across workers, and a warm artifact store serves an
    entire repeated sweep — or the shared prefix of a sweep with new
    levels appended — without recomputation.  ``load`` and ``attack``
    are the stages the fusion comparison builds too
    (:mod:`repro.pipeline`), so equal scenarios share them.  Each
    ``perturb_t{t}`` stage also runs its engines under
    :func:`repro.parallel.execution` with ``workers``.
    """
    from repro.pipeline import (
        Pipeline, Stage, attack_stage, frontier_stages, load_stage,
    )

    def scoped(stage: Stage) -> Stage:
        def run(deps: dict[str, Any]) -> Any:
            with parallel.execution(workers=workers):
                return stage.fn(deps)

        return replace(stage, fn=run)

    attack = attack_stage(num_attack_edges, seed, topology)
    sweep = frontier_stages(
        attack,
        target,
        _validate_ts(ts),
        _walk_lengths(walk_lengths),
        tuple(defenses),
        suspect_sample,
        num_sources,
    )
    stages = [load_stage(target, scale, seed), attack, *map(scoped, sweep)]
    return Pipeline(
        stages,
        store=store,
        workers=workers,
        graph_stage="load",
        executor=executor,
    )
