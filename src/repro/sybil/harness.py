"""Shared evaluation harness for the Sybil defenses.

Builds the Table-II experiment: take a (synthetic analog of a) social
graph, attach a Sybil region over randomly chosen attack edges, run a
defense from sampled honest controllers/verifiers, and report honest
acceptance (as a fraction of all honest nodes) and Sybils accepted per
attack edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunking import sample_sources
from repro.errors import SybilDefenseError
from repro.generators import powerlaw_cluster_mixed
from repro.graph.core import Graph
from repro.sybil.attack import SybilAttack, inject_sybils, wild_sybil_region
from repro.sybil.gatekeeper import GateKeeper, GateKeeperConfig

__all__ = [
    "DefenseOutcome",
    "standard_attack",
    "evaluate_gatekeeper",
    "gatekeeper_table_row",
]


@dataclass(frozen=True)
class DefenseOutcome:
    """One (defense, graph, parameter) evaluation cell.

    ``honest_acceptance`` is the mean fraction of honest nodes accepted
    across controllers; ``sybils_per_attack_edge`` the mean count of
    admitted Sybil identities per attack edge (Table II's two rows).
    """

    dataset: str
    defense: str
    parameter: float
    honest_acceptance: float
    sybils_per_attack_edge: float
    num_controllers: int


def standard_attack(
    honest: Graph,
    num_attack_edges: int | None = None,
    sybil_scale: float = 0.2,
    seed: int = 0,
    topology: str = "powerlaw",
) -> SybilAttack:
    """Attach a standard Sybil region to ``honest``.

    By default the Sybil region is a small power-law social graph (the
    adversary is free to pick any internal topology; a social-looking
    one maximizes its chance of fooling structural defenses) with
    ``sybil_scale * n`` identities.  ``topology="wild"`` instead builds
    the sparse, tree-like region measured on real social networks
    (:func:`~repro.sybil.attack.wild_sybil_region`) — the regime where
    structure-only defenses lose their cut.  ``num_attack_edges=None``
    attaches ``max(n // 20, 5)`` attack edges.
    """
    if not 0.0 < sybil_scale <= 2.0:
        raise SybilDefenseError("sybil_scale must be in (0, 2]")
    if num_attack_edges is None:
        num_attack_edges = max(honest.num_nodes // 20, 5)
    sybil_nodes = max(int(honest.num_nodes * sybil_scale), 20)
    if topology == "powerlaw":
        region = powerlaw_cluster_mixed(
            sybil_nodes,
            min_attachment=2,
            max_attachment=max(6, sybil_nodes // 50),
            attachment_exponent=2.0,
            triad_probability=0.3,
            seed=seed + 17,
        )
    elif topology == "wild":
        region = wild_sybil_region(sybil_nodes, seed=seed + 17)
    else:
        raise SybilDefenseError(
            f"unknown sybil topology {topology!r}; use 'powerlaw' or 'wild'"
        )
    return inject_sybils(
        honest, region, num_attack_edges, strategy="random", seed=seed
    )


def evaluate_gatekeeper(
    attack: SybilAttack,
    admission_factors: list[float],
    num_controllers: int = 5,
    num_distributors: int = 99,
    dataset: str = "unknown",
    seed: int = 0,
) -> list[DefenseOutcome]:
    """Run GateKeeper from sampled honest controllers, sweeping f.

    One set of distributor ticket runs is shared across all admission
    factors (re-thresholding), matching how the paper sweeps f in
    Table II.
    """
    if not admission_factors:
        raise SybilDefenseError("at least one admission factor is required")
    rng = np.random.default_rng(seed)
    controllers = sample_sources(
        rng, attack.num_honest, num_controllers, "num_controllers"
    )
    config = GateKeeperConfig(
        num_distributors=num_distributors,
        admission_factor=min(admission_factors),
        seed=seed,
    )
    defense = GateKeeper(attack.graph, config)
    per_factor: dict[float, list[tuple[float, float]]] = {
        f: [] for f in admission_factors
    }
    for controller in controllers:
        result = defense.run(int(controller))
        for f in admission_factors:
            admitted = result.admitted_at(f)
            honest_frac, per_edge = attack.evaluate_accepted(admitted)
            per_factor[f].append((honest_frac, per_edge))
    outcomes = []
    for f in admission_factors:
        rows = np.asarray(per_factor[f])
        outcomes.append(
            DefenseOutcome(
                dataset=dataset,
                defense="gatekeeper",
                parameter=f,
                honest_acceptance=float(rows[:, 0].mean()),
                sybils_per_attack_edge=float(rows[:, 1].mean()),
                num_controllers=controllers.size,
            )
        )
    return outcomes


def gatekeeper_table_row(
    honest: Graph,
    dataset: str,
    num_attack_edges: int,
    admission_factors: list[float] | None = None,
    num_controllers: int = 5,
    seed: int = 0,
) -> list[DefenseOutcome]:
    """Produce one dataset's Table-II rows end to end."""
    factors = admission_factors or [0.1, 0.2, 0.3]
    attack = standard_attack(honest, num_attack_edges, seed=seed)
    return evaluate_gatekeeper(
        attack,
        factors,
        num_controllers=num_controllers,
        dataset=dataset,
        seed=seed,
    )
