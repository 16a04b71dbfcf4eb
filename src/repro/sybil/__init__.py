"""Social-network Sybil defenses: attack model, the published
structure-only defenses (GateKeeper, SybilGuard, SybilLimit, SybilInfer,
SybilRank, SybilDefender, SumUp), the fusion family (SybilFrame,
SybilFuse over local priors + loopy belief propagation) and a shared
evaluation harness."""

from repro.sybil.attack import SybilAttack, inject_sybils, wild_sybil_region
from repro.sybil.comparison import (
    DEFENSE_NAMES,
    FUSION_DEFENSE_NAMES,
    STRUCTURE_DEFENSE_NAMES,
    DefenseScores,
    compare_defenses,
    defense_scores,
    evaluate_defense,
    roc_auc,
)
from repro.sybil.fusion import (
    BeliefPropagationResult,
    FusionConfig,
    PriorConfig,
    SybilFrame,
    SybilFrameResult,
    SybilFuse,
    SybilFuseResult,
    extract_priors,
    loopy_belief_propagation,
)
from repro.sybil.escape import (
    EscapeMeasurement,
    escape_profile,
    exact_escape_probability,
    measure_escape,
)
from repro.sybil.gatekeeper import GateKeeper, GateKeeperConfig, GateKeeperResult
from repro.sybil.harness import (
    DefenseOutcome,
    evaluate_gatekeeper,
    gatekeeper_table_row,
    standard_attack,
)
from repro.sybil.ranking import (
    accept_top,
    ranking_order,
    walk_probability_ranking,
)
from repro.sybil.sumup import SumUp, SumUpConfig, SumUpResult
from repro.sybil.sybildefender import SybilDefender, SybilDefenderConfig
from repro.sybil.sybilrank import SybilRank, SybilRankConfig, SybilRankResult
from repro.sybil.sybilguard import SybilGuard, SybilGuardConfig
from repro.sybil.sybilinfer import SybilInfer, SybilInferConfig, SybilInferResult
from repro.sybil.sybillimit import SybilLimit, SybilLimitConfig
from repro.sybil.tickets import (
    TicketDistribution,
    TicketPlan,
    distribute_tickets,
    ticket_plans,
)

__all__ = [
    "SybilAttack",
    "inject_sybils",
    "wild_sybil_region",
    "DEFENSE_NAMES",
    "STRUCTURE_DEFENSE_NAMES",
    "FUSION_DEFENSE_NAMES",
    "evaluate_defense",
    "compare_defenses",
    "roc_auc",
    "DefenseScores",
    "defense_scores",
    "PriorConfig",
    "extract_priors",
    "BeliefPropagationResult",
    "loopy_belief_propagation",
    "FusionConfig",
    "SybilFrame",
    "SybilFrameResult",
    "SybilFuse",
    "SybilFuseResult",
    "EscapeMeasurement",
    "escape_profile",
    "measure_escape",
    "exact_escape_probability",
    "TicketDistribution",
    "TicketPlan",
    "ticket_plans",
    "distribute_tickets",
    "GateKeeper",
    "GateKeeperConfig",
    "GateKeeperResult",
    "SybilGuard",
    "SybilGuardConfig",
    "SybilLimit",
    "SybilLimitConfig",
    "SybilInfer",
    "SybilInferConfig",
    "SybilInferResult",
    "SumUp",
    "SumUpConfig",
    "SumUpResult",
    "SybilRank",
    "SybilRankConfig",
    "SybilRankResult",
    "SybilDefender",
    "SybilDefenderConfig",
    "walk_probability_ranking",
    "ranking_order",
    "accept_top",
    "DefenseOutcome",
    "standard_attack",
    "evaluate_gatekeeper",
    "gatekeeper_table_row",
]
