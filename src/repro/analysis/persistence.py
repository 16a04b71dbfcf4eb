"""The JSON codec of measurement results.

The expensive measurements (all-source expansion, large mixing sweeps,
GateKeeper runs) are worth caching; :func:`to_jsonable` and
:func:`from_jsonable` round-trip the library's result dataclasses
through plain JSON so :class:`repro.store.ArtifactStore` can serialize
stage artifacts.

Result types are declared in a registry: any frozen result dataclass
registered through :func:`register_result_type` round-trips generically
(field by field), and two structural types get custom codecs —
:class:`repro.graph.Graph` (CSR arrays) and
:class:`repro.sybil.tickets.TicketPlan` (graph + source + BFS levels).
Unregistered types fail loudly with a :class:`ReproError` naming the
offending type; dictionaries with non-string keys are preserved via an
explicit pairs encoding instead of being silently stringified.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.anonymity.mixes import AnonymityProfile
from repro.cores.statistics import CoreStructure
from repro.dht.whanau import LookupResult
from repro.dtn.simbet import DeliveryStats
from repro.errors import ReproError
from repro.expansion.envelope import (
    ExpansionMeasurement,
    ExpansionSummary,
    SourceExpansion,
)
from repro.graph.core import Graph
from repro.mixing.sampling import MixingProfile
from repro.mixing.spectral import MixingBounds
from repro.sybil.attack import SybilAttack
from repro.sybil.comparison import DefenseScores
from repro.sybil.escape import EscapeMeasurement
from repro.sybil.fusion import (
    BeliefPropagationResult,
    FusionConfig,
    PriorConfig,
    SybilFrameResult,
    SybilFuseResult,
)
from repro.sybil.gatekeeper import GateKeeperConfig, GateKeeperResult
from repro.sybil.harness import DefenseOutcome
from repro.sybil.sumup import SumUpResult
from repro.sybil.sybilinfer import SybilInferResult
from repro.sybil.sybilrank import SybilRankResult
from repro.sybil.tickets import TicketDistribution, TicketPlan

__all__ = [
    "CODEC_VERSION",
    "register_result_type",
    "to_jsonable",
    "from_jsonable",
]

#: Bump when the wire format changes incompatibly; the artifact store
#: folds this into every cache key, so stale entries are invalidated
#: rather than mis-decoded.
CODEC_VERSION = 2

_TYPE_KEY = "__repro_type__"

#: Registered dataclasses, round-tripped generically field by field.
_REGISTRY: dict[str, type] = {}

#: Dataclasses whose home module imports :mod:`repro.store` (which in
#: turn loads this codec) — resolved on first use to break the cycle.
_LAZY_TYPES = {
    "DatasetSummary": "repro.analysis.experiments",
    "SnapshotMetrics": "repro.dynamics.tracking",
    "PrivacyPoint": "repro.privacy.frontier",
    "PrivacyFrontier": "repro.privacy.frontier",
    "GraphDelta": "repro.dynamics.evolution",
    "CompactionStats": "repro.serve.service",
    "ServiceStats": "repro.serve.service",
    "LatencySummary": "repro.serve.loadgen",
    "LoadReport": "repro.serve.loadgen",
}


def register_result_type(cls: type) -> type:
    """Register a dataclass with the results codec; usable as a decorator.

    Every field value must itself be serializable (scalars, numpy
    arrays, other registered types, containers thereof).
    """
    if not dataclasses.is_dataclass(cls):
        raise ReproError(
            f"only dataclasses can be registered with the results codec, "
            f"got {cls!r}"
        )
    existing = _REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ReproError(
            f"a different type named {cls.__name__!r} is already registered"
        )
    _REGISTRY[cls.__name__] = cls
    return cls


def _resolve_lazy(name: str) -> type | None:
    if name in _REGISTRY:
        return _REGISTRY[name]
    module_path = _LAZY_TYPES.get(name)
    if module_path is None:
        return None
    import importlib

    cls = getattr(importlib.import_module(module_path), name)
    return register_result_type(cls)


for _cls in (
    AnonymityProfile,
    BeliefPropagationResult,
    CoreStructure,
    DefenseOutcome,
    DefenseScores,
    DeliveryStats,
    EscapeMeasurement,
    ExpansionMeasurement,
    ExpansionSummary,
    FusionConfig,
    GateKeeperConfig,
    GateKeeperResult,
    LookupResult,
    MixingBounds,
    MixingProfile,
    PriorConfig,
    SourceExpansion,
    SumUpResult,
    SybilAttack,
    SybilFrameResult,
    SybilFuseResult,
    SybilInferResult,
    SybilRankResult,
    TicketDistribution,
):
    register_result_type(_cls)
del _cls


def _encode(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return {_TYPE_KEY: "ndarray", "data": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, Graph):
        return {
            _TYPE_KEY: "Graph",
            "indptr": _encode(obj.indptr),
            "indices": _encode(obj.indices),
        }
    if isinstance(obj, TicketPlan):
        return {
            _TYPE_KEY: "TicketPlan",
            "graph": _encode(obj._graph),
            "source": obj.source,
            "distances": _encode(obj.distances),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        cls = _REGISTRY.get(name) or _resolve_lazy(name)
        if cls is None or cls is not type(obj):
            raise ReproError(
                f"cannot serialize unregistered dataclass "
                f"{type(obj).__name__!r}; register it with "
                f"repro.analysis.persistence.register_result_type"
            )
        out = {_TYPE_KEY: name}
        for f in dataclasses.fields(obj):
            out[f.name] = _encode(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {str(k): _encode(v) for k, v in obj.items()}
        # Non-string keys (e.g. TicketDistribution.edge_tickets' (u, v)
        # tuples) are preserved as explicit pairs instead of being
        # stringified into unrecoverable JSON keys.
        return {
            _TYPE_KEY: "pairs",
            "items": [
                [_encode(list(k) if isinstance(k, tuple) else k), _encode(v)]
                for k, v in obj.items()
            ],
        }
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ReproError(f"cannot serialize object of type {type(obj).__name__}")


def _decode(obj: Any) -> Any:
    if isinstance(obj, dict):
        kind = obj.get(_TYPE_KEY)
        if kind == "ndarray":
            return np.asarray(obj["data"], dtype=obj["dtype"])
        if kind == "Graph":
            return Graph(_decode(obj["indptr"]), _decode(obj["indices"]))
        if kind == "TicketPlan":
            return TicketPlan(
                _decode(obj["graph"]),
                int(obj["source"]),
                distances=_decode(obj["distances"]),
            )
        if kind == "pairs":
            return {
                (tuple(k) if isinstance(k, list) else k): v
                for k, v in (
                    (_decode(pk), _decode(pv)) for pk, pv in obj["items"]
                )
            }
        if kind is not None:
            cls = _REGISTRY.get(kind) or _resolve_lazy(kind)
            if cls is None:
                raise ReproError(
                    f"cannot deserialize unknown result type {kind!r}"
                )
            fields = {
                k: _decode(v) for k, v in obj.items() if k != _TYPE_KEY
            }
            return cls(**fields)
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def to_jsonable(results: Any) -> Any:
    """Encode a result structure to JSON-ready plain data.

    Raises :class:`ReproError` naming the offending type when a value
    is not serializable.
    """
    return _encode(results)


def from_jsonable(payload: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    return _decode(payload)
