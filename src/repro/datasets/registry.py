"""Synthetic analogs of the paper's Table-I social graphs.

The paper measures fourteen benchmark social graphs (SNAP + Mislove +
Wilson traces).  Those traces are not redistributable and are far larger
than a laptop study needs, so this registry provides a seeded synthetic
analog per dataset.  Each analog is generated by a model chosen to match
the original's *qualitative regime* — which is what every claim in the
paper depends on:

* **fast-mixing** graphs (Wiki-vote, Epinions, Slashdot, Facebook A,
  YouTube, LiveJournal A) get preferential-attachment models with weak
  or no community confinement;
* **slow-mixing** graphs (the Physics co-authorships, DBLP, Enron,
  Facebook B, LiveJournal B) get strong planted community structure and
  high triadic closure — the paper's own explanation for their slow
  mixing ("tight-knit community structure", strict trust models).

Node counts are scaled down (default ~0.1-5k..20k nodes) but preserve
Table I's size ordering, so "similar size, different mixing" contrasts
(Wiki-vote vs Physics) survive.  Pass ``scale`` to grow or shrink all
analogs together.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import DatasetError
from repro.generators import (
    community_social_graph,
    powerlaw_cluster_mixed,
)
from repro.graph.core import Graph
from repro.graph.ops import largest_connected_component

__all__ = [
    "DatasetSpec",
    "available_datasets",
    "dataset_spec",
    "dataset_fingerprint",
    "load_dataset",
]

#: Bump when analog generation changes in a result-affecting way; the
#: fingerprint keys cached generation artifacts, so a bump invalidates
#: graphs cached by :mod:`repro.store` / :mod:`repro.pipeline`.
_GENERATION_VERSION = 1


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one Table-I analog.

    ``paper_nodes``/``paper_edges`` are the original trace sizes as
    reported in the paper (used only for documentation and ordering);
    ``analog_nodes`` is the synthetic analog's target size at scale 1.
    """

    name: str
    paper_nodes: int
    paper_edges: int
    category: str  # "small" | "medium" | "large"
    mixing_regime: str  # "fast" | "moderate" | "slow"
    analog_nodes: int
    description: str
    factory: Callable[[int, int], Graph]  # (num_nodes, seed) -> Graph


def _seed_for(name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _fast_powerlaw(attachment: int) -> Callable[[int, int], Graph]:
    """Fast-mixing analog: preferential attachment, no communities.

    Attachment counts are drawn from a power law in ``1 .. 3*attachment``
    so the coreness distribution spreads over many values (Figure 2's
    smooth ECDFs) instead of collapsing to a single core number.
    """

    def build(num_nodes: int, seed: int) -> Graph:
        return powerlaw_cluster_mixed(
            num_nodes,
            min_attachment=1,
            max_attachment=3 * attachment,
            attachment_exponent=1.6,
            triad_probability=0.1,
            seed=seed,
        )

    return build


def _clustered_powerlaw(attachment: int, triads: float) -> Callable[[int, int], Graph]:
    """Moderately mixing analog: power law with triadic closure."""

    def build(num_nodes: int, seed: int) -> Graph:
        return powerlaw_cluster_mixed(
            num_nodes,
            min_attachment=1,
            max_attachment=3 * attachment,
            attachment_exponent=1.8,
            triad_probability=triads,
            seed=seed,
        )

    return build


def _community(
    communities: int, attachment: int, inter: float, triads: float = 0.7
) -> Callable[[int, int], Graph]:
    """Slow-mixing analog: planted communities with few bridges."""

    def build(num_nodes: int, seed: int) -> Graph:
        return community_social_graph(
            num_nodes,
            communities,
            attachment,
            inter_community_fraction=inter,
            triad_probability=triads,
            seed=seed,
        )

    return build


_SPECS: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    if spec.name in _SPECS:
        raise DatasetError(f"duplicate dataset name {spec.name!r}")
    _SPECS[spec.name] = spec


_register(
    DatasetSpec(
        name="wiki_vote",
        paper_nodes=7_066,
        paper_edges=100_736,
        category="small",
        mixing_regime="fast",
        analog_nodes=4_000,
        description=(
            "Wikipedia adminship votes: weak-trust links, fast mixing; the "
            "paper's canonical fast graph despite its small size."
        ),
        factory=_fast_powerlaw(attachment=12),
    )
)
_register(
    DatasetSpec(
        name="epinions",
        paper_nodes=75_879,
        paper_edges=405_740,
        category="small",
        mixing_regime="fast",
        analog_nodes=7_500,
        description=(
            "Epinions who-trusts-whom: online weak-trust network; fast "
            "mixing with a single giant core (Figure 5h)."
        ),
        factory=_fast_powerlaw(attachment=6),
    )
)
_register(
    DatasetSpec(
        name="slashdot0811",
        paper_nodes=77_360,
        paper_edges=546_487,
        category="medium",
        mixing_regime="fast",
        analog_nodes=10_000,
        description="Slashdot Zoo friend/foe links (Nov 2008); fast mixing.",
        factory=_fast_powerlaw(attachment=7),
    )
)
_register(
    DatasetSpec(
        name="slashdot0902",
        paper_nodes=82_168,
        paper_edges=582_533,
        category="medium",
        mixing_regime="fast",
        analog_nodes=11_000,
        description="Slashdot Zoo friend/foe links (Feb 2009); fast mixing.",
        factory=_fast_powerlaw(attachment=7),
    )
)
_register(
    DatasetSpec(
        name="enron",
        paper_nodes=33_696,
        paper_edges=180_811,
        category="medium",
        mixing_regime="moderate",
        analog_nodes=8_000,
        description=(
            "Enron email graph: mixes comparably to Wiki-vote despite being "
            "5x larger (Figure 1a); organizational clustering but no hard "
            "community bottlenecks."
        ),
        factory=_clustered_powerlaw(attachment=8, triads=0.5),
    )
)
_register(
    DatasetSpec(
        name="physics1",
        paper_nodes=8_638,
        paper_edges=24_806,
        category="small",
        mixing_regime="slow",
        analog_nodes=4_000,
        description=(
            "arXiv ca-HepTh co-authorship: strict-trust collaboration graph; "
            "slow mixing, fragments into multiple small cores (Figure 5f)."
        ),
        factory=_community(communities=40, attachment=3, inter=0.01),
    )
)
_register(
    DatasetSpec(
        name="physics2",
        paper_nodes=11_204,
        paper_edges=117_619,
        category="small",
        mixing_regime="slow",
        analog_nodes=5_000,
        description=(
            "arXiv ca-HepPh co-authorship: slow mixing, denser than "
            "physics1 and with fewer (but multiple) cores (Figure 5g)."
        ),
        factory=_community(communities=25, attachment=8, inter=0.012),
    )
)
_register(
    DatasetSpec(
        name="physics3",
        paper_nodes=17_903,
        paper_edges=196_972,
        category="small",
        mixing_regime="slow",
        analog_nodes=6_500,
        description="arXiv ca-AstroPh co-authorship: slow mixing.",
        factory=_community(communities=30, attachment=7, inter=0.015),
    )
)
_register(
    DatasetSpec(
        name="rice_grad",
        paper_nodes=501,
        paper_edges=3_255,
        category="small",
        mixing_regime="moderate",
        analog_nodes=500,
        description=(
            "Rice CS graduate-student Facebook subgraph: tiny, dense, "
            "clustered campus community."
        ),
        factory=_clustered_powerlaw(attachment=6, triads=0.8),
    )
)
_register(
    DatasetSpec(
        name="dblp",
        paper_nodes=614_981,
        paper_edges=1_155_148,
        category="large",
        mixing_regime="slow",
        analog_nodes=15_000,
        description=(
            "DBLP co-authorship: strict-trust collaboration graph at scale; "
            "slow mixing with strong venue communities."
        ),
        factory=_community(communities=75, attachment=4, inter=0.01),
    )
)
_register(
    DatasetSpec(
        name="facebook_a",
        paper_nodes=1_000_000,
        paper_edges=20_353_734,
        category="large",
        mixing_regime="fast",
        analog_nodes=12_000,
        description=(
            "Facebook regional sample A (Wilson et al.): interaction-weak "
            "links; the faster-mixing of the two Facebook samples."
        ),
        factory=_fast_powerlaw(attachment=10),
    )
)
_register(
    DatasetSpec(
        name="facebook_b",
        paper_nodes=3_000_000,
        paper_edges=23_667_394,
        category="large",
        mixing_regime="moderate",
        analog_nodes=18_000,
        description=(
            "Facebook regional sample B: larger and more community-confined "
            "than sample A."
        ),
        factory=_community(communities=12, attachment=6, inter=0.08, triads=0.5),
    )
)
_register(
    DatasetSpec(
        name="livejournal_a",
        paper_nodes=4_843_953,
        paper_edges=42_845_684,
        category="large",
        mixing_regime="fast",
        analog_nodes=16_000,
        description="LiveJournal sample A (Mislove et al.): blogging friends.",
        factory=_fast_powerlaw(attachment=9),
    )
)
_register(
    DatasetSpec(
        name="livejournal_b",
        paper_nodes=5_204_176,
        paper_edges=48_942_196,
        category="large",
        mixing_regime="slow",
        analog_nodes=16_000,
        description=(
            "LiveJournal sample B: community-confined sample; the slow "
            "mixer among the large graphs (Figure 1b)."
        ),
        factory=_community(communities=60, attachment=5, inter=0.012),
    )
)
_register(
    DatasetSpec(
        name="youtube",
        paper_nodes=1_157_827,
        paper_edges=2_987_624,
        category="large",
        mixing_regime="fast",
        analog_nodes=15_000,
        description=(
            "YouTube friendships (Mislove et al.): sparse, weak-trust, "
            "fast mixing."
        ),
        factory=_fast_powerlaw(attachment=3),
    )
)


def available_datasets() -> tuple[str, ...]:
    """Return every analog name, in Table-I order."""
    return tuple(_SPECS)


def dataset_spec(name: str) -> DatasetSpec:
    """Return the spec for ``name``; raises :class:`DatasetError` if unknown."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(_SPECS)
        raise DatasetError(f"unknown dataset {name!r}; available: {known}") from None


def _check_scale(scale: float) -> None:
    if not 0 < scale < math.inf:  # also false for NaN
        raise DatasetError(f"scale must be positive and finite, got {scale}")


def dataset_fingerprint(name: str, scale: float = 1.0, seed: int = 0) -> str:
    """Stable content digest for one ``(analog, scale, seed)`` request.

    The fingerprint identifies the *input* of :func:`load_dataset`
    before the graph exists, so pipelines can key the generation stage
    itself in an artifact store and load the cached CSR arrays instead
    of regenerating.  It covers the analog's registry identity and the
    generation version, and is stable across processes and platforms.
    """
    spec = dataset_spec(name)
    _check_scale(scale)
    payload = "|".join(
        [
            f"repro-dataset-v{_GENERATION_VERSION}",
            spec.name,
            repr(float(scale)),
            str(int(seed)),
            str(spec.analog_nodes),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@lru_cache(maxsize=64)
def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Graph:
    """Generate the analog for ``name`` and return its largest component.

    ``scale`` multiplies the analog's node count (0.25 gives quick test
    graphs; >1 stresses the algorithms).  Results are cached per
    ``(name, scale, seed)``; the returned graph is immutable so sharing
    is safe.
    """
    spec = dataset_spec(name)
    _check_scale(scale)
    num_nodes = max(int(spec.analog_nodes * scale), 50)
    raw = spec.factory(num_nodes, _seed_for(name, seed))
    graph, _ = largest_connected_component(raw)
    return graph
