"""Community detection used by the mixing/ranking analyses."""

from repro.community.detection import greedy_modularity, modularity

__all__ = [
    "greedy_modularity",
    "modularity",
]
