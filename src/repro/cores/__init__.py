"""Graph degeneracy: k-core decomposition and core-structure statistics."""

from repro.cores.decomposition import core_decomposition, degeneracy
from repro.cores.statistics import CoreStructure, core_structure, coreness_ecdf

__all__ = [
    "core_decomposition",
    "degeneracy",
    "coreness_ecdf",
    "CoreStructure",
    "core_structure",
]
