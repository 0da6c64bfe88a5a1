"""hardylab: Whitney decompositions, boundary dimensions, polynomial
capacities, and constructive Hardy-inequality constants on dyadic rasters."""

from .grids import DomainSpec, GridDomain, rasterize
from .whitney import (
    WhitneyDecomposition,
    decompose,
    intersection_cutoff,
    packing_constant,
    summation_lemma_ratio,
)

__all__ = [
    "DomainSpec",
    "GridDomain",
    "rasterize",
    "WhitneyDecomposition",
    "decompose",
    "intersection_cutoff",
    "packing_constant",
    "summation_lemma_ratio",
]

__version__ = "0.1.0"
