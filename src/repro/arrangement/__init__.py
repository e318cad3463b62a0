"""Planar arrangement engine: planarization, DCEL, labeling, and the
reduced cell complex — the library's stand-in for the Kozen–Yap cell
decomposition of the paper.  :func:`build_complex` runs the
float-filtered exact kernel (:mod:`repro.geometry.fastkernel`), the
sweep planarizer, and indexed labeling.  The seed path
(:func:`build_complex_reference`: :func:`planarize_allpairs` and
:func:`compute_labels_reference` under ``exact_mode``) is kept as the
output-identical test oracle."""

from .builder import planarize, planarize_allpairs
from .complex import (
    CCW,
    CW,
    Cell,
    CellComplex,
    build_complex,
    build_complex_reference,
)
from .dcel import Face, Subdivision, locate_in_closed_walk
from .labeling import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    LabelMap,
    RegionIndex,
    compute_labels,
    compute_labels_reference,
)

__all__ = [
    "BOUNDARY",
    "CCW",
    "CW",
    "Cell",
    "CellComplex",
    "EXTERIOR",
    "Face",
    "INTERIOR",
    "LabelMap",
    "RegionIndex",
    "Subdivision",
    "build_complex",
    "build_complex_reference",
    "compute_labels",
    "compute_labels_reference",
    "locate_in_closed_walk",
    "planarize",
    "planarize_allpairs",
]
