"""repro — a full reproduction of *Topological Queries in Spatial
Databases* (Papadimitriou, Suciu, Vianu; PODS 1996 / JCSS 1999).

The package implements the paper's topological invariant and everything
around it:

* :mod:`repro.geometry` — exact rational planar geometry;
* :mod:`repro.regions` — the region classes Rect, Rect*, Poly, Alg and
  spatial database instances;
* :mod:`repro.arrangement` — the planar arrangement / cell complex
  engine (the stand-in for the Kozen–Yap cell decomposition);
* :mod:`repro.invariant` — the invariant ``T_I``: computation,
  isomorphism (= H-equivalence, Theorem 3.4), validation (Theorem 3.8),
  realization as polygons (Theorem 3.5), the thematic mapping
  (Corollary 3.7), and the symmetry refinement ``S_I`` (Fig. 14);
* :mod:`repro.fourint` — Egenhofer's 4-intersection relations (Fig. 2);
* :mod:`repro.transforms` — the groups S, L, H and the Fig. 4 checker;
* :mod:`repro.relational` — a small relational engine (the classical
  side of the thematic bridge);
* :mod:`repro.logic` — the region-based languages FO(Region, Region'),
  cell semantics, rectangle order abstraction (Theorem 6.4), the
  point-based languages with the Section 5 translations, and the
  completeness machinery (Prop. 5.1 / Theorem 5.6);
* :mod:`repro.games`, :mod:`repro.encodings`, :mod:`repro.stringgraph`
  — EF games, the Theorem 6.1 arithmetic encodings, and the Σ1 /
  string-graph connection (Prop. 6.2);
* :mod:`repro.datasets` — every figure of the paper as an executable
  instance, plus benchmark workload generators.

Quickstart::

    from repro import Rect, SpatialInstance, invariant, topologically_equivalent

    lens = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
    T = invariant(lens)              # the paper's T_I
    T.counts()                        # (2, 4, 4): Example 3.1
"""

from .errors import (
    ArrangementError,
    ComputeError,
    EncodingError,
    GeometryError,
    InstanceError,
    InvariantError,
    OverloadError,
    ParseError,
    PipelineError,
    QueryError,
    RegionError,
    ReproError,
    SchemaError,
    ServiceClosedError,
    ServiceError,
    StoreError,
    StoreUnavailableError,
    UnknownInstanceError,
    ValidationError,
    WorkerError,
)
from .fourint import Egenhofer, classify, four_intersection_equivalent
from .geometry import Location, Point, Q, Segment, SimplePolygon
from .invariant import (
    TopologicalInvariant,
    are_isomorphic,
    canonical_form,
    canonical_hash,
    find_isomorphism,
    instance_key,
    invariant,
    realize,
    s_equivalent,
    s_invariant,
    thematic,
    topologically_equivalent,
    validate_database,
    validate_invariant,
)
from .logic import evaluate_cells, evaluate_rect, parse
from .pipeline import (
    BatchResult,
    InvariantCache,
    InvariantPipeline,
    Outcome,
    PipelineStats,
    RetryPolicy,
    topologically_equivalent_batch,
)
from .regions import (
    AlgRegion,
    Poly,
    Rect,
    RectUnion,
    Region,
    SpatialInstance,
)
from .service import QueryAnswer, QueryService
from .store import MirroredStore, Scrubber, SegmentStore
from .tracing import Trace, Tracer

__version__ = "1.0.0"

__all__ = [
    "AlgRegion",
    "ArrangementError",
    "BatchResult",
    "ComputeError",
    "Egenhofer",
    "EncodingError",
    "GeometryError",
    "InstanceError",
    "InvariantCache",
    "InvariantError",
    "InvariantPipeline",
    "Location",
    "MirroredStore",
    "Outcome",
    "OverloadError",
    "ParseError",
    "PipelineError",
    "PipelineStats",
    "Point",
    "Poly",
    "Q",
    "QueryAnswer",
    "QueryError",
    "QueryService",
    "Rect",
    "RectUnion",
    "Region",
    "RegionError",
    "ReproError",
    "RetryPolicy",
    "SchemaError",
    "Scrubber",
    "Segment",
    "SegmentStore",
    "ServiceClosedError",
    "ServiceError",
    "StoreError",
    "StoreUnavailableError",
    "SimplePolygon",
    "SpatialInstance",
    "TopologicalInvariant",
    "Trace",
    "Tracer",
    "UnknownInstanceError",
    "ValidationError",
    "WorkerError",
    "__version__",
    "are_isomorphic",
    "canonical_form",
    "canonical_hash",
    "classify",
    "evaluate_cells",
    "evaluate_rect",
    "find_isomorphism",
    "four_intersection_equivalent",
    "instance_key",
    "invariant",
    "parse",
    "realize",
    "s_equivalent",
    "s_invariant",
    "thematic",
    "topologically_equivalent",
    "topologically_equivalent_batch",
    "validate_database",
    "validate_invariant",
]
