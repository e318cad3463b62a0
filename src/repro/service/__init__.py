"""The concurrent topological query service.

The "millions of users" layer: because every topological query factors
through the invariant ``T_I`` (the paper's Theorem 4.3 / Corollary 4.4
machinery), answers are cacheable and identical concurrent requests are
*coalescable*.  :class:`QueryService` serves cell/rect/real/point logic
sentences, equivalence checks, and invariant lookups over named stored
instances with request coalescing, admission control, per-request
deadlines, and per-endpoint SLO rollups.  An invariant already in the
pipeline cache's memory is answered inline, and concurrent distinct
invariant misses share one ``compute_batch``, so a ``processes``
pipeline computes them in parallel.

See :mod:`repro.service.service` for the serving core,
:mod:`repro.service.coalesce` and :mod:`repro.service.admission` for
the two concurrency disciplines, :mod:`repro.service.breaker` for the
store-read circuit breaker, and :mod:`repro.service.metrics` for the
``service.*`` counter family.
"""

from .admission import AdmissionController
from .breaker import CircuitBreaker
from .coalesce import CoalesceTable
from .metrics import counters
from .service import DEFAULT_SLOS, QueryAnswer, QueryService

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CoalesceTable",
    "DEFAULT_SLOS",
    "QueryAnswer",
    "QueryService",
    "counters",
]
