"""The concurrent topological query service.

The "millions of users" layer: because every topological query factors
through the invariant ``T_I`` (the paper's Theorem 4.3 / Corollary 4.4
machinery), answers are cacheable and identical concurrent requests are
*coalescable*.  :class:`QueryService` serves cell/rect/real/point logic
sentences, equivalence checks, and invariant lookups over named stored
instances with request coalescing, admission control, per-request
deadlines, and per-endpoint SLO rollups.
:class:`ShardedQueryService` scales the same front-end across N worker
processes — instances partitioned by consistent hashing on
``instance_key``, one private pipeline per shard, batched dispatch —
with identical answers (the sharding differential suite holds it to
bit-identity).

See :mod:`repro.service.service` for the serving core,
:mod:`repro.service.coalesce` and :mod:`repro.service.admission` for
the two concurrency disciplines, :mod:`repro.service.router` for
consistent-hash routing and request batching,
:mod:`repro.service.shard` for the worker protocol and shard
lifecycle, :mod:`repro.service.breaker` for the store-read circuit
breaker, and :mod:`repro.service.metrics` for the ``service.*``
counter family.
"""

from .admission import AdmissionController
from .breaker import CircuitBreaker
from .coalesce import CoalesceTable
from .metrics import counters
from .router import Batcher, HashRing
from .service import DEFAULT_SLOS, QueryAnswer, QueryService
from .shard import ShardServer, ShardedQueryService

__all__ = [
    "AdmissionController",
    "Batcher",
    "CircuitBreaker",
    "CoalesceTable",
    "DEFAULT_SLOS",
    "HashRing",
    "QueryAnswer",
    "QueryService",
    "ShardServer",
    "ShardedQueryService",
    "counters",
]
