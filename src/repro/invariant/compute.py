"""Computing the topological invariant of a spatial instance.

``invariant(I)`` is the paper's ``T_I`` (Theorem 3.5: computable in
polynomial time); ``topologically_equivalent(I, J)`` decides
H-equivalence through invariant isomorphism (Theorem 3.4).
"""

from __future__ import annotations

from ..arrangement import build_complex
from ..regions import SpatialInstance
from ..tracing import span
from .structure import TopologicalInvariant

__all__ = ["invariant", "topologically_equivalent"]


def invariant(
    instance: SpatialInstance, *, cache=None
) -> TopologicalInvariant:
    """The topological invariant ``T_I`` of *instance*.

    The instance may contain any mix of region classes; semi-algebraic
    regions take part through their polygonalized boundaries (see the
    substitution note in DESIGN.md).

    *cache*, when given, is any object with ``get(key)`` / ``put(key,
    invariant)`` keyed by geometry content — typically a
    :class:`repro.pipeline.InvariantCache`; the lookup key is
    :func:`repro.invariant.canonical.instance_key`.
    """
    if cache is not None:
        from .canonical import instance_key

        key = instance_key(instance)
        hit = cache.get(key)
        if hit is not None:
            return hit
    with span("invariant.build", regions=len(instance)):
        t = TopologicalInvariant.from_complex(build_complex(instance))
    if cache is not None:
        cache.put(key, t)
    return t


def topologically_equivalent(
    a: SpatialInstance, b: SpatialInstance
) -> bool:
    """Decide whether two instances are homeomorphic (H-equivalent).

    By Theorem 3.4 this holds iff their invariants are isomorphic via an
    isomorphism that is the identity on region names.
    """
    from .isomorphism import find_isomorphism

    if not a.same_names(b):
        return False
    return find_isomorphism(invariant(a), invariant(b)) is not None
