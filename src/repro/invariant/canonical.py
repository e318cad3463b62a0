"""Canonical forms and content hashes for invariants and instances.

Two needs of the batch pipeline meet here:

* **Content-addressed caching** of invariant computation wants a key that
  is a pure function of the *geometry* of an instance —
  :func:`instance_key` hashes the regions with their boundary cycles
  normalized (rotation and traversal direction of polygon vertex lists),
  so the same instance presented with a different starting vertex or
  winding hits the same cache entry.

* **Hash-bucketed equivalence testing** wants a key that is a pure
  function of the *isomorphism class* of an invariant —
  :func:`canonical_form` computes a complete canonical relabeling of the
  structure ``T_I`` (minimized over the global CW/CCW flip that
  Theorem 3.4 allows), so

  ``canonical_form(T1) == canonical_form(T2)``  iff  ``T1 ≅ T2``.

  Soundness and completeness both hold: the canonical form is the
  lexicographic minimum over a pruned individualization–refinement tree
  whose leaves are full serializations of the relabeled structure, so
  equal forms yield an explicit isomorphism and isomorphic structures
  explore branch sets that correspond under the isomorphism.

The canonization is the classical individualization–refinement scheme:
iterated color refinement over the incidence graph (seeded by dimension,
sign label, exterior marker, and endpoint multiplicity), and when the
partition is not discrete, branching over one color class with
automorphism-based orbit pruning — two candidates in the class are
explored only once when a color-preserving automorphism maps one to the
other.  Region-name labels discretize most real structures after a round
or two, so branching is rare (it appears exactly where the instance has
topological symmetry, e.g. the 4-fold lens of Example 3.1).
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

from ..errors import ReproError
from ..regions import AlgRegion, Poly, Rect, RectUnion, SpatialInstance
from ..tracing import span
from .structure import CCW, CW, TopologicalInvariant

__all__ = [
    "canonical_form",
    "canonical_hash",
    "instance_key",
]


# ---------------------------------------------------------------------------
# Instance geometry keys (cache addressing).
# ---------------------------------------------------------------------------


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _canonical_cycle(vertices: Sequence) -> tuple:
    """The lexicographically least rotation of the vertex cycle, over
    both traversal directions — the same polygon always yields the same
    tuple no matter where its vertex list starts or which way it winds."""
    coords = tuple((p.x, p.y) for p in vertices)
    n = len(coords)
    if n == 0:
        return ()
    best = None
    for seq in (coords, coords[::-1]):
        for i in range(n):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return tuple((_frac(x), _frac(y)) for x, y in best)


def _region_key(region) -> tuple:
    if isinstance(region, Rect):
        return (
            "rect",
            _frac(region.x1),
            _frac(region.y1),
            _frac(region.x2),
            _frac(region.y2),
        )
    if isinstance(region, RectUnion):
        return (
            "rect*",
            tuple(
                sorted(
                    (_frac(r.x1), _frac(r.y1), _frac(r.x2), _frac(r.y2))
                    for r in region.rects
                )
            ),
        )
    if isinstance(region, AlgRegion):
        definition = tuple(
            tuple(
                tuple(
                    sorted(
                        ((i, j), _frac(Fraction(c)))
                        for (i, j), c in poly.coeffs
                    )
                )
                for poly in conj
            )
            for conj in region.definition
        )
        return (
            "alg",
            definition,
            _canonical_cycle(region.boundary_polygon().vertices),
        )
    if isinstance(region, Poly):
        return ("poly", _canonical_cycle(region.vertices))
    # Generic regions key on their boundary polygon when they have one,
    # otherwise (e.g. RealizedRegion, whose boundary may carry slits and
    # holes) on the unordered set of boundary segments plus an interior
    # witness to separate a region from its complement.
    try:
        return ("poly", _canonical_cycle(region.boundary_polygon().vertices))
    except ReproError:
        pass
    segments = sorted(
        tuple(sorted(((_frac(s.a.x), _frac(s.a.y)), (_frac(s.b.x), _frac(s.b.y)))))
        for s in region.boundary_segments()
    )
    witness = region.interior_point()
    return ("segs", tuple(segments), (_frac(witness.x), _frac(witness.y)))


def instance_key(instance: SpatialInstance) -> str:
    """A content hash of the instance geometry, for invariant caches.

    Equal keys guarantee identical geometry (same names, same extents),
    so a cache keyed by this value can never serve a wrong invariant.
    The key is stable under re-insertion order of names and under
    rotation/reversal of polygon vertex lists.
    """
    payload = tuple(
        (name, _region_key(instance.ext(name)))
        for name in sorted(instance.names())
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Flattened view of an invariant, for canonization and automorphism search.
# ---------------------------------------------------------------------------


class _Flat:
    """An invariant unpacked into plain indexed arrays.

    Cells are integers ``0..n-1`` (in sorted-id order — the order is
    arbitrary and canonization removes it); relations are index sets.
    """

    def __init__(self, t: TopologicalInvariant):
        self.t = t
        self.cells: list[str] = sorted(t.all_cells())
        index = {c: i for i, c in enumerate(self.cells)}
        self.n = len(self.cells)
        self.inc: set[tuple[int, int]] = {
            (index[a], index[b]) for (a, b) in t.incidences
        }
        self.adj: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.inc:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.endpoints: dict[int, tuple[int, ...]] = {
            index[e]: tuple(sorted(index[v] for v in vs))
            for e, vs in t.endpoints.items()
        }
        self.orientation: set[tuple[str, int, int, int]] = {
            (s, index[v], index[e1], index[e2])
            for (s, v, e1, e2) in t.orientation
        }
        self.o_by_cell: dict[int, list[tuple[str, int, int, int]]] = (
            defaultdict(list)
        )
        for tup in self.orientation:
            _s, v, e1, e2 = tup
            for c in {v, e1, e2}:
                self.o_by_cell[c].append(tup)
        self.ext = index[t.exterior_face]
        # Base colors: everything refinement may legally use must be an
        # isomorphism invariant of the cell.
        self.base: list[tuple] = []
        for i, c in enumerate(self.cells):
            dim = t.dim(c)
            neps = len(t.endpoints.get(c, ())) if dim == 1 else -1
            self.base.append((dim, t.labels[c], i == self.ext, neps))

    # -- color refinement -------------------------------------------------

    def refine(self, seeds: Mapping[int, int]) -> list[int]:
        """Stable coloring seeded by *seeds* (cell -> branch step).

        Colors are rank-compressed each round by sorted key order, which
        keeps them small ints *and* isomorphism-invariant: an
        automorphism respecting the seeds maps each color class to
        itself.
        """
        keys = [
            (self.base[i], seeds.get(i, -1)) for i in range(self.n)
        ]
        ranks = _rank(keys)
        while True:
            keys = [
                (ranks[i], tuple(sorted(ranks[j] for j in self.adj[i])))
                for i in range(self.n)
            ]
            new_ranks = _rank(keys)
            if len(set(new_ranks)) == len(set(ranks)):
                return new_ranks
            ranks = new_ranks

    # -- serialization under a complete labeling --------------------------

    def serialize(self, ranks: list[int]) -> tuple:
        """The full relational content relabeled by *ranks* (discrete)."""
        order = sorted(range(self.n), key=lambda i: ranks[i])
        pos = {cell: p for p, cell in enumerate(order)}
        return (
            self.t.names,
            tuple(self.base[i][:2] for i in order),  # dims and labels
            pos[self.ext],
            tuple(
                (pos[e], tuple(sorted(pos[v] for v in vs)))
                for e, vs in sorted(
                    self.endpoints.items(), key=lambda kv: pos[kv[0]]
                )
            ),
            tuple(sorted((pos[a], pos[b]) for a, b in self.inc)),
            tuple(
                sorted(
                    (s, pos[v], pos[e1], pos[e2])
                    for (s, v, e1, e2) in self.orientation
                )
            ),
        )


def _rank(keys: list) -> list[int]:
    """Replace each key by its rank in the sorted distinct-key order."""
    table = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [table[k] for k in keys]


# ---------------------------------------------------------------------------
# Automorphism search (orbit pruning).
# ---------------------------------------------------------------------------


def _has_automorphism(
    flat: _Flat, colors1: list[int], colors2: list[int]
) -> bool:
    """Whether the structure has a self-bijection matching *colors1* to
    *colors2* and preserving incidences, endpoints, and orientation
    (sense-preserving — the mirror pass canonizes separately)."""
    if Counter(colors1) != Counter(colors2):
        return False
    by_color: dict[int, list[int]] = defaultdict(list)
    for i, col in enumerate(colors2):
        by_color[col].append(i)
    candidates = {i: by_color[colors1[i]] for i in range(flat.n)}
    order = sorted(range(flat.n), key=lambda i: (len(candidates[i]), i))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(cell: int, target: int) -> bool:
        for other in flat.adj[cell]:
            if other not in mapping:
                continue
            m = mapping[other]
            if ((cell, other) in flat.inc) != ((target, m) in flat.inc):
                return False
            if ((other, cell) in flat.inc) != ((m, target) in flat.inc):
                return False
        eps1 = flat.endpoints.get(cell)
        if eps1 is not None:
            eps2 = flat.endpoints.get(target)
            if eps2 is None or len(eps1) != len(eps2):
                return False
            assigned = {mapping[v] for v in eps1 if v in mapping}
            if not assigned <= set(eps2):
                return False
        for (s, v, e1, e2) in flat.o_by_cell.get(cell, ()):
            trial = (
                mapping.get(v, target if v == cell else None),
                mapping.get(e1, target if e1 == cell else None),
                mapping.get(e2, target if e2 == cell else None),
            )
            if None not in trial:
                if (s, *trial) not in flat.orientation:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == flat.n:
            return True
        cell = order[i]
        for target in candidates[cell]:
            if target in used or not consistent(cell, target):
                continue
            mapping[cell] = target
            used.add(target)
            if backtrack(i + 1):
                return True
            del mapping[cell]
            used.discard(target)
        return False

    return backtrack(0)


# ---------------------------------------------------------------------------
# Individualization–refinement canonization.
# ---------------------------------------------------------------------------


def _canonize(flat: _Flat) -> tuple:
    best: tuple | None = None

    def rec(seeds: dict[int, int]) -> None:
        nonlocal best
        ranks = flat.refine(seeds)
        classes: dict[int, list[int]] = defaultdict(list)
        for i, col in enumerate(ranks):
            classes[col].append(i)
        if len(classes) == flat.n:
            s = flat.serialize(ranks)
            if best is None or s < best:
                best = s
            return
        target_color = min(
            col for col, cls in classes.items() if len(cls) > 1
        )
        candidates = sorted(classes[target_color])
        step = len(seeds)
        # Orbit pruning: explore one candidate per automorphism orbit.
        reps: list[tuple[int, list[int]]] = []
        for x in candidates:
            seeded = dict(seeds)
            seeded[x] = step
            colors_x = flat.refine(seeded)
            if any(
                _has_automorphism(flat, colors_x, colors_r)
                for _r, colors_r in reps
            ):
                continue
            reps.append((x, colors_x))
        for x, _colors in reps:
            seeded = dict(seeds)
            seeded[x] = step
            rec(seeded)

    rec({})
    assert best is not None
    return best


def _mirror(t: TopologicalInvariant) -> TopologicalInvariant:
    """The same invariant with the global rotational sense reversed."""
    swap = {CW: CCW, CCW: CW}
    return TopologicalInvariant(
        names=t.names,
        vertices=t.vertices,
        edges=t.edges,
        faces=t.faces,
        exterior_face=t.exterior_face,
        labels=t.labels,
        endpoints=t.endpoints,
        incidences=t.incidences,
        orientation=frozenset(
            (swap[s], v, e1, e2) for (s, v, e1, e2) in t.orientation
        ),
    )


def canonical_form(t: TopologicalInvariant) -> tuple:
    """A complete isomorphism invariant of ``T_I``.

    Two invariants have equal canonical forms **iff** they are isomorphic
    in the sense of Theorem 3.4 (identity on region names, global CW/CCW
    flip allowed).  The result is a hashable nested tuple; it is computed
    once per invariant and memoized on the object.
    """
    cached = getattr(t, "_canonical_form_cache", None)
    if cached is not None:
        return cached
    with span("invariant.canonicalize"):
        form = min(_canonize(_Flat(t)), _canonize(_Flat(_mirror(t))))
    object.__setattr__(t, "_canonical_form_cache", form)
    return form


def canonical_hash(t: TopologicalInvariant) -> str:
    """A hex digest of :func:`canonical_form` — the bucket key used by
    the batch pipeline's equivalence grouping."""
    cached = getattr(t, "_canonical_hash_cache", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(
        repr(canonical_form(t)).encode()
    ).hexdigest()
    object.__setattr__(t, "_canonical_hash_cache", digest)
    return digest
