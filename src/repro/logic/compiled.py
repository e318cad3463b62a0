"""Compiled bitset query engine for the cell and point logics.

The reference evaluators (:mod:`repro.logic.cell_eval`,
:mod:`repro.logic.pointlogic`) interpret the formula AST directly:
region values are ``frozenset[str]`` of cell ids, every atom
re-intersects those sets, every quantifier re-enumerates its domain,
and every subformula is re-evaluated for every candidate tuple.  This
module compiles both logics down to integer machinery:

* **bitmask cell models** — the cells of a topological invariant
  ``T_I`` are numbered once and every region value becomes two Python
  ints (interior mask, closure mask).  The 4-intersection atoms reduce
  to mask AND/compare, the disc test to mask BFS, and candidate sets of
  the enumeration to hashable ints.  A grid-refined instance is first
  turned into the ``T_I`` of its refined complex, so there is one model
  constructor;
* **one enumeration per isomorphism class** — by Theorem 5.6 the
  disc-region universe is a function of ``T_I``: asked through a
  ``T_I`` it is content-addressed by ``(canonical_hash, max_faces)``,
  so all instances of a class share it.  Asked through bare geometry
  it is keyed by ``(instance_key, refinement, max_faces)``, which costs
  no canonical hash.  Both live in one
  :class:`~repro.pipeline.cache.InvariantCache`, computed once no
  matter how many queries run against them;
* **formula compilation** — each AST node becomes a Python closure;
  quantifier nodes carry a per-node memo table keyed on the bindings of
  their *free* variables (sound because evaluation is a pure function
  of the model and those bindings — see DESIGN.md).  The
  quantifier-free part of a cell-logic region quantifier's body becomes
  one *candidate bitset* over the universe's regions, built from rows
  of a per-universe transposed index (cell → regions containing it),
  and only the quantified remainder runs per candidate; the
  point/rectangle logics partition conjunctive bodies into
  quantifier-free candidate filters instead, extending the
  ``hoist_conjuncts`` idea of the point logic to candidate pruning;
* **slab tables for the point logics** — on rectilinear instances the
  region-membership atoms of FO(R, <, Region') and FO(P, <x, <y,
  Region') are constant on each cell of the grid spanned by the
  instance's breakpoints, so ``classify`` calls collapse to an
  integer-coded table lookup.

This module owns the library's public evaluators —
:func:`evaluate_cells`, :func:`evaluate_rect`, :func:`evaluate_real` and
:func:`evaluate_point` — because it imports the modules that hold the
seed interpreters.  Answers are bit-identical to those interpreters,
which stay callable by name as the test oracles
(``evaluate_*_reference``; asserted by the equivalence suite and by
``benchmarks/bench_querylogic.py`` on every figure query).

``query.*`` counters (regions enumerated, universe cache hits, memo
hits/misses, atoms evaluated, candidates pruned) form one
:class:`~repro.instrument.Counters` family, so they show up in
:func:`~repro.instrument.counter_snapshot` and on the spans of a tracer
built with ``capture_counters=True``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import QueryError
from ..geometry import Location, Point
from ..instrument import Counters, Deadline
from ..invariant import (
    TopologicalInvariant,
    canonical_hash,
    instance_key,
    invariant,
)
from ..regions import Rect, RectUnion, SpatialInstance
from ..tracing import span
from . import pointlogic as _pl
from .ast import (
    And,
    ExistsName,
    ExistsRegion,
    Ext,
    ForAllName,
    ForAllRegion,
    Formula,
    Implies,
    NameConst,
    NameEq,
    NameTerm,
    NameVar,
    Not,
    Or,
    RegionTerm,
    RegionVar,
    Rel,
    flatten_and,
)
from .cell_eval import _MATRIX_OF, grid_refined_complex
from .rect_eval import _atom_holds, breakpoints_of, instance_values

__all__ = [
    "counters",
    "CompiledRegion",
    "CompiledUniverse",
    "CompiledCellModel",
    "compiled_universe",
    "universe_cache",
    "clear_universe_cache",
    "evaluate_cells",
    "evaluate_point",
    "evaluate_real",
    "evaluate_rect",
]


# -- counters ----------------------------------------------------------------

#: The compiled engine's ``query.*`` counters:
#:
#: ``regions_enumerated``
#:     Disc regions admitted into a universe (cold enumerations only).
#: ``universe_hits`` / ``universe_misses``
#:     Content-addressed universe cache lookups.
#: ``memo_hits`` / ``memo_misses``
#:     Per-subformula memo table lookups at quantifier nodes.
#: ``atoms_evaluated``
#:     4-intersection / order / membership atoms actually computed.  In
#:     the cell logic a candidate-bitset row counts once, although it
#:     decides its atom for every region of the universe.
#: ``candidates_pruned``
#:     Quantifier candidates rejected before the quantified remainder of
#:     the body was entered: by compile-time filters in the point and
#:     rectangle logics; in the cell logic, the regions whose bit is
#:     clear in the candidate bitset of a quantifier with a quantified
#:     remainder, all counted at once.
counters = Counters(
    "query",
    (
        "regions_enumerated",
        "universe_hits",
        "universe_misses",
        "memo_hits",
        "memo_misses",
        "atoms_evaluated",
        "candidates_pruned",
    ),
)


# -- compiled region values and universes ------------------------------------


class CompiledRegion:
    """A cell region as two bitmasks plus a hashable memo identity."""

    __slots__ = ("interior", "closure", "boundary", "key")

    def __init__(self, interior: int, closure: int, key: object):
        self.interior = interior
        self.closure = closure
        self.boundary = closure & ~interior
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledRegion(key={self.key!r})"


class CompiledUniverse:
    """Everything a compiled query needs: the numbered cells, the disc
    region universe, and the named regions — all as masks."""

    __slots__ = (
        "cell_ids", "names", "regions", "named", "candidates_seen", "_by_cell"
    )

    def __init__(
        self,
        cell_ids: tuple[str, ...],
        names: tuple[str, ...],
        regions: list[CompiledRegion],
        named: dict[str, CompiledRegion],
        candidates_seen: int,
    ):
        self.cell_ids = cell_ids
        self.names = names
        self.regions = regions
        self.named = named
        self.candidates_seen = candidates_seen
        self._by_cell = None

    def by_cell(self) -> tuple[list[int], list[int], list[int]]:
        """The transposed index: for each cell, the bitsets of the
        regions whose interior, boundary and closure contain it (bit *i*
        stands for ``regions[i]``).  Built on first use and kept with
        the universe, so warm queries share it."""
        if self._by_cell is None:
            # One transpose: boundary cells ride above the interior ones.
            n = len(self.cell_ids)
            rows = _transpose(
                [r.interior | r.boundary << n for r in self.regions], 2 * n
            )
            inside, edge = rows[:n], rows[n:]
            closed = [i | b for i, b in zip(inside, edge)]
            self._by_cell = (inside, edge, closed)
        return self._by_cell


#: Regions transposed per numpy pass; bounds the unpacked bit matrix
#: at this many bytes per cell.
_TRANSPOSE_BLOCK = 4096


def _transpose(masks: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit *c* of ``masks[i]`` becomes bit *i*
    of row *c*, for *width* columns."""
    nbytes = (width + 7) // 8
    rows = [bytearray() for _ in range(width)]
    for lo in range(0, len(masks), _TRANSPOSE_BLOCK):
        block = masks[lo : lo + _TRANSPOSE_BLOCK]
        raw = np.frombuffer(
            b"".join(m.to_bytes(nbytes, "little") for m in block), np.uint8
        ).reshape(len(block), nbytes)
        bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
        # The block holds a multiple of 8 regions (or the last few), so
        # its packed bytes append to each row without a shift.
        packed = np.packbits(bits.T, axis=1, bitorder="little")
        for row, part in zip(rows, packed):
            row += part.tobytes()
    return [int.from_bytes(row, "little") for row in rows]


class CompiledCellModel:
    """A topological invariant ``T_I`` compiled to integer-indexed,
    bitmask form.

    Cells are numbered once in sorted-id order (the sorted keys of
    ``labels``); interiors, closures, boundaries, edge–face incidence,
    and vertex stars are Python ints with bit *i* standing for cell
    ``cell_ids[i]``.  Only ``names``, ``labels``, the cell sets, the
    incidences and the exterior face are read: the disc-region universe
    is a function of those, so any ``T_I`` of the same isomorphism class
    yields the same answers and the same budget refusals.  The
    connected-face-set enumeration follows the reference
    :class:`~repro.logic.cell_eval.CellModel` candidate for candidate
    (same order, same budget accounting) and decides the same disc
    test incrementally, so universes, answers and budget errors agree
    bit for bit.
    """

    def __init__(
        self,
        invariant: TopologicalInvariant,
        max_faces: int | None,
        max_regions: int,
        deadline: Deadline | None = None,
    ):
        self.invariant = invariant
        self.max_faces = max_faces
        self.max_regions = max_regions
        self.deadline = deadline
        t = invariant
        self.cell_ids: tuple[str, ...] = tuple(sorted(t.labels))
        index = {cid: i for i, cid in enumerate(self.cell_ids)}
        n = len(self.cell_ids)
        self.all_cells_mask = (1 << n) - 1

        # Faces in sorted-id order: the enumeration's anchor order.
        self.face_indices = sorted(index[f] for f in t.faces)

        up: dict[int, list[int]] = {}
        down_of_face: dict[int, int] = {fi: 0 for fi in self.face_indices}
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in t.incidences:
            ia, ib = index[a], index[b]
            up.setdefault(ia, []).append(ib)
            if ib in down_of_face:
                down_of_face[ib] |= 1 << ia
            neighbors[ia].append(ib)
            neighbors[ib].append(ia)
        self.cell_neighbors = neighbors
        # Face closure: the face bit plus everything beneath it.
        self.closure_of_face = {
            fi: (1 << fi) | mask for fi, mask in down_of_face.items()
        }

        # Edge -> mask of its (one or two) incident faces.
        self.edge_entries: list[tuple[int, int]] = []
        face_adj: dict[int, list[int]] = {fi: [] for fi in self.face_indices}
        for ie in sorted(index[e] for e in t.edges):
            fs = sorted({ib for ib in up.get(ie, ()) if ib in down_of_face})
            if fs:
                self.edge_entries.append((1 << ie, sum(1 << f for f in fs)))
            if len(fs) == 2:
                f1, f2 = fs
                face_adj[f1].append(f2)
                face_adj[f2].append(f1)
        self.face_adj = face_adj

        # Vertex -> mask of incident edges and faces (the star).
        self.vertex_entries: list[tuple[int, int]] = []
        for iv in sorted(index[v] for v in t.vertices):
            smask = 0
            for ib in up.get(iv, ()):
                smask |= 1 << ib
            if smask:
                self.vertex_entries.append((1 << iv, smask))

        self.ext_bit = 1 << index[t.exterior_face]

    # -- values --------------------------------------------------------------

    def label_masks(self) -> dict[str, CompiledRegion]:
        """``ext(name)`` for every name of the invariant, as compiled
        regions."""
        labels = self.invariant.labels
        names = self.invariant.names
        interior = [0] * len(names)
        boundary = [0] * len(names)
        for i, cid in enumerate(self.cell_ids):
            bit = 1 << i
            for pos, sign in enumerate(labels[cid]):
                if sign == "o":
                    interior[pos] |= bit
                elif sign == "b":
                    boundary[pos] |= bit
        return {
            name: CompiledRegion(
                interior[pos], interior[pos] | boundary[pos], ("ext", name)
            )
            for pos, name in enumerate(names)
        }

    # -- quantifier range ----------------------------------------------------

    def _growth_tables(self):
        """Per face *g*: the edges of *g* with the mask of their faces,
        the vertices of *g* with the mask of their star, and the faces
        adjacent to *g*; per cell, the mask of its neighbours; and the
        mask of the cells no path joins to the exterior face (none, in
        a complex of the plane).  Adding *g* to a face set can only add
        *g*, those edges and those vertices to its interior: incidence
        is closure containment, so every vertex whose star meets an
        edge of *g* has *g* in its star too."""
        edges_of: dict[int, list[tuple[int, int]]] = {
            fi: [] for fi in self.face_indices
        }
        for ebit, fmask in self.edge_entries:
            for fi in _bits_of(fmask):
                edges_of[fi].append((ebit, fmask))
        vertices_of: dict[int, list[tuple[int, int]]] = {
            fi: [] for fi in self.face_indices
        }
        for vbit, smask in self.vertex_entries:
            for ci in _bits_of(smask):
                if ci in vertices_of:
                    vertices_of[ci].append((vbit, smask))
        adjacent = {
            fi: sum(1 << g for g in set(gs)) for fi, gs in self.face_adj.items()
        }
        neighbours = [
            sum(1 << d for d in set(ns)) for ns in self.cell_neighbors
        ]
        everything = self.all_cells_mask
        reached = _flood(self.ext_bit, everything, neighbours, everything)
        return edges_of, vertices_of, adjacent, neighbours, everything & ~reached

    def enumerate_universe(self) -> tuple[list[CompiledRegion], int]:
        """Every disc cell region (as compiled regions) plus the number
        of connected face sets considered — the same canonical expansion
        and budget accounting as the reference enumeration.

        Each stack entry carries its parent's interior, and adding a
        face updates it from that face's own edges and vertices.  Every
        candidate grows by a face adjacent to one already in it, so it
        is connected through shared edges, which lie in its interior; it
        is a disc iff its closed complement is connected on the sphere,
        i.e. empty, or holding the exterior face (where the point at
        infinity attaches) and connected.  The flood fill from the
        exterior face runs over per-cell neighbour masks and stops once
        it has reached every complement cell next to the region's
        interior: each component of the complement holds such a cell,
        since a path of the connected complex joins it to the region
        (cells the exterior face cannot reach at all fail the test up
        front, as they do in the full fill).  Incidence is closure
        containment, hence transitive, so the complement cells next to
        the interior are exactly the boundary cells: the union of the
        face closures, carried on the stack, minus the interior.  That
        union is also the disc region's closure.
        """
        results: list[CompiledRegion] = []
        seen_sets: set[int] = set()
        budget = self.max_regions
        deadline = self.deadline
        max_faces = self.max_faces
        (
            edges_of, vertices_of, adjacent, neighbours, cut_off
        ) = self._growth_tables()
        closure_of_face = self.closure_of_face
        everything = self.all_cells_mask
        ext_bit = self.ext_bit
        # Check once up front so an already-expired deadline raises even
        # on universes too small to reach the 64-candidate poll below.
        if deadline is not None:
            deadline.check("universe_enumeration")
        for anchor in self.face_indices:
            # Faces numbered below the anchor are grown from their own
            # anchors (ascending index is ascending rank among faces).
            below = (1 << anchor) - 1
            # Entries: the face set, the face just added, and the
            # parent's interior, adjacent faces and face closures.
            stack = [(1 << anchor, anchor, 0, 0, 0)]
            while stack:
                current, g, interior, reach, shut = stack.pop()
                if current in seen_sets:
                    continue
                seen_sets.add(current)
                if len(seen_sets) > budget:
                    raise _over_budget(budget)
                # The time budget is polled at the same checkpoint as
                # the size budget: enumeration cannot be preempted, so
                # it cooperates.
                if deadline is not None and not len(seen_sets) % 64:
                    deadline.check("universe_enumeration")
                interior |= 1 << g
                for ebit, fmask in edges_of[g]:
                    if fmask & ~current == 0:
                        interior |= ebit
                for vbit, smask in vertices_of[g]:
                    if smask & ~interior == 0:
                        interior |= vbit
                shut |= closure_of_face[g]
                comp = everything & ~interior
                if comp == 0:
                    disc = True  # the whole plane
                elif comp & ext_bit == 0 or comp & cut_off:
                    disc = False  # part of the complement misses infinity
                else:
                    # The complement cells next to the interior are the
                    # boundary cells, closure minus interior.
                    ring = shut & comp
                    disc = _flood(ext_bit, comp, neighbours, ring) & ring == ring
                if disc:
                    results.append(
                        CompiledRegion(interior, interior | shut, len(results))
                    )
                reach |= adjacent[g]
                if max_faces is not None and current.bit_count() >= max_faces:
                    continue
                frontier = reach & ~current & ~below
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    stack.append(
                        (current | b, b.bit_length() - 1, interior, reach, shut)
                    )
        return results, len(seen_sets)


def _flood(start: int, within: int, neighbours: list[int], goal: int) -> int:
    """The cells of *within* reachable from the *start* bit through
    *within*, filled breadth first; the fill may stop once it holds
    every cell of *goal*."""
    reached = frontier = start
    while frontier and goal & ~reached:
        grown = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            grown |= neighbours[b.bit_length() - 1]
        frontier = grown & within & ~reached
        reached |= frontier
    return reached


def _bits_of(mask: int):
    """The indices of the set bits of *mask*, ascending."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


# -- the universe cache ------------------------------------------------------

_UNIVERSE_CACHE = None


def universe_cache():
    """The module-level content-addressed universe cache (a memory-only
    :class:`~repro.pipeline.cache.InvariantCache`), created lazily."""
    global _UNIVERSE_CACHE
    if _UNIVERSE_CACHE is None:
        from ..pipeline.cache import InvariantCache

        _UNIVERSE_CACHE = InvariantCache(maxsize=64)
    return _UNIVERSE_CACHE


def clear_universe_cache() -> None:
    """Drop every cached universe (tests and cold benchmarks).  The
    cache object itself survives, so references to it stay valid."""
    if _UNIVERSE_CACHE is not None:
        _UNIVERSE_CACHE.clear()


def compiled_universe(
    source,
    refinement: int = 0,
    max_faces: int | None = None,
    max_regions: int = 200_000,
    timeout: float | None = None,
    class_hash: str | None = None,
) -> CompiledUniverse:
    """The compiled disc-region universe of *source*.

    *source* is one of:

    * a :class:`~repro.regions.SpatialInstance` — the universe is keyed
      by ``(instance_key, refinement, max_faces)``; a miss builds the
      instance's ``T_I`` (refined by *refinement* grid overlays);
    * a :class:`~repro.invariant.TopologicalInvariant` — keyed by its
      isomorphism class, ``(canonical_hash, max_faces)``, so every
      ``T_I`` of one class shares one universe;
    * a zero-argument function returning the ``T_I``, with the class's
      *class_hash* passed alongside — a caller that already knows the
      class supplies the invariant only on a miss (the function is not
      called on a hit).  The hash is trusted, as ``compute_batch`` trusts
      its keys.

    Refinement overlays coordinate grids, so an invariant source at
    ``refinement >= 1`` raises :class:`~repro.errors.QueryError`.

    A cached universe still honours *max_regions*: enumeration size is
    stored with the universe and re-checked against the budget.  That
    size is fixed by the isomorphism class (each connected face set of
    at most *max_faces* faces is counted once), so a class universe
    refuses exactly when the reference evaluator would on any member.

    *timeout* bounds a cold build and enumeration in seconds
    (cooperatively, via :class:`~repro.instrument.Deadline`): past it
    the enumeration raises :class:`repro.errors.TimeoutError`.  Cache
    hits never time out — they do no enumeration.
    """
    if isinstance(source, SpatialInstance):
        key = f"geo-{instance_key(source)}-r{refinement}-mf{max_faces}"
    elif refinement:
        raise QueryError(
            "a grid refinement needs geometry: pass the instance, "
            "not its invariant"
        )
    elif isinstance(source, TopologicalInvariant):
        key = f"cls-{class_hash or canonical_hash(source)}-mf{max_faces}"
    elif class_hash is None:
        raise QueryError("an invariant-producing source needs its class_hash")
    else:
        key = f"cls-{class_hash}-mf{max_faces}"
    cache = universe_cache()
    hit = cache.get(key)
    if hit is not None:
        counters.universe_hits += 1
        if hit.candidates_seen > max_regions:
            raise _over_budget(max_regions)
        return hit
    counters.universe_misses += 1
    deadline = Deadline(timeout) if timeout is not None else None
    if not isinstance(source, SpatialInstance):
        t = source if isinstance(source, TopologicalInvariant) else source()
    elif refinement:
        t = TopologicalInvariant.from_complex(
            grid_refined_complex(source, refinement)
        )
    else:
        t = invariant(source)
    model = CompiledCellModel(t, max_faces, max_regions, deadline)
    with span("query.enumerate_universe", faces=len(model.face_indices)):
        regions, candidates_seen = model.enumerate_universe()
    counters.regions_enumerated += len(regions)
    universe = CompiledUniverse(
        model.cell_ids, t.names, regions, model.label_masks(), candidates_seen
    )
    cache.put(key, universe)
    return universe


def _over_budget(budget: int) -> QueryError:
    return QueryError(
        f"cell-region enumeration exceeded {budget} candidates; lower "
        "the refinement, set max_faces, or raise max_regions"
    )


# -- cell formula compilation ------------------------------------------------

_MISSING = object()

_CellFn = Callable[[dict, dict], bool]
_BitsFn = Callable[[dict, dict], int]


def _holds(relation: str, p: CompiledRegion, q: CompiledRegion) -> bool:
    """One atom on two compiled region values."""
    if relation == "connect":
        return p.closure & q.closure != 0
    if relation == "subset":
        return p.interior & ~q.interior == 0
    if relation == "equal":
        return p.interior == q.interior
    m0, m1, m2, m3 = _MATRIX_OF[relation]
    return (
        ((p.interior & q.interior) != 0) == m0
        and ((p.interior & q.boundary) != 0) == m1
        and ((p.boundary & q.interior) != 0) == m2
        and ((p.boundary & q.boundary) != 0) == m3
    )


def _meets(index: list[int], cells: int) -> int:
    """The regions (bitset) whose cells, as *index* transposes them,
    meet *cells*: one OR per cell of *cells*."""
    out = 0
    while cells:
        low = cells & -cells
        cells ^= low
        out |= index[low.bit_length() - 1]
    return out


_Scope = tuple[frozenset, frozenset, int]


def _scope(f: Formula, cache: dict) -> _Scope:
    """``(free region variables, free name variables, region quantifier
    depth)`` of *f*, each node computed once per *cache*.  Entries keep
    their node alive, so ids stay unique while the cache lives."""
    got = cache.get(id(f))
    if got is not None:
        return got[1]
    if isinstance(f, (Rel, NameEq)):
        out = (f.free_region_vars(), f.free_name_vars(), 0)
    elif isinstance(f, Not):
        out = _scope(f.inner, cache)
    elif isinstance(f, (ExistsRegion, ForAllRegion)):
        region_vars, name_vars, depth = _scope(f.body, cache)
        out = (region_vars - {f.variable}, name_vars, depth + 1)
    elif isinstance(f, (ExistsName, ForAllName)):
        region_vars, name_vars, depth = _scope(f.body, cache)
        out = (region_vars, name_vars - {f.variable}, depth)
    elif isinstance(f, (And, Or, Implies)):
        parts = (
            (f.antecedent, f.consequent)
            if isinstance(f, Implies)
            else f.parts
        )
        region_vars, name_vars, depth = _scope(parts[0], cache)
        for p in parts[1:]:
            more_region, more_name, more_depth = _scope(p, cache)
            region_vars = region_vars | more_region
            name_vars = name_vars | more_name
            depth = max(depth, more_depth)
        out = (region_vars, name_vars, depth)
    else:
        raise QueryError(f"cannot compile {type(f).__name__}")
    cache[id(f)] = (f, out)
    return out


def _covers(index: list[int], cells: int, everything: int) -> int:
    """The regions (bitset, within *everything*) whose cells, as *index*
    transposes them, include all of *cells*."""
    out = everything
    while cells and out:
        low = cells & -cells
        cells ^= low
        out &= index[low.bit_length() - 1]
    return out


def _conjuncts(f: Formula, positive: bool, scopes: dict) -> list[Formula]:
    """Formulas whose conjunction is *f* (¬*f* when not *positive*),
    with negation pushed through ``Not``, ``Or`` and ``Implies`` so the
    quantifier-free parts come apart from the quantified ones.

    A region quantifier that is existential here (``∃v``, or ``∀v``
    under negation) hands out the quantifier-free conjuncts of its body
    that do not mention ``v``: ``∃v. P ∧ Q(v)`` is ``P ∧ ∃v. Q(v)``, on
    an empty universe too.  So ``∀r ∀r′ (r ⊆ A ∧ r′ ⊆ A → …)`` draws
    ``r`` from the bitset of ``r ⊆ A`` instead of every region."""
    if isinstance(f, Not):
        return _conjuncts(f.inner, not positive, scopes)
    if positive and isinstance(f, And):
        return [c for p in f.parts for c in _conjuncts(p, True, scopes)]
    if not positive and isinstance(f, Or):
        return [c for p in f.parts for c in _conjuncts(p, False, scopes)]
    if not positive and isinstance(f, Implies):
        return _conjuncts(f.antecedent, True, scopes) + _conjuncts(
            f.consequent, False, scopes
        )
    if isinstance(f, ExistsRegion if positive else ForAllRegion):
        outer, kept = [], []
        for c in _conjuncts(f.body, positive, scopes):
            region_vars, _names, depth = _scope(c, scopes)
            if depth == 0 and f.variable not in region_vars:
                outer.append(c)
            else:
                kept.append(c)
        if outer and kept:
            return outer + [ExistsRegion(f.variable, _conjunction(kept))]
    return [f] if positive else [Not(f)]


def _conjunction(parts: list[Formula]) -> Formula:
    return parts[0] if len(parts) == 1 else And(*parts)


def _restore(env: dict, var: str, prev: object) -> None:
    if prev is _MISSING:
        env.pop(var, None)
    else:
        env[var] = prev


class _CellCompiler:
    """Compiles an FO(Region, Region') formula into nested closures over
    a compiled universe.  Closures take ``(renv, nenv)`` — mutable
    binding environments for region and name variables.

    A region quantifier ``∃v. φ`` splits φ into conjuncts, and
    ``∀v. φ`` splits ¬φ, looking for a counterexample.  The
    quantifier-free conjuncts compile to one *candidate bitset*: bit
    *i* is set when they hold with ``v`` bound to ``regions[i]``.  Only
    the quantified conjuncts run per candidate, over the set bits in
    ascending region order.  An atom relating ``v`` to a fixed value (a
    bound region or ``ext`` of a name) is a *row* read off the
    universe's transposed index (:meth:`CompiledUniverse.by_cell`),
    memoized in this compiler — one evaluation — by relation, side of
    ``v`` and the fixed value's key.
    """

    def __init__(self, universe: CompiledUniverse, scopes: dict):
        self.universe = universe
        self.everything = (1 << len(universe.regions)) - 1
        self._scopes = scopes
        self._rows: dict = {}

    # -- terms ---------------------------------------------------------------

    def _name_getter(self, t: NameTerm):
        if isinstance(t, NameConst):
            value = t.value
            return lambda renv, nenv: value
        if isinstance(t, NameVar):
            var = t.name

            def get(renv, nenv):
                try:
                    return nenv[var]
                except KeyError:
                    raise QueryError(
                        f"unbound name variable {var!r}"
                    ) from None

            return get
        raise QueryError(f"not a name term: {t!r}")

    def _region_getter(self, t: RegionTerm):
        if isinstance(t, RegionVar):
            var = t.name

            def get(renv, nenv):
                try:
                    return renv[var]
                except KeyError:
                    raise QueryError(
                        f"unbound region variable {var!r}"
                    ) from None

            return get
        if isinstance(t, Ext):
            name_of = self._name_getter(t.name)
            named = self.universe.named

            def get_ext(renv, nenv):
                name = name_of(renv, nenv)
                try:
                    return named[name]
                except KeyError:
                    raise QueryError(
                        f"unknown region name {name!r}"
                    ) from None

            return get_ext
        raise QueryError(f"not a region term: {t!r}")

    # -- formulas ------------------------------------------------------------

    def compile(self, f: Formula) -> _CellFn:
        if isinstance(f, NameEq):
            left = self._name_getter(f.left)
            right = self._name_getter(f.right)
            return lambda renv, nenv: left(renv, nenv) == right(renv, nenv)
        if isinstance(f, Rel):
            left = self._region_getter(f.left)
            right = self._region_getter(f.right)
            rel = f.relation
            c = counters

            def atom(renv, nenv):
                c.atoms_evaluated += 1
                return _holds(rel, left(renv, nenv), right(renv, nenv))

            return atom
        if isinstance(f, Not):
            inner = self.compile(f.inner)
            return lambda renv, nenv: not inner(renv, nenv)
        if isinstance(f, And):
            parts = [self.compile(p) for p in f.parts]
            return lambda renv, nenv: all(p(renv, nenv) for p in parts)
        if isinstance(f, Or):
            parts = [self.compile(p) for p in f.parts]
            return lambda renv, nenv: any(p(renv, nenv) for p in parts)
        if isinstance(f, Implies):
            ante = self.compile(f.antecedent)
            cons = self.compile(f.consequent)
            return lambda renv, nenv: (not ante(renv, nenv)) or cons(
                renv, nenv
            )
        if isinstance(f, (ExistsRegion, ForAllRegion)):
            return self._compile_region_quantifier(f)
        if isinstance(f, (ExistsName, ForAllName)):
            return self._compile_name_quantifier(f)
        raise QueryError(f"cannot compile {type(f).__name__}")

    def _memoized(self, f: Formula, raw: _CellFn) -> _CellFn:
        free_r, free_n, _depth = _scope(f, self._scopes)
        free_r, free_n = sorted(free_r), sorted(free_n)
        memo: dict = {}
        c = counters

        def fn(renv, nenv):
            key = (
                tuple(renv[x].key for x in free_r),
                tuple(nenv[x] for x in free_n),
            )
            hit = memo.get(key)
            if hit is not None:
                c.memo_hits += 1
                return hit
            c.memo_misses += 1
            result = raw(renv, nenv)
            memo[key] = result
            return result

        return fn

    def _compile_region_quantifier(self, f) -> _CellFn:
        want = isinstance(f, ExistsRegion)
        var = f.variable
        regions = self.universe.regions
        n = len(regions)
        everything = self.everything
        c = counters
        span_name = (
            f"query.exists_region.{var}" if want
            else f"query.forall_region.{var}"
        )
        # ∃ looks for a region satisfying the body, ∀ for one
        # satisfying its negation: either way, a conjunction.
        cheap, deep = [], []
        for p in _conjuncts(f.body, want, self._scopes):
            (deep if _scope(p, self._scopes)[2] else cheap).append(p)
        candidates = self._bits(_conjunction(cheap), var) if cheap else None
        rest = self.compile(_conjunction(deep)) if deep else None

        def raw(renv, nenv):
            # A span per (non-memoized) evaluation of this quantifier
            # node: a no-op truthiness check when tracing is off.
            with span(span_name, candidates=n):
                bits = everything if candidates is None else candidates(
                    renv, nenv
                )
                if rest is None:
                    return (bits != 0) == want
                c.candidates_pruned += n - bits.bit_count()
                prev = renv.get(var, _MISSING)
                try:
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        renv[var] = regions[low.bit_length() - 1]
                        if rest(renv, nenv):
                            return want
                    return not want
                finally:
                    _restore(renv, var, prev)

        return self._memoized(f, raw)

    def _compile_name_quantifier(self, f) -> _CellFn:
        want = isinstance(f, ExistsName)
        var = f.variable
        names = self.universe.names
        body = self.compile(f.body)
        span_name = (
            f"query.exists_name.{var}" if want
            else f"query.forall_name.{var}"
        )

        def raw(renv, nenv):
            with span(span_name, candidates=len(names)):
                prev = nenv.get(var, _MISSING)
                try:
                    for name in names:
                        nenv[var] = name
                        if body(renv, nenv) == want:
                            return want
                    return not want
                finally:
                    _restore(nenv, var, prev)

        return self._memoized(f, raw)

    # -- candidate bitsets ---------------------------------------------------

    def _bits(self, f: Formula, var: str) -> _BitsFn:
        """The candidate bitset of the quantifier-free *f* over the
        values of region variable *var*."""
        everything = self.everything
        if isinstance(f, Rel):
            on_left = f.left == RegionVar(var)
            on_right = f.right == RegionVar(var)
            if on_left and on_right:
                counters.atoms_evaluated += 1
                row = 0
                for i, r in enumerate(self.universe.regions):
                    if _holds(f.relation, r, r):
                        row |= 1 << i
                return lambda renv, nenv: row
            if on_left or on_right:
                fixed = self._region_getter(f.right if on_left else f.left)
                return self._row(f.relation, on_left, fixed)
        if isinstance(f, (Rel, NameEq)):
            holds = self.compile(f)
            return lambda renv, nenv: everything if holds(renv, nenv) else 0
        if isinstance(f, Not):
            inner = self._bits(f.inner, var)
            return lambda renv, nenv: everything ^ inner(renv, nenv)
        if isinstance(f, Implies):
            return self._bits(Or(Not(f.antecedent), f.consequent), var)
        if isinstance(f, And):
            parts = [self._bits(p, var) for p in f.parts]

            def conj(renv, nenv):
                out = everything
                for p in parts:
                    out &= p(renv, nenv)
                    if not out:
                        break
                return out

            return conj
        if isinstance(f, Or):
            parts = [self._bits(p, var) for p in f.parts]

            def disj(renv, nenv):
                out = 0
                for p in parts:
                    out |= p(renv, nenv)
                    if out == everything:
                        break
                return out

            return disj
        if isinstance(f, (ExistsName, ForAllName)):
            return self._name_bits(f, var)
        raise QueryError(f"cannot compile {type(f).__name__}")

    def _name_bits(self, f, var: str) -> _BitsFn:
        """A name quantifier inside a candidate bitset: the OR (∃) or
        AND (∀) of its body's bitsets over the instance names."""
        exists = isinstance(f, ExistsName)
        name_var = f.variable
        names = self.universe.names
        body = self._bits(f.body, var)
        everything = self.everything
        done = everything if exists else 0

        def quantified(renv, nenv):
            out = everything ^ done
            prev = nenv.get(name_var, _MISSING)
            try:
                for name in names:
                    nenv[name_var] = name
                    if exists:
                        out |= body(renv, nenv)
                    else:
                        out &= body(renv, nenv)
                    if out == done:
                        break
            finally:
                _restore(nenv, name_var, prev)
            return out

        return quantified

    def _row(self, relation: str, on_left: bool, fixed) -> _BitsFn:
        rows = self._rows

        def row(renv, nenv):
            q = fixed(renv, nenv)
            key = (relation, on_left, q.key)
            got = rows.get(key)
            if got is None:
                got = rows[key] = self._compute_row(relation, on_left, q)
            return got

        return row

    def _compute_row(
        self, relation: str, on_left: bool, q: CompiledRegion
    ) -> int:
        """Bit *i*: ``relation(regions[i], q)`` when *on_left*, else
        ``relation(q, regions[i])``."""
        counters.atoms_evaluated += 1
        inside, edge, closed = self.universe.by_cell()
        everything = self.everything
        if relation == "connect":
            return _meets(closed, q.closure)
        if relation in ("subset", "equal"):
            # v ⊆ q: no interior cell of v outside q's interior.
            outside = ((1 << len(inside)) - 1) ^ q.interior
            within = everything ^ _meets(inside, outside)
            # q ⊆ v: every interior cell of q in v's interior.
            around = _covers(inside, q.interior, everything)
            if relation == "equal":
                return within & around
            return within if on_left else around
        # The 4-intersection matrix entries, in the order of
        # _MATRIX_OF, as (index of the variable side, fixed side's cells).
        if on_left:
            tests = (
                (inside, q.interior),
                (inside, q.boundary),
                (edge, q.interior),
                (edge, q.boundary),
            )
        else:
            tests = (
                (inside, q.interior),
                (edge, q.interior),
                (inside, q.boundary),
                (edge, q.boundary),
            )
        out = everything
        for want, (index, cells) in zip(_MATRIX_OF[relation], tests):
            hit = _meets(index, cells)
            out &= hit if want else everything ^ hit
            if not out:
                break
        return out


def evaluate_cells(
    formula: Formula,
    source,
    refinement: int = 0,
    max_faces: int | None = None,
    max_regions: int = 200_000,
    timeout: float | None = None,
    class_hash: str | None = None,
) -> bool:
    """Evaluate a sentence under cell semantics.

    *source* is the instance, its invariant ``T_I``, or a function
    producing the ``T_I`` together with the class's *class_hash* (see
    :func:`compiled_universe`): by Theorem 5.6 the answer is a function
    of ``T_I``, so every instance of one isomorphism class is answered
    from one universe.  ``refinement`` controls the grid overlay level
    (finer cells let quantified regions approximate more shapes) and
    needs the instance; ``max_faces`` caps the size of quantified
    regions; ``timeout`` bounds a cold universe build, raising
    :class:`repro.errors.TimeoutError` when the budget is exceeded.
    Answers are identical to
    :func:`~repro.logic.cell_eval.evaluate_cells_reference`.
    """
    scopes: dict = {}
    free_region_vars, free_name_vars, _depth = _scope(formula, scopes)
    if free_region_vars or free_name_vars:
        raise QueryError("can only evaluate sentences")
    with span("query.evaluate_cells", refinement=refinement):
        universe = compiled_universe(
            source,
            refinement,
            max_faces,
            max_regions,
            timeout=timeout,
            class_hash=class_hash,
        )
        fn = _CellCompiler(universe, scopes).compile(formula)
        return fn({}, {})


# -- compiled point / real logics --------------------------------------------


class _PointTables:
    """Slab-indexed region membership for rectilinear instances.

    The instance's breakpoints split each axis into alternating exact
    values and open gaps; membership of a point in a region's interior
    is constant on each (x-class, y-class) cell of that grid, so each
    class is classified once (with exact geometry) and then served from
    a table.  Non-rectilinear instances fall back to direct
    classification — same answers, no table."""

    def __init__(self, instance: SpatialInstance):
        self.instance = instance
        self.rectilinear = all(
            isinstance(region, (Rect, RectUnion))
            for _name, region in instance.items()
        )
        self.base: list[Fraction] = instance_values(instance)
        self._table: dict = {}
        self._codes: dict = {}

    def _code(self, value: Fraction) -> int:
        # Candidate values recur across the whole search; caching the
        # code avoids repeated Fraction-comparison bisects.
        got = self._codes.get(value)
        if got is not None:
            return got
        base = self.base
        i = bisect_left(base, value)
        if i < len(base) and base[i] == value:
            code = 2 * i + 1  # odd: exactly the i-th breakpoint
        else:
            code = 2 * i  # even: the open gap below the i-th breakpoint
        self._codes[value] = code
        return code

    def in_interior(self, name: str, x: Fraction, y: Fraction) -> bool:
        if not self.rectilinear:
            return (
                self.instance.ext(name).classify(Point(x, y))
                is Location.INTERIOR
            )
        key = (name, self._code(x), self._code(y))
        hit = self._table.get(key)
        if hit is None:
            hit = (
                self.instance.ext(name).classify(Point(x, y))
                is Location.INTERIOR
            )
            self._table[key] = hit
        return hit


_PointFn = Callable[[dict, tuple], bool]


def _pf_quantifier_depth(f, cache: dict) -> int:
    got = cache.get(id(f))
    if got is not None:
        return got
    if isinstance(f, _pl.NotF):
        out = _pf_quantifier_depth(f.inner, cache)
    elif isinstance(f, (_pl.AndF, _pl.OrF)):
        out = max(_pf_quantifier_depth(p, cache) for p in f.parts)
    elif isinstance(f, _pl.ImpliesF):
        out = max(
            _pf_quantifier_depth(f.antecedent, cache),
            _pf_quantifier_depth(f.consequent, cache),
        )
    elif isinstance(f, _pl._QuantF):
        out = 1 + _pf_quantifier_depth(f.body, cache)
    else:
        out = 0
    cache[id(f)] = out
    return out


def _axis_range(
    values: list, env: dict, lo_keys: list, hi_keys: list
) -> tuple[int, int]:
    """The index range of candidates satisfying the extracted strict
    bounds (*values* is the sorted candidate value list; each key is an
    (outer-variable, coord-index) pair, coord None for real values)."""
    lo = None
    for nm, ci in lo_keys:
        v = env[nm] if ci is None else env[nm][ci]
        if lo is None or v > lo:
            lo = v
    hi = None
    for nm, ci in hi_keys:
        v = env[nm] if ci is None else env[nm][ci]
        if hi is None or v < hi:
            hi = v
    start = 0 if lo is None else bisect_right(values, lo)
    end = len(values) if hi is None else bisect_left(values, hi)
    return start, end


def _expanded_candidates(vals: tuple) -> list[tuple]:
    """The reference candidate list (:func:`pointlogic._candidates`,
    same values, same order) with each entry carrying its insertion
    position in *vals* and whether it is a new value — so extending the
    sorted vals tuple never needs a comparison, let alone a bisect."""
    if not vals:
        return [(Fraction(0), 0, True)]
    out = [(vals[0] - 1, 0, True)]
    n = len(vals)
    for i in range(n - 1):
        a = vals[i]
        out.append((a, i, False))
        out.append(((a + vals[i + 1]) / 2, i + 1, True))
    out.append((vals[-1], n - 1, False))
    out.append((vals[-1] + 1, n, True))
    return out


class _PointCompiler:
    """Compiles FO(R, <, Region') / FO(P, <x, <y, Region') formulas into
    closures ``(env, vals) -> bool`` over slab-indexed membership
    tables, with quantifier-node memoization and candidate pruning.

    On rectilinear instances the memo key is the *order type* of the
    configuration — the slab signature of ``vals`` against the instance
    breakpoints plus the positions of the free variables' coordinates in
    ``vals`` — rather than the exact values: evaluation is invariant
    under order isomorphisms fixing the breakpoints (the Section 5
    genericity argument), so order-isomorphic configurations share one
    memo entry.  This is what collapses the deep quantifier chains of
    the Prop. 5.7 / Thm. 5.8 translations.  Non-rectilinear instances
    fall back to exact-value keys."""

    def __init__(self, tables: _PointTables, budget: int):
        self.tables = tables
        self.budget = budget
        self._fv_cache: dict = {}
        self._qd_cache: dict = {}

    def _order_key(self, vals: tuple, coords: list) -> tuple:
        code = self.tables._code
        return (
            tuple(code(v) for v in vals),
            tuple(bisect_left(vals, c) for c in coords),
        )

    def _spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise QueryError("point/real quantifier search exceeded budget")

    def compile(self, f) -> _PointFn:
        c = counters
        tables = self.tables
        if isinstance(f, _pl.RLess):
            left, right = f.left.name, f.right.name
            return lambda env, vals: env[left] < env[right]
        if isinstance(f, _pl.RRegion):
            name, xv, yv = f.region, f.x.name, f.y.name

            def atom(env, vals):
                c.atoms_evaluated += 1
                return tables.in_interior(name, env[xv], env[yv])

            return atom
        if isinstance(f, _pl.PLessX):
            # Point values are (x, y) tuples inside the compiled
            # evaluator — cheaper to build and index than Point objects.
            left, right = f.left.name, f.right.name
            return lambda env, vals: env[left][0] < env[right][0]
        if isinstance(f, _pl.PLessY):
            left, right = f.left.name, f.right.name
            return lambda env, vals: env[left][1] < env[right][1]
        if isinstance(f, _pl.PRegion):
            name, pv = f.region, f.point.name

            def atom(env, vals):
                c.atoms_evaluated += 1
                p = env[pv]
                return tables.in_interior(name, p[0], p[1])

            return atom
        if isinstance(f, _pl.NotF):
            inner = self.compile(f.inner)
            return lambda env, vals: not inner(env, vals)
        if isinstance(f, _pl.AndF):
            parts = [self.compile(p) for p in f.parts]
            if len(parts) == 2:
                a0, a1 = parts
                return lambda env, vals: a0(env, vals) and a1(env, vals)
            if len(parts) == 3:
                a0, a1, a2 = parts
                return lambda env, vals: (
                    a0(env, vals) and a1(env, vals) and a2(env, vals)
                )
            return lambda env, vals: all(p(env, vals) for p in parts)
        if isinstance(f, _pl.OrF):
            parts = [self.compile(p) for p in f.parts]
            if len(parts) == 2:
                o0, o1 = parts
                return lambda env, vals: o0(env, vals) or o1(env, vals)
            return lambda env, vals: any(p(env, vals) for p in parts)
        if isinstance(f, _pl.ImpliesF):
            ante = self.compile(f.antecedent)
            cons = self.compile(f.consequent)
            return lambda env, vals: (not ante(env, vals)) or cons(env, vals)
        if isinstance(f, (_pl.RealExists, _pl.RealForAll)):
            return self._compile_quantifier(f, real=True)
        if isinstance(f, (_pl.PointExists, _pl.PointForAll)):
            return self._compile_quantifier(f, real=False)
        raise QueryError(f"cannot compile {type(f).__name__}")

    def _extract_bounds(self, parts: list, var: str, real: bool):
        """Pull order atoms that pin *var* against an outer variable out
        of the conjunct list: they become candidate-range bounds instead
        of per-candidate checks.  Returns (residual_parts, bounds) where
        bounds is four lists of (outer_name, coord_index) — strict lower
        and upper bounds for the x and y coordinate (real variables use
        the x slot only).  Skipping a candidate outside the bounds is
        sound: the extracted atom — a conjunct of the filter or of a
        universal implication's antecedent — is false there."""
        residual: list = []
        xlo: list = []
        xhi: list = []
        ylo: list = []
        yhi: list = []
        for p in parts:
            if real and isinstance(p, _pl.RLess):
                ln, rn = p.left.name, p.right.name
                if ln == var and rn != var:
                    xhi.append((rn, None))
                    continue
                if rn == var and ln != var:
                    xlo.append((ln, None))
                    continue
            elif not real and isinstance(p, (_pl.PLessX, _pl.PLessY)):
                ln, rn = p.left.name, p.right.name
                ci = 0 if isinstance(p, _pl.PLessX) else 1
                lo, hi = (xlo, xhi) if ci == 0 else (ylo, yhi)
                if ln == var and rn != var:
                    hi.append((rn, ci))
                    continue
                if rn == var and ln != var:
                    lo.append((ln, ci))
                    continue
            residual.append(p)
        return residual, (xlo, xhi, ylo, yhi)

    def _partition_body(self, f, want: bool, real: bool):
        """(filters, guard, rest, bounds): quantifier-free candidate
        filters for an existential conjunctive body, a vacuity guard for
        a universal implication body, extracted candidate-range bounds,
        and the compiled remainder."""
        body = f.body
        var = f.variable
        qd = self._qd_cache
        no_bounds = ([], [], [], [])
        if want:
            parts = _pl._flatten_and(body)
            if parts is not None:
                cheap = [p for p in parts if _pf_quantifier_depth(p, qd) == 0]
                deep = [p for p in parts if _pf_quantifier_depth(p, qd) > 0]
                if cheap and deep:
                    rest = self.compile(
                        deep[0] if len(deep) == 1 else _pl.AndF(*deep)
                    )
                    cheap, bounds = self._extract_bounds(cheap, var, real)
                    flt = (
                        self.compile(
                            cheap[0] if len(cheap) == 1 else _pl.AndF(*cheap)
                        )
                        if cheap
                        else None
                    )
                    return flt, None, rest, bounds
            return None, None, self.compile(body), no_bounds
        if isinstance(body, _pl.ImpliesF):
            ante = _pl._flatten_and(body.antecedent)
            if ante is None:
                ante = [body.antecedent]
            ante, bounds = self._extract_bounds(ante, var, real)
            guard = (
                self.compile(
                    ante[0] if len(ante) == 1 else _pl.AndF(*ante)
                )
                if ante
                else None
            )
            return None, guard, self.compile(body.consequent), bounds
        return None, None, self.compile(body), no_bounds

    def _compile_quantifier(self, f, real: bool) -> _PointFn:
        want = isinstance(f, (_pl.RealExists, _pl.PointExists))
        var = f.variable
        filters, guard, rest, bounds = self._partition_body(f, want, real)
        xlo_keys, xhi_keys, ylo_keys, yhi_keys = bounds
        has_bounds = bool(xlo_keys or xhi_keys or ylo_keys or yhi_keys)
        free = sorted(_pl._free_vars(f, self._fv_cache))
        rectilinear = self.tables.rectilinear
        memo: dict = {}
        c = counters

        def fn(env, vals):
            if rectilinear:
                coords: list = []
                for x in free:
                    v = env[x]
                    if isinstance(v, tuple):
                        coords.append(v[0])
                        coords.append(v[1])
                    else:
                        coords.append(v)
                key = self._order_key(vals, coords)
            else:
                key = (tuple(env[x] for x in free), vals)
            hit = memo.get(key)
            if hit is not None:
                c.memo_hits += 1
                return hit
            c.memo_misses += 1
            cands = _expanded_candidates(vals)
            self._spend(len(cands) if real else len(cands) ** 2)
            if has_bounds:
                values = [t[0] for t in cands]
                sx, ex = _axis_range(values, env, xlo_keys, xhi_keys)
                iter_x = cands[sx:ex]
                if real:
                    c.candidates_pruned += len(cands) - len(iter_x)
                else:
                    sy, ey = _axis_range(values, env, ylo_keys, yhi_keys)
                    iter_y = cands[sy:ey]
                    c.candidates_pruned += len(cands) ** 2 - len(
                        iter_x
                    ) * len(iter_y)
            else:
                iter_x = cands
                iter_y = cands
            prev = env.get(var, _MISSING)
            result = not want
            try:
                if real:
                    for v, pos, new in iter_x:
                        env[var] = v
                        vals2 = (
                            vals[:pos] + (v,) + vals[pos:] if new else vals
                        )
                        if filters is not None and not filters(env, vals2):
                            c.candidates_pruned += 1
                            continue
                        if guard is not None and not guard(env, vals2):
                            c.candidates_pruned += 1
                            continue
                        if rest(env, vals2) == want:
                            result = want
                            break
                else:
                    decided = False
                    for vx, px, newx in iter_x:
                        vals_x = (
                            vals[:px] + (vx,) + vals[px:] if newx else vals
                        )
                        for vy, py, newy in iter_y:
                            env[var] = (vx, vy)
                            if not newy or (newx and px == py):
                                vals2 = vals_x
                            else:
                                p2 = py + (1 if newx and px <= py else 0)
                                vals2 = (
                                    vals_x[:p2] + (vy,) + vals_x[p2:]
                                )
                            if filters is not None and not filters(
                                env, vals2
                            ):
                                c.candidates_pruned += 1
                                continue
                            if guard is not None and not guard(env, vals2):
                                c.candidates_pruned += 1
                                continue
                            if rest(env, vals2) == want:
                                result = want
                                decided = True
                                break
                        if decided:
                            break
            finally:
                if prev is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = prev
            memo[key] = result
            return result

        return fn


def _evaluate_pointlike(
    formula,
    instance: SpatialInstance,
    budget: int,
    env: Mapping | None = None,
    vals: Sequence[Fraction] | None = None,
) -> bool:
    """Evaluate a point/real formula.  *env* and *vals* pre-bind
    variables and breakpoints; only the Prop. 5.7 path
    (:func:`~repro.logic.pointlogic.evaluate_real_via_points`) passes
    them."""
    _pl._check_sentence(formula, env or ())
    tables = _PointTables(instance)
    compiler = _PointCompiler(tables, budget)
    fn = compiler.compile(_pl.hoist_conjuncts(formula))
    start_vals = (
        tuple(vals) if vals is not None else tuple(instance_values(instance))
    )
    # Point bindings are (x, y) tuples inside the compiled evaluator.
    start_env = {
        k: (v.x, v.y) if isinstance(v, Point) else v
        for k, v in (env or {}).items()
    }
    return fn(start_env, start_vals)


def evaluate_real(
    formula, instance: SpatialInstance, budget: int = 5_000_000
) -> bool:
    """Evaluate an FO(R, <, Region') sentence on a rectilinear instance
    — same answers as
    :func:`~repro.logic.pointlogic.evaluate_real_reference`."""
    return _evaluate_pointlike(formula, instance, budget)


def evaluate_point(
    formula, instance: SpatialInstance, budget: int = 5_000_000
) -> bool:
    """Evaluate an FO(P, <x, <y, Region') sentence likewise — same
    answers as :func:`~repro.logic.pointlogic.evaluate_point_reference`."""
    return _evaluate_pointlike(formula, instance, budget)


# -- rect logic --------------------------------------------------------------


def _rect_rect_bits(a: tuple, b: tuple) -> tuple[bool, bool, bool, bool]:
    """The 4-intersection bits of two open axis-aligned boxes, decided
    by interval arithmetic instead of the reference grid walk.  Boxes
    are (x1, y1, x2, y2) tuples with x1 < x2 and y1 < y2; boundaries are
    the closed rectangle frames."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    # interior(a) ∩ interior(b): open x and y overlap.
    ii = (
        (ax1 if ax1 > bx1 else bx1) < (ax2 if ax2 < bx2 else bx2)
        and (ay1 if ay1 > by1 else by1) < (ay2 if ay2 < by2 else by2)
    )
    # interior(a) ∩ boundary(b): an edge of b's frame meets the open box
    # a — a vertical edge needs its x strictly inside a and its closed
    # y-range to meet a's open y-range, and symmetrically.
    ib = (
        (ax1 < bx1 < ax2 or ax1 < bx2 < ax2) and by1 < ay2 and ay1 < by2
    ) or ((ay1 < by1 < ay2 or ay1 < by2 < ay2) and bx1 < ax2 and ax1 < bx2)
    bi = (
        (bx1 < ax1 < bx2 or bx1 < ax2 < bx2) and ay1 < by2 and by1 < ay2
    ) or ((by1 < ay1 < by2 or by1 < ay2 < by2) and ax1 < bx2 and bx1 < ax2)
    # boundary(a) ∩ boundary(b): some edge pair meets.  Parallel edges
    # need a shared coordinate and closed overlap on the other axis;
    # perpendicular pairs factor into independent per-axis conditions.
    bb = (
        (
            (ax1 == bx1 or ax1 == bx2 or ax2 == bx1 or ax2 == bx2)
            and ay1 <= by2
            and by1 <= ay2
        )
        or (
            (ay1 == by1 or ay1 == by2 or ay2 == by1 or ay2 == by2)
            and ax1 <= bx2
            and bx1 <= ax2
        )
        or (
            (bx1 <= ax1 <= bx2 or bx1 <= ax2 <= bx2)
            and (ay1 <= by1 <= ay2 or ay1 <= by2 <= ay2)
        )
        or (
            (ax1 <= bx1 <= ax2 or ax1 <= bx2 <= ax2)
            and (by1 <= ay1 <= by2 or by1 <= ay2 <= by2)
        )
    )
    return ii, ib, bi, bb


def _rect_rect_atom(relation: str, a: tuple, b: tuple) -> bool:
    """Decide a relation atom between two quantified boxes in O(1),
    agreeing with :func:`rect_eval._atom_holds` on Rect arguments."""
    if relation == "subset":
        # interior(a) ⊆ interior(b) for open boxes.
        return b[0] <= a[0] and a[2] <= b[2] and b[1] <= a[1] and a[3] <= b[3]
    if relation == "equal":
        return a == b
    bits = _rect_rect_bits(a, b)
    if relation == "connect":
        return bits[0] or bits[1] or bits[2] or bits[3]
    return bits == _MATRIX_OF[relation]


# Relations r REL B that confine r to B's bounding box: each implies
# interior(r) ⊆ closure(B), hence x1 ≥ bbox.xmin, x2 ≤ bbox.xmax (and
# likewise in y) — the basis of the candidate-range pruning below.
_BBOX_CONFINING = frozenset({"subset", "equal", "inside", "coveredBy"})


class _RectTables:
    """Per-instance state for the compiled rect evaluator: per-axis
    breakpoint codes (for order-type memo keys) and a cache of atoms
    involving instance regions (decided by the reference grid walk)."""

    def __init__(self, instance: SpatialInstance):
        self.instance = instance
        xs: set = set()
        ys: set = set()
        for _name, region in instance.items():
            rx, ry = breakpoints_of(region)
            xs.update(rx)
            ys.update(ry)
        self.base_x: list[Fraction] = sorted(xs)
        self.base_y: list[Fraction] = sorted(ys)
        self.rectilinear = all(
            isinstance(region, (Rect, RectUnion))
            for _name, region in instance.items()
        )
        self._codes_x: dict = {}
        self._codes_y: dict = {}
        self._atom_cache: dict = {}
        self._bbox_cache: dict = {}

    @staticmethod
    def _code_in(base: list, codes: dict, value: Fraction) -> int:
        got = codes.get(value)
        if got is not None:
            return got
        i = bisect_left(base, value)
        if i < len(base) and base[i] == value:
            code = 2 * i + 1
        else:
            code = 2 * i
        codes[value] = code
        return code

    def code_x(self, value: Fraction) -> int:
        return self._code_in(self.base_x, self._codes_x, value)

    def code_y(self, value: Fraction) -> int:
        return self._code_in(self.base_y, self._codes_y, value)

    def bbox(self, name: str):
        got = self._bbox_cache.get(name)
        if got is None:
            got = self.instance.ext(name).bbox()
            self._bbox_cache[name] = got
        return got

    def atom_ext(self, relation: str, a, b) -> bool:
        """An atom with at least one instance-region side; *a*/*b* are
        (x1, y1, x2, y2) tuples or region names."""
        key = (relation, a, b)
        hit = self._atom_cache.get(key)
        if hit is None:
            ra = (
                self.instance.ext(a)
                if isinstance(a, str)
                else Rect(a[0], a[1], a[2], a[3])
            )
            rb = (
                self.instance.ext(b)
                if isinstance(b, str)
                else Rect(b[0], b[1], b[2], b[3])
            )
            counters.atoms_evaluated += 1
            hit = _atom_holds(relation, ra, rb)
            self._atom_cache[key] = hit
        return hit


_RectFn = Callable[[dict, dict, tuple, tuple], bool]


def _pair_range(values: list, lo, hi) -> tuple[int, int]:
    """Index range of candidates inside the closed interval [lo, hi]
    (None = unbounded)."""
    start = 0 if lo is None else bisect_left(values, lo)
    end = len(values) if hi is None else bisect_right(values, hi)
    return start, end


class _RectCompiler:
    """Compiles FO(Rect, Rect–Rect*) formulas into closures
    ``(renv, nenv, xs, ys) -> bool``.  Box–box atoms collapse to O(1)
    interval arithmetic; atoms against instance regions go through a
    cached grid walk.  Quantifier nodes get order-type memoization (the
    per-axis slab signature plus the positions of free boxes' corner
    coordinates — sound by S-genericity, Section 6) and candidate-range
    pruning from bbox-confining conjuncts such as ``subset(r, A)``."""

    def __init__(self, tables: _RectTables, budget: int):
        self.tables = tables
        self.budget = budget

    def _spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise QueryError(
                "rectangle quantifier search exceeded its budget"
            )

    # -- terms ---------------------------------------------------------------

    def _name_of(self, t: NameTerm):
        if isinstance(t, NameConst):
            value = t.value
            return lambda nenv: value
        if isinstance(t, NameVar):
            var = t.name

            def get(nenv):
                try:
                    return nenv[var]
                except KeyError:
                    raise QueryError(
                        f"unbound name variable {var!r}"
                    ) from None

            return get
        raise QueryError(f"bad name term {t!r}")

    # -- formulas ------------------------------------------------------------

    def compile(self, f: Formula) -> _RectFn:
        if isinstance(f, NameEq):
            left = self._name_of(f.left)
            right = self._name_of(f.right)
            return lambda renv, nenv, xs, ys: left(nenv) == right(nenv)
        if isinstance(f, Rel):
            return self._compile_atom(f)
        if isinstance(f, Not):
            inner = self.compile(f.inner)
            return lambda renv, nenv, xs, ys: not inner(renv, nenv, xs, ys)
        if isinstance(f, And):
            parts = [self.compile(p) for p in f.parts]
            if len(parts) == 2:
                a0, a1 = parts
                return lambda renv, nenv, xs, ys: a0(
                    renv, nenv, xs, ys
                ) and a1(renv, nenv, xs, ys)
            return lambda renv, nenv, xs, ys: all(
                p(renv, nenv, xs, ys) for p in parts
            )
        if isinstance(f, Or):
            parts = [self.compile(p) for p in f.parts]
            return lambda renv, nenv, xs, ys: any(
                p(renv, nenv, xs, ys) for p in parts
            )
        if isinstance(f, Implies):
            ante = self.compile(f.antecedent)
            cons = self.compile(f.consequent)
            return lambda renv, nenv, xs, ys: (
                not ante(renv, nenv, xs, ys)
            ) or cons(renv, nenv, xs, ys)
        if isinstance(f, (ExistsRegion, ForAllRegion)):
            return self._compile_region_quantifier(f)
        if isinstance(f, (ExistsName, ForAllName)):
            return self._compile_name_quantifier(f)
        raise QueryError(f"cannot evaluate {type(f).__name__}")

    def _compile_atom(self, f: Rel) -> _RectFn:
        rel = f.relation
        tables = self.tables
        c = counters
        lv = isinstance(f.left, RegionVar)
        rv = isinstance(f.right, RegionVar)
        if lv and rv:
            ln, rn = f.left.name, f.right.name

            def atom(renv, nenv, xs, ys):
                c.atoms_evaluated += 1
                try:
                    return _rect_rect_atom(rel, renv[ln], renv[rn])
                except KeyError as exc:
                    raise QueryError(
                        f"unbound region variable {exc.args[0]!r}"
                    ) from None

            return atom

        def side(t):
            if isinstance(t, RegionVar):
                var = t.name

                def get(renv, nenv):
                    try:
                        return renv[var]
                    except KeyError:
                        raise QueryError(
                            f"unbound region variable {var!r}"
                        ) from None

                return get
            if isinstance(t, Ext):
                name_of = self._name_of(t.name)
                return lambda renv, nenv: name_of(nenv)
            raise QueryError(f"bad region term {t!r}")

        left = side(f.left)
        right = side(f.right)
        return lambda renv, nenv, xs, ys: tables.atom_ext(
            rel, left(renv, nenv), right(renv, nenv)
        )

    # -- quantifiers ---------------------------------------------------------

    def _extract_bounds(self, parts: list, var: str):
        """Pull bbox-confining conjuncts ``REL(var, B)`` out of the
        conjunct list as closed candidate-coordinate bounds.  *B* may be
        a named instance region (static bbox) or an outer box variable
        (dynamic).  The atoms stay in the residual — the bounds only
        shrink the candidate ranges; skipped candidates would fail the
        atom anyway."""
        xlo: list = []
        xhi: list = []
        ylo: list = []
        yhi: list = []
        for p in parts:
            if (
                isinstance(p, Rel)
                and p.relation in _BBOX_CONFINING
                and isinstance(p.left, RegionVar)
                and p.left.name == var
            ):
                if isinstance(p.right, Ext) and isinstance(
                    p.right.name, NameConst
                ):
                    try:
                        box = self.tables.bbox(p.right.name.value)
                    except Exception:
                        continue
                    xlo.append(box.xmin)
                    xhi.append(box.xmax)
                    ylo.append(box.ymin)
                    yhi.append(box.ymax)
                elif (
                    isinstance(p.right, RegionVar) and p.right.name != var
                ):
                    nm = p.right.name
                    xlo.append((nm, 0))
                    ylo.append((nm, 1))
                    xhi.append((nm, 2))
                    yhi.append((nm, 3))
        return (xlo, xhi, ylo, yhi)

    def _partition_body(self, f, want: bool):
        """(filters, guard, rest, bounds) — as in the point compiler:
        quantifier-free conjunct filters (Exists-And), a vacuity guard
        (ForAll-Implies), bbox candidate bounds, and the compiled
        remainder."""
        body = f.body
        var = f.variable
        no_bounds = ([], [], [], [])
        if want:
            parts = flatten_and(body)
            if parts is not None:
                cheap = [p for p in parts if p.quantifier_depth() == 0]
                deep = [p for p in parts if p.quantifier_depth() > 0]
                if cheap:
                    bounds = self._extract_bounds(cheap, var)
                    flt = self.compile(
                        cheap[0] if len(cheap) == 1 else And(*cheap)
                    )
                    rest = (
                        self.compile(
                            deep[0] if len(deep) == 1 else And(*deep)
                        )
                        if deep
                        else None
                    )
                    return flt, None, rest, bounds
            return None, None, self.compile(body), no_bounds
        if isinstance(body, Implies):
            ante = flatten_and(body.antecedent)
            if ante is None:
                ante = [body.antecedent]
            bounds = self._extract_bounds(ante, var)
            guard = self.compile(
                ante[0] if len(ante) == 1 else And(*ante)
            )
            return None, guard, self.compile(body.consequent), bounds
        return None, None, self.compile(body), no_bounds

    @staticmethod
    def _bound(env: dict, entries: list, pick_max: bool):
        best = None
        for e in entries:
            v = env[e[0]][e[1]] if isinstance(e, tuple) else e
            if best is None or (v > best if pick_max else v < best):
                best = v
        return best

    def _compile_region_quantifier(self, f) -> _RectFn:
        want = isinstance(f, ExistsRegion)
        var = f.variable
        filters, guard, rest, bounds = self._partition_body(f, want)
        xlo_e, xhi_e, ylo_e, yhi_e = bounds
        has_bounds = bool(xlo_e or xhi_e)
        free_r = sorted(f.free_region_vars())
        free_n = sorted(f.free_name_vars())
        rectilinear = self.tables.rectilinear
        code_x = self.tables.code_x
        code_y = self.tables.code_y
        memo: dict = {}
        c = counters

        def fn(renv, nenv, xs, ys):
            if rectilinear:
                key = (
                    tuple(code_x(v) for v in xs),
                    tuple(code_y(v) for v in ys),
                    tuple(
                        (
                            bisect_left(xs, renv[x][0]),
                            bisect_left(ys, renv[x][1]),
                            bisect_left(xs, renv[x][2]),
                            bisect_left(ys, renv[x][3]),
                        )
                        for x in free_r
                    ),
                    tuple(nenv[x] for x in free_n),
                )
            else:
                key = (
                    xs,
                    ys,
                    tuple(renv[x] for x in free_r),
                    tuple(nenv[x] for x in free_n),
                )
            hit = memo.get(key)
            if hit is not None:
                c.memo_hits += 1
                return hit
            c.memo_misses += 1
            cands_x = _expanded_candidates(xs)
            cands_y = _expanded_candidates(ys)
            nx = len(cands_x)
            ny = len(cands_y)
            total = (nx * (nx - 1) // 2) * (ny * (ny - 1) // 2)
            self._spend(total)
            if has_bounds:
                sx, ex = _pair_range(
                    [t[0] for t in cands_x],
                    self._bound(renv, xlo_e, True),
                    self._bound(renv, xhi_e, False),
                )
                sy, ey = _pair_range(
                    [t[0] for t in cands_y],
                    self._bound(renv, ylo_e, True),
                    self._bound(renv, yhi_e, False),
                )
                kx = ex - sx
                ky = ey - sy
                c.candidates_pruned += total - (kx * (kx - 1) // 2) * (
                    ky * (ky - 1) // 2
                )
            else:
                sx, ex = 0, nx
                sy, ey = 0, ny
            prev = renv.get(var, _MISSING)
            result = not want
            try:
                for i1 in range(sx, ex):
                    vx1, px1, nw1 = cands_x[i1]
                    for i2 in range(i1 + 1, ex):
                        vx2, px2, nw2 = cands_x[i2]
                        # Positional insertion: candidate values carry
                        # their slot in the sorted breakpoint tuple, so
                        # extending it costs no comparisons.
                        if nw1:
                            if nw2:
                                xs2 = (
                                    xs[:px1]
                                    + (vx1,)
                                    + xs[px1:px2]
                                    + (vx2,)
                                    + xs[px2:]
                                )
                            else:
                                xs2 = xs[:px1] + (vx1,) + xs[px1:]
                        elif nw2:
                            xs2 = xs[:px2] + (vx2,) + xs[px2:]
                        else:
                            xs2 = xs
                        for j1 in range(sy, ey):
                            vy1, py1, mw1 = cands_y[j1]
                            for j2 in range(j1 + 1, ey):
                                vy2, py2, mw2 = cands_y[j2]
                                if mw1:
                                    if mw2:
                                        ys2 = (
                                            ys[:py1]
                                            + (vy1,)
                                            + ys[py1:py2]
                                            + (vy2,)
                                            + ys[py2:]
                                        )
                                    else:
                                        ys2 = ys[:py1] + (vy1,) + ys[py1:]
                                elif mw2:
                                    ys2 = ys[:py2] + (vy2,) + ys[py2:]
                                else:
                                    ys2 = ys
                                renv[var] = (vx1, vy1, vx2, vy2)
                                if filters is not None and not filters(
                                    renv, nenv, xs2, ys2
                                ):
                                    c.candidates_pruned += 1
                                    continue
                                if guard is not None and not guard(
                                    renv, nenv, xs2, ys2
                                ):
                                    c.candidates_pruned += 1
                                    continue
                                if (
                                    rest is None
                                    or rest(renv, nenv, xs2, ys2) == want
                                ):
                                    result = want
                                    raise _Found
            except _Found:
                pass
            finally:
                if prev is _MISSING:
                    renv.pop(var, None)
                else:
                    renv[var] = prev
            memo[key] = result
            return result

        return fn

    def _compile_name_quantifier(self, f) -> _RectFn:
        want = isinstance(f, ExistsName)
        var = f.variable
        names = tuple(self.tables.instance.names())
        body = self.compile(f.body)

        def fn(renv, nenv, xs, ys):
            prev = nenv.get(var, _MISSING)
            try:
                for name in names:
                    nenv[var] = name
                    if body(renv, nenv, xs, ys) == want:
                        return want
                return not want
            finally:
                if prev is _MISSING:
                    nenv.pop(var, None)
                else:
                    nenv[var] = prev

        return fn


class _Found(Exception):
    """Internal: unwinds the 4-deep rectangle candidate loops."""


def evaluate_rect(
    formula: Formula,
    instance: SpatialInstance,
    max_assignments: int = 5_000_000,
) -> bool:
    """Evaluate a sentence with rectangle-ranging quantifiers.

    The instance must be rectilinear (Rect or Rect* extents).  Raises
    :class:`QueryError` if the search would exceed *max_assignments*
    candidate rectangles in total.  Same answers as
    :func:`~repro.logic.rect_eval.evaluate_rect_reference`."""
    if not formula.is_sentence():
        raise QueryError("can only evaluate sentences")
    tables = _RectTables(instance)
    compiler = _RectCompiler(tables, max_assignments)
    fn = compiler.compile(formula)
    return fn({}, {}, tuple(tables.base_x), tuple(tables.base_y))
