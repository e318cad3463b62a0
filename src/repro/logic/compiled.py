"""Compiled bitset query engine for the cell and point logics.

The reference evaluators (:mod:`repro.logic.cell_eval`,
:mod:`repro.logic.pointlogic`) interpret the formula AST directly:
region values are ``frozenset[str]`` of cell ids, every atom
re-intersects those sets, every quantifier re-enumerates its domain,
and every subformula is re-evaluated for every candidate tuple.  This
module compiles both logics down to integer machinery:

* **bitmask cell models** — the cells of a (refined) complex are
  numbered once and every region value becomes two Python ints
  (interior mask, closure mask).  The 4-intersection atoms reduce to
  mask AND/compare, the disc test to mask BFS, and candidate sets of
  the enumeration to hashable ints;
* **one enumeration per instance** — the disc-region universe is a
  pure function of ``(instance geometry, refinement, max_faces)``, so
  it is content-addressed through the pipeline's
  :class:`~repro.pipeline.cache.InvariantCache` machinery and computed
  once no matter how many queries run against the instance;
* **formula compilation** — each AST node becomes a Python closure;
  quantifier nodes carry a per-node memo table keyed on the bindings of
  their *free* variables (sound because evaluation is a pure function
  of the model and those bindings — see DESIGN.md), and conjunctive
  bodies are partitioned at compile time into quantifier-free candidate
  filters and the quantified remainder, extending the
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

from ..arrangement.soa import mask_from_bool
from ..errors import QueryError
from ..geometry import Location, Point
from ..instrument import Counters, Deadline
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
#:     4-intersection / order / membership atoms actually computed.
#: ``candidates_pruned``
#:     Quantifier candidates rejected by compile-time filters before
#:     the quantified remainder of the body was entered.
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

    __slots__ = ("cell_ids", "names", "regions", "named", "candidates_seen")

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


class CompiledCellModel:
    """A cell complex compiled to integer-indexed, bitmask form.

    Cells are numbered once in sorted-id order; interiors, closures,
    boundaries, edge–face incidence, and vertex stars are Python ints
    with bit *i* standing for cell ``cell_ids[i]``.  The disc test and
    the connected-face-set enumeration mirror the reference
    :class:`~repro.logic.cell_eval.CellModel` step for step (same
    candidate order, same budget accounting), so answers and
    budget errors agree bit for bit.
    """

    def __init__(
        self,
        complex,
        max_faces: int | None,
        max_regions: int,
        deadline: Deadline | None = None,
    ):
        self.complex = complex
        self.max_faces = max_faces
        self.max_regions = max_regions
        self.deadline = deadline
        arrays = getattr(complex, "arrays", None)
        if arrays is not None:
            self._init_from_arrays(arrays)
        else:
            self._init_from_cells(complex)

    def _init_from_arrays(self, arrays) -> None:
        """Build the bitset machinery straight from the SoA arrays.

        ``arrays.cell_ids`` is already the sorted-id numbering this
        model uses (bit *i* == ``cell_ids[i]``), so the label, closure,
        and star masks come out of grouped array scans and
        ``np.packbits`` instead of per-cell dict lookups.  The resulting
        masks are identical to :meth:`_init_from_cells` on the view
        dicts — the compiled-vs-reference equivalence suite checks the
        answers, and the construction mirrors it relation for relation.
        """
        self.cell_ids: tuple[str, ...] = arrays.cell_ids
        self._index = {cid: i for i, cid in enumerate(arrays.cell_ids)}
        n = arrays.n_cells
        self.all_cells_mask = (1 << n) - 1

        # Faces in sorted-id order: the enumeration's anchor order
        # (ascending global index == ascending id among faces).
        self.face_indices = np.sort(arrays.face_gidx).tolist()
        self.face_rank = {fi: r for r, fi in enumerate(self.face_indices)}

        inc = arrays.incidence
        dims = arrays.dims.tolist()

        # Group incidence rows by the upper cell to get each face's
        # down-set as one slice, packed into a bitset per face.
        by_upper = np.argsort(inc[:, 1], kind="stable")
        upper_sorted = inc[by_upper, 1]
        lower_sorted = inc[by_upper, 0]
        face_arr = np.asarray(self.face_indices, dtype=inc.dtype)
        flags = np.zeros(n, dtype=bool)
        down_of_face: dict[int, int] = {}
        for fi, s, e in zip(
            self.face_indices,
            np.searchsorted(upper_sorted, face_arr, side="left").tolist(),
            np.searchsorted(upper_sorted, face_arr, side="right").tolist(),
        ):
            rows = lower_sorted[s:e]
            flags[rows] = True
            down_of_face[fi] = mask_from_bool(flags)
            flags[rows] = False
        # Face closure: the face bit plus everything beneath it.
        self.closure_of_face = {
            fi: (1 << fi) | mask for fi, mask in down_of_face.items()
        }

        neighbors: list[list[int]] = [[] for _ in range(n)]
        for ia, ib in inc.tolist():
            neighbors[ia].append(ib)
            neighbors[ib].append(ia)
        self.cell_neighbors = neighbors

        # Group rows by the lower cell: each edge's faces and each
        # vertex's star come out as one slice.
        by_lower = np.argsort(inc[:, 0], kind="stable")
        low_sorted = inc[by_lower, 0]
        up_sorted = inc[by_lower, 1]

        # Edge -> mask of its (one or two) incident faces.
        self.edge_entries: list[tuple[int, int]] = []
        face_adj: dict[int, list[int]] = {fi: [] for fi in self.face_indices}
        edge_order = np.sort(arrays.edge_gidx)
        for ie, s, e in zip(
            edge_order.tolist(),
            np.searchsorted(low_sorted, edge_order, side="left").tolist(),
            np.searchsorted(low_sorted, edge_order, side="right").tolist(),
        ):
            fmask = 0
            fs = []
            for ib in up_sorted[s:e].tolist():
                if dims[ib] == 2:
                    fmask |= 1 << ib
                    fs.append(ib)
            if fmask:
                self.edge_entries.append((1 << ie, fmask))
            if len(set(fs)) == 2:
                f1, f2 = sorted(set(fs))
                face_adj[f1].append(f2)
                face_adj[f2].append(f1)
        self.face_adj = face_adj

        # Vertex -> mask of incident edges and faces (the star).
        self.vertex_entries: list[tuple[int, int]] = []
        vertex_order = np.sort(arrays.vertex_gidx)
        for iv, s, e in zip(
            vertex_order.tolist(),
            np.searchsorted(low_sorted, vertex_order, side="left").tolist(),
            np.searchsorted(low_sorted, vertex_order, side="right").tolist(),
        ):
            smask = 0
            for ib in up_sorted[s:e].tolist():
                smask |= 1 << ib
            if smask:
                self.vertex_entries.append((1 << iv, smask))

        self.ext_bit = 1 << arrays.exterior_face

    def _init_from_cells(self, cx) -> None:
        """Dict-walk construction for complexes without SoA arrays."""
        self.cell_ids: tuple[str, ...] = tuple(sorted(cx.cells))
        index = {cid: i for i, cid in enumerate(self.cell_ids)}
        self._index = index
        n = len(self.cell_ids)
        self.all_cells_mask = (1 << n) - 1

        # Faces in sorted-id order: the enumeration's anchor order.
        self.face_indices = [index[c.id] for c in cx.faces]
        self.face_indices.sort()
        face_set = set(self.face_indices)
        self.face_rank = {fi: r for r, fi in enumerate(self.face_indices)}

        up: dict[int, list[int]] = {}
        down_of_face: dict[int, int] = {fi: 0 for fi in self.face_indices}
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in cx.incidences:
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
        for e in cx.edges:
            ie = index[e.id]
            fmask = 0
            fs = []
            for ib in up.get(ie, ()):
                if ib in face_set:
                    fmask |= 1 << ib
                    fs.append(ib)
            if fmask:
                self.edge_entries.append((1 << ie, fmask))
            if len(set(fs)) == 2:
                f1, f2 = sorted(set(fs))
                face_adj[f1].append(f2)
                face_adj[f2].append(f1)
        self.face_adj = face_adj

        # Vertex -> mask of incident edges and faces (the star).
        self.vertex_entries: list[tuple[int, int]] = []
        for v in cx.vertices:
            iv = index[v.id]
            smask = 0
            for ib in up.get(iv, ()):
                smask |= 1 << ib
            if smask:
                self.vertex_entries.append((1 << iv, smask))

        self.ext_bit = 1 << index[cx.exterior_face]

    # -- values --------------------------------------------------------------

    def label_masks(self, names: tuple[str, ...]) -> dict[str, CompiledRegion]:
        """``ext(name)`` for every instance name, as compiled regions."""
        cx = self.complex
        named: dict[str, CompiledRegion] = {}
        arrays = getattr(cx, "arrays", None)
        if arrays is not None:
            # One vectorized comparison per (name, sign) over the label
            # code matrix; the packed bitsets use the same bit == cell
            # index convention as self._index.
            for pos, name in enumerate(cx.names):
                interior = arrays.label_mask(pos, "o")
                boundary = arrays.label_mask(pos, "b")
                named[name] = CompiledRegion(
                    interior, interior | boundary, ("ext", name)
                )
            return named
        for pos, name in enumerate(cx.names):
            interior = 0
            boundary = 0
            for cid, cell in cx.cells.items():
                sign = cell.label[pos]
                if sign == "o":
                    interior |= 1 << self._index[cid]
                elif sign == "b":
                    boundary |= 1 << self._index[cid]
            named[name] = CompiledRegion(
                interior, interior | boundary, ("ext", name)
            )
        return named

    def region_from_faces(self, faces_mask: int) -> tuple[int, int]:
        """(interior, closure) masks of the open region generated by the
        faces — same inclusion rules as the reference model."""
        interior = faces_mask
        for ebit, fmask in self.edge_entries:
            if fmask & ~faces_mask == 0:
                interior |= ebit
        for vbit, smask in self.vertex_entries:
            if smask & ~interior == 0:
                interior |= vbit
        closure = interior
        m = faces_mask
        closure_of_face = self.closure_of_face
        while m:
            b = m & -m
            m ^= b
            closure |= closure_of_face[b.bit_length() - 1]
        return interior, closure

    def is_disc(self, faces_mask: int) -> bool:
        """Disc test: faces connected through shared interior edges, and
        the closed complement connected on the sphere (reaching the
        point at infinity through the exterior face)."""
        if faces_mask == 0:
            return False
        interior, _closure = self.region_from_faces(faces_mask)
        # Face connectivity through shared edges (a shared edge between
        # two included faces is always in the interior).
        start = faces_mask & -faces_mask
        seen = start
        stack = [start.bit_length() - 1]
        face_adj = self.face_adj
        while stack:
            fi = stack.pop()
            for g in face_adj[fi]:
                gb = 1 << g
                if faces_mask & gb and not seen & gb:
                    seen |= gb
                    stack.append(g)
        if seen != faces_mask:
            return False
        # Complement connectivity on the sphere.
        comp = self.all_cells_mask & ~interior
        if comp == 0:
            return True  # the whole plane
        if comp & self.ext_bit == 0:
            # The complement never reaches the point at infinity.
            return False
        start_bit = self.ext_bit
        seen_c = start_bit
        stack = [start_bit.bit_length() - 1]
        neighbors = self.cell_neighbors
        while stack:
            ci = stack.pop()
            for d in neighbors[ci]:
                db = 1 << d
                if comp & db and not seen_c & db:
                    seen_c |= db
                    stack.append(d)
        return seen_c == comp

    # -- quantifier range ----------------------------------------------------

    def enumerate_universe(self) -> tuple[list[CompiledRegion], int]:
        """Every disc cell region (as compiled regions) plus the number
        of connected face sets considered — the same canonical expansion
        and budget accounting as the reference enumeration."""
        results: list[CompiledRegion] = []
        seen_sets: set[int] = set()
        budget = self.max_regions
        deadline = self.deadline
        max_faces = self.max_faces
        face_rank = self.face_rank
        face_adj = self.face_adj
        # Check once up front so an already-expired deadline raises even
        # on universes too small to reach the 64-candidate poll below.
        if deadline is not None:
            deadline.check("universe_enumeration")
        for anchor_rank, anchor in enumerate(self.face_indices):
            stack = [1 << anchor]
            while stack:
                current = stack.pop()
                if current in seen_sets:
                    continue
                seen_sets.add(current)
                if len(seen_sets) > budget:
                    raise QueryError(
                        "cell-region enumeration exceeded "
                        f"{budget} candidates; lower the refinement, "
                        "set max_faces, or raise max_regions"
                    )
                # The time budget is polled at the same checkpoint as
                # the size budget: enumeration cannot be preempted, so
                # it cooperates.
                if deadline is not None and not len(seen_sets) % 64:
                    deadline.check("universe_enumeration")
                if self.is_disc(current):
                    interior, closure = self.region_from_faces(current)
                    results.append(
                        CompiledRegion(interior, closure, len(results))
                    )
                if max_faces is not None and current.bit_count() >= max_faces:
                    continue
                frontier: set[int] = set()
                m = current
                while m:
                    b = m & -m
                    m ^= b
                    for g in face_adj[b.bit_length() - 1]:
                        if (
                            not current & (1 << g)
                            and face_rank[g] >= anchor_rank
                        ):
                            frontier.add(g)
                for g in sorted(frontier):
                    stack.append(current | (1 << g))
        return results, len(seen_sets)


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


def _universe_key(
    instance: SpatialInstance, refinement: int, max_faces: int | None
) -> str:
    from ..invariant.canonical import instance_key

    return f"{instance_key(instance)}-r{refinement}-mf{max_faces}"


def compiled_universe(
    instance: SpatialInstance,
    refinement: int = 0,
    max_faces: int | None = None,
    max_regions: int = 200_000,
    complex=None,
    timeout: float | None = None,
) -> CompiledUniverse:
    """The compiled disc-region universe of an instance.

    Content-addressed by ``(instance geometry, refinement, max_faces)``
    through the pipeline cache machinery: repeated queries against one
    instance skip planarization and enumeration entirely.  Passing an
    explicit *complex* bypasses the cache (its provenance is unknown).
    A cached universe still honours *max_regions*: enumeration size is
    stored with the universe and re-checked against the budget.

    *timeout* bounds a cold enumeration in seconds (cooperatively, via
    :class:`~repro.instrument.Deadline`): past it the enumeration raises
    :class:`repro.errors.TimeoutError`.  Cache hits never time out —
    they do no enumeration.
    """
    if complex is not None:
        model = CompiledCellModel(
            complex, max_faces, max_regions, deadline=_deadline(timeout)
        )
        return _build_universe(model, instance)
    cache = universe_cache()
    key = _universe_key(instance, refinement, max_faces)
    hit = cache.get(key)
    if hit is not None:
        counters.universe_hits += 1
        if hit.candidates_seen > max_regions:
            raise QueryError(
                "cell-region enumeration exceeded "
                f"{max_regions} candidates; lower the refinement, "
                "set max_faces, or raise max_regions"
            )
        return hit
    counters.universe_misses += 1
    cx = grid_refined_complex(instance, refinement)
    model = CompiledCellModel(
        cx, max_faces, max_regions, deadline=_deadline(timeout)
    )
    universe = _build_universe(model, instance)
    cache.put(key, universe)
    return universe


def _deadline(timeout: float | None) -> Deadline | None:
    return Deadline(timeout) if timeout is not None else None


def _build_universe(
    model: CompiledCellModel, instance: SpatialInstance
) -> CompiledUniverse:
    names = tuple(instance.names())
    with span("query.enumerate_universe", faces=len(model.face_indices)):
        regions, candidates_seen = model.enumerate_universe()
    counters.regions_enumerated += len(regions)
    return CompiledUniverse(
        model.cell_ids,
        names,
        regions,
        model.label_masks(names),
        candidates_seen,
    )


# -- cell formula compilation ------------------------------------------------

_MISSING = object()

_CellFn = Callable[[dict, dict], bool]


class _CellCompiler:
    """Compiles an FO(Region, Region') formula into nested closures over
    a compiled universe.  Closures take ``(renv, nenv)`` — mutable
    binding environments for region and name variables."""

    def __init__(self, universe: CompiledUniverse):
        self.universe = universe

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
        c = counters
        if isinstance(f, NameEq):
            left = self._name_getter(f.left)
            right = self._name_getter(f.right)
            return lambda renv, nenv: left(renv, nenv) == right(renv, nenv)
        if isinstance(f, Rel):
            left = self._region_getter(f.left)
            right = self._region_getter(f.right)
            rel = f.relation
            if rel == "connect":

                def atom(renv, nenv):
                    c.atoms_evaluated += 1
                    return (
                        left(renv, nenv).closure & right(renv, nenv).closure
                    ) != 0

                return atom
            if rel == "subset":

                def atom(renv, nenv):
                    c.atoms_evaluated += 1
                    return (
                        left(renv, nenv).interior
                        & ~right(renv, nenv).interior
                    ) == 0

                return atom
            if rel == "equal":

                def atom(renv, nenv):
                    c.atoms_evaluated += 1
                    return (
                        left(renv, nenv).interior
                        == right(renv, nenv).interior
                    )

                return atom
            m0, m1, m2, m3 = _MATRIX_OF[rel]

            def atom(renv, nenv):
                c.atoms_evaluated += 1
                p = left(renv, nenv)
                q = right(renv, nenv)
                return (
                    ((p.interior & q.interior) != 0) == m0
                    and ((p.interior & q.boundary) != 0) == m1
                    and ((p.boundary & q.interior) != 0) == m2
                    and ((p.boundary & q.boundary) != 0) == m3
                )

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

    def _partition_body(self, body: Formula):
        """Split a conjunctive body into quantifier-free candidate
        filters and the quantified remainder (compiled; None if the
        body has no quantified part).  Returns (None, compiled_body)
        when the body is not a conjunction."""
        parts = flatten_and(body)
        if parts is None:
            return None, self.compile(body)
        cheap = [p for p in parts if p.quantifier_depth() == 0]
        deep = [p for p in parts if p.quantifier_depth() > 0]
        if not cheap or not deep:
            return None, self.compile(body)
        filters = [self.compile(p) for p in cheap]
        rest = self.compile(deep[0] if len(deep) == 1 else And(*deep))
        return filters, rest

    def _memoized(self, f: Formula, raw: _CellFn) -> _CellFn:
        free_r = sorted(f.free_region_vars())
        free_n = sorted(f.free_name_vars())
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
        c = counters
        body = f.body
        span_name = (
            f"query.exists_region.{var}" if want
            else f"query.forall_region.{var}"
        )

        guard = None  # ForAll-Implies: skip candidates failing the guard
        filters = None  # Exists-And: quantifier-free candidate filters
        if want:
            filters, rest = self._partition_body(body)
        elif isinstance(body, Implies):
            guard = self.compile(body.antecedent)
            rest = self.compile(body.consequent)
        else:
            rest = self.compile(body)

        def raw(renv, nenv):
            # A span per (non-memoized) evaluation of this quantifier
            # node: a no-op truthiness check when tracing is off.
            with span(span_name, candidates=len(regions)):
                prev = renv.get(var, _MISSING)
                try:
                    for value in regions:
                        renv[var] = value
                        if filters is not None and not all(
                            g(renv, nenv) for g in filters
                        ):
                            c.candidates_pruned += 1
                            continue
                        if guard is not None and not guard(renv, nenv):
                            c.candidates_pruned += 1
                            continue
                        if rest(renv, nenv) == want:
                            return want
                    return not want
                finally:
                    if prev is _MISSING:
                        renv.pop(var, None)
                    else:
                        renv[var] = prev

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
                    if prev is _MISSING:
                        nenv.pop(var, None)
                    else:
                        nenv[var] = prev

        return self._memoized(f, raw)


def evaluate_cells(
    formula: Formula,
    instance: SpatialInstance,
    refinement: int = 0,
    max_faces: int | None = None,
    max_regions: int = 200_000,
    timeout: float | None = None,
) -> bool:
    """Evaluate a sentence under cell semantics.

    ``refinement`` controls the grid overlay level (finer cells let
    quantified regions approximate more shapes); ``max_faces`` caps the
    size of quantified regions; ``timeout`` bounds a cold universe
    enumeration, raising :class:`repro.errors.TimeoutError` when the
    budget is exceeded (see :func:`compiled_universe`).  Answers are
    identical to :func:`~repro.logic.cell_eval.evaluate_cells_reference`.
    """
    if not formula.is_sentence():
        raise QueryError("can only evaluate sentences")
    with span("query.evaluate_cells", refinement=refinement):
        universe = compiled_universe(
            instance, refinement, max_faces, max_regions, timeout=timeout
        )
        fn = _CellCompiler(universe).compile(formula)
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
