"""Cell semantics for FO(Region, Region') — the paper's Section 7
tractable language.

Quantified region variables range over *cell regions*: open,
disc-homeomorphic unions of cells of the instance's arrangement,
optionally refined by a grid overlay.  This is exactly the language the
paper's conclusion proposes ("a stronger quantifier ranges over all
possible unions of cells that are disc homeomorphs"); with it, the
separating queries of Examples 4.1 and 4.2 are decidable, while the
*unrestricted* languages of Section 4 are undecidable (Theorem 6.1) and
cannot have a complete evaluator at all.

Every atom is decided combinatorially: a cell region's interior is a set
of cells, its boundary another, and the 4-intersection matrix of two
values is read off set intersections — no geometry at query time.

Evaluation cost grows exponentially with region quantifier depth (the
paper's PSPACE query complexity); the ``max_faces`` cap bounds the size
of quantified regions and a ``QueryError`` reports when the enumeration
budget is exhausted rather than silently truncating.

This module holds the model (grid refinement, disc-region enumeration)
and the seed interpreter :func:`evaluate_cells_reference`, the oracle
the library evaluator :func:`repro.logic.compiled.evaluate_cells` is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..arrangement import Subdivision, compute_labels, planarize
from ..arrangement.complex import CellComplex, _reduce
from ..errors import QueryError
from ..geometry import Point, Segment
from ..regions import SpatialInstance
from .ast import (
    And,
    Ext,
    ExistsName,
    ExistsRegion,
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
)

__all__ = [
    "CellModel",
    "CellRegionValue",
    "evaluate_cells_reference",
    "grid_refined_complex",
    "coarse_grid_complex",
]


def grid_refined_complex(
    instance: SpatialInstance, levels: int = 0
) -> CellComplex:
    """The instance's cell complex, refined by *levels* grid overlays.

    Each overlay adds horizontal and vertical lines through every
    arrangement breakpoint and through the midpoints between consecutive
    breakpoints, splitting large faces (in particular the exterior) into
    many cells so that quantified regions have room to maneuver.
    """
    segments: list[Segment] = []
    for _name, region in instance.items():
        segments.extend(region.boundary_segments())
    for _ in range(levels):
        xs = sorted({p.x for s in segments for p in s.endpoints()})
        ys = sorted({p.y for s in segments for p in s.endpoints()})
        xs = _with_midpoints_and_margins(xs)
        ys = _with_midpoints_and_margins(ys)
        x_lo, x_hi = xs[0], xs[-1]
        y_lo, y_hi = ys[0], ys[-1]
        grid = [Segment(Point(x, y_lo), Point(x, y_hi)) for x in xs]
        grid += [Segment(Point(x_lo, y), Point(x_hi, y)) for y in ys]
        segments = planarize(segments + grid)
    # The loop leaves an already-planar segment set; only the
    # unrefined case still needs the pass.
    pieces = segments if levels else planarize(segments)
    sub = Subdivision(pieces)
    labels = compute_labels(instance, sub)
    return _reduce(sub, labels)


def _with_midpoints_and_margins(values):
    out = []
    for a, b in zip(values, values[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(values[-1])
    return [values[0] - 1, *out, values[-1] + 1]


def coarse_grid_complex(
    instance: SpatialInstance, lines: int | None = None
) -> CellComplex:
    """The instance's complex overlaid with an adaptive coarse grid.

    Unlike :func:`grid_refined_complex` (which refines at *every*
    breakpoint), this adds one line through the midpoint of every gap
    between consecutive breakpoints plus a surrounding band — adapted to
    the instance's features (dense where they are, absent elsewhere), so
    the exterior splits into enough faces for path witnesses without a
    combinatorial explosion.  Passing ``lines`` switches to that many
    uniformly spaced lines instead.
    """
    from fractions import Fraction

    segments: list[Segment] = []
    for _name, region in instance.items():
        segments.extend(region.boundary_segments())
    xs = sorted({p.x for s in segments for p in s.endpoints()})
    ys = sorted({p.y for s in segments for p in s.endpoints()})
    x_lo, x_hi = xs[0] - 2, xs[-1] + 2
    y_lo, y_hi = ys[0] - 2, ys[-1] + 2
    if lines is None:
        grid_x = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        grid_y = [(a + b) / 2 for a, b in zip(ys, ys[1:])]
    else:
        grid_x = [
            x_lo + (x_hi - x_lo) * Fraction(k, lines + 1)
            for k in range(1, lines + 1)
        ]
        grid_y = [
            y_lo + (y_hi - y_lo) * Fraction(k, lines + 1)
            for k in range(1, lines + 1)
        ]
    # A closed band around everything so paths can go around the outside.
    grid_x += [x_lo, x_hi]
    grid_y += [y_lo, y_hi]
    outer_x = (x_lo - 1, x_hi + 1)
    outer_y = (y_lo - 1, y_hi + 1)
    grid: list[Segment] = []
    for x in sorted(set(grid_x)):
        grid.append(Segment(Point(x, outer_y[0]), Point(x, outer_y[1])))
    for y in sorted(set(grid_y)):
        grid.append(Segment(Point(outer_x[0], y), Point(outer_x[1], y)))
    pieces = planarize(segments + grid)
    sub = Subdivision(pieces)
    labels = compute_labels(instance, sub)
    return _reduce(sub, labels)


@dataclass(frozen=True)
class CellRegionValue:
    """A region value under cell semantics.

    ``interior`` is the set of cells forming the open set; ``closure``
    adds the incident lower-dimensional cells; ``boundary`` is their
    difference.
    """

    interior: frozenset[str]
    closure: frozenset[str]

    @property
    def boundary(self) -> frozenset[str]:
        return self.closure - self.interior


class CellModel:
    """Evaluation context: a (refined) cell complex plus enumeration."""

    def __init__(
        self,
        instance: SpatialInstance,
        refinement: int = 0,
        max_faces: int | None = None,
        max_regions: int = 200_000,
        complex: CellComplex | None = None,
    ):
        self.instance = instance
        self.complex = complex or grid_refined_complex(instance, refinement)
        self.max_faces = max_faces
        self.max_regions = max_regions
        cx = self.complex
        self._faces = sorted(c.id for c in cx.faces)
        self._down: dict[str, set[str]] = {f: set() for f in self._faces}
        self._up: dict[str, set[str]] = {}
        for (a, b) in cx.incidences:
            self._up.setdefault(a, set()).add(b)
            if b in self._down:
                self._down[b].add(a)
        # Edge -> its (one or two) faces; vertex -> incident edges/faces.
        self._edge_faces: dict[str, frozenset[str]] = {
            e.id: frozenset(
                x for x in self._up.get(e.id, ()) if x in self._down
            )
            for e in cx.edges
        }
        self._vertex_star: dict[str, frozenset[str]] = {
            v.id: frozenset(self._up.get(v.id, ()))
            for v in cx.vertices
        }
        self._face_adj: dict[str, set[tuple[str, str]]] = {}
        for e, faces in self._edge_faces.items():
            fs = sorted(faces)
            if len(fs) == 2:
                self._face_adj.setdefault(fs[0], set()).add((e, fs[1]))
                self._face_adj.setdefault(fs[1], set()).add((e, fs[0]))
        self._named: dict[str, CellRegionValue] = {}
        self._all_regions_cache: list[CellRegionValue] | None = None

    # -- values ------------------------------------------------------------------

    def named_region(self, name: str) -> CellRegionValue:
        """``ext(name)`` as a cell region value."""
        if name not in self._named:
            cx = self.complex
            idx = cx.names.index(name)
            interior = frozenset(
                cid for cid, cell in cx.cells.items()
                if cell.label[idx] == "o"
            )
            boundary = frozenset(
                cid for cid, cell in cx.cells.items()
                if cell.label[idx] == "b"
            )
            self._named[name] = CellRegionValue(
                interior, interior | boundary
            )
        return self._named[name]

    def region_from_faces(self, faces: frozenset[str]) -> CellRegionValue:
        """The open cell region generated by a set of faces."""
        interior = set(faces)
        for e, fs in self._edge_faces.items():
            if fs and fs <= faces:
                interior.add(e)
        for v, star in self._vertex_star.items():
            if star and star <= interior:
                interior.add(v)
        closure = set(interior)
        for f in faces:
            closure |= self._down[f]
        for c in list(closure):
            closure |= self._down.get(c, set())
        return CellRegionValue(frozenset(interior), frozenset(closure))

    def is_disc(self, faces: frozenset[str]) -> bool:
        """Is the open region generated by *faces* a disc homeomorph?

        Connected through shared included edges, and simply connected
        (the closed complement on the sphere is connected).
        """
        if not faces:
            return False
        value = self.region_from_faces(faces)
        # Connectivity of faces through interior edges.
        start = next(iter(faces))
        seen = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            for (e, g) in self._face_adj.get(f, ()):
                if g in faces and e in value.interior and g not in seen:
                    seen.add(g)
                    stack.append(g)
        if len(seen) != len(faces):
            return False
        # Complement connectivity on the sphere.
        cx = self.complex
        complement = [
            c for c in cx.cells if c not in value.interior
        ]
        nodes = set(complement)
        ext = cx.exterior_face
        has_inf = True  # the point at infinity
        adj: dict[str, set[str]] = {c: set() for c in nodes}
        for (a, b) in cx.incidences:
            if a in nodes and b in nodes:
                adj[a].add(b)
                adj[b].add(a)
        total = len(nodes) + (1 if has_inf else 0)
        if not nodes:
            return True  # the whole plane
        if ext in nodes:
            start_c = ext
            inf_reached = True
        else:
            start_c = sorted(nodes)[0]
            inf_reached = False
        seen_c = {start_c}
        stack = [start_c]
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if d not in seen_c:
                    seen_c.add(d)
                    stack.append(d)
        if ext in seen_c:
            inf_reached = True
        return len(seen_c) == len(nodes) and inf_reached

    # -- quantifier range -----------------------------------------------------------

    def all_disc_regions(self) -> list[CellRegionValue]:
        """Every disc cell region (subject to the ``max_faces`` cap).

        Enumerates connected face sets by canonical expansion, filters by
        the disc test.  Raises :class:`QueryError` when the enumeration
        exceeds ``max_regions`` — a loud cap, never a silent truncation.
        """
        if self._all_regions_cache is not None:
            return self._all_regions_cache
        results: list[CellRegionValue] = []
        face_list = self._faces
        index = {f: i for i, f in enumerate(face_list)}
        budget = self.max_regions

        def neighbours(f: str) -> list[str]:
            return [g for (_e, g) in self._face_adj.get(f, ())]

        # Connected-subset enumeration: grow from each anchor face, only
        # adding faces with index >= anchor to avoid duplicates.
        seen_sets: set[frozenset[str]] = set()
        for anchor in face_list:
            stack: list[frozenset[str]] = [frozenset((anchor,))]
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
                if self.is_disc(current):
                    results.append(self.region_from_faces(current))
                if self.max_faces is not None and len(current) >= self.max_faces:
                    continue
                frontier = {
                    g
                    for f in current
                    for g in neighbours(f)
                    if g not in current and index[g] >= index[anchor]
                }
                for g in sorted(frontier):
                    stack.append(current | {g})
        self._all_regions_cache = results
        return results


# -- atom semantics ---------------------------------------------------------------


def _bits(
    p: CellRegionValue, q: CellRegionValue
) -> tuple[bool, bool, bool, bool]:
    return (
        bool(p.interior & q.interior),
        bool(p.interior & q.boundary),
        bool(p.boundary & q.interior),
        bool(p.boundary & q.boundary),
    )


_MATRIX_OF = {
    "disjoint": (False, False, False, False),
    "meet": (False, False, False, True),
    "overlap": (True, True, True, True),
    "equal": (True, False, False, True),
    "inside": (True, False, True, False),
    "contains": (True, True, False, False),
    "coveredBy": (True, False, True, True),
    "covers": (True, True, False, True),
}


def _atom_holds(
    relation: str, p: CellRegionValue, q: CellRegionValue
) -> bool:
    if relation == "connect":
        return bool(p.closure & q.closure)
    if relation == "subset":
        return p.interior <= q.interior
    if relation == "equal":
        return p.interior == q.interior
    return _bits(p, q) == _MATRIX_OF[relation]


# -- the evaluator ------------------------------------------------------------------


def evaluate_cells_reference(
    formula: Formula,
    instance: SpatialInstance,
    refinement: int = 0,
    max_faces: int | None = None,
    max_regions: int = 200_000,
) -> bool:
    """The seed evaluator: direct AST interpretation over frozensets.

    Kept verbatim as the semantic baseline the compiled engine is
    asserted against (bit-identical answers on every figure query)."""
    if not formula.is_sentence():
        raise QueryError("can only evaluate sentences")
    model = CellModel(instance, refinement, max_faces, max_regions)
    return _eval(formula, model, {}, {})


def _region_value(
    term: RegionTerm,
    model: CellModel,
    region_env: Mapping[str, CellRegionValue],
    name_env: Mapping[str, str],
) -> CellRegionValue:
    if isinstance(term, RegionVar):
        try:
            return region_env[term.name]
        except KeyError:
            raise QueryError(f"unbound region variable {term.name!r}") from None
    if isinstance(term, Ext):
        return model.named_region(_name_value(term.name, name_env))
    raise QueryError(f"not a region term: {term!r}")


def _name_value(term: NameTerm, name_env: Mapping[str, str]) -> str:
    if isinstance(term, NameConst):
        return term.value
    if isinstance(term, NameVar):
        try:
            return name_env[term.name]
        except KeyError:
            raise QueryError(f"unbound name variable {term.name!r}") from None
    raise QueryError(f"not a name term: {term!r}")


def _eval(f: Formula, model: CellModel, renv: dict, nenv: dict) -> bool:
    if isinstance(f, NameEq):
        return _name_value(f.left, nenv) == _name_value(f.right, nenv)
    if isinstance(f, Rel):
        return _atom_holds(
            f.relation,
            _region_value(f.left, model, renv, nenv),
            _region_value(f.right, model, renv, nenv),
        )
    if isinstance(f, Not):
        return not _eval(f.inner, model, renv, nenv)
    if isinstance(f, And):
        return all(_eval(p, model, renv, nenv) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(p, model, renv, nenv) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval(f.antecedent, model, renv, nenv)) or _eval(
            f.consequent, model, renv, nenv
        )
    if isinstance(f, ExistsRegion):
        for value in model.all_disc_regions():
            renv2 = dict(renv)
            renv2[f.variable] = value
            if _eval(f.body, model, renv2, nenv):
                return True
        return False
    if isinstance(f, ForAllRegion):
        for value in model.all_disc_regions():
            renv2 = dict(renv)
            renv2[f.variable] = value
            if not _eval(f.body, model, renv2, nenv):
                return False
        return True
    if isinstance(f, ExistsName):
        for name in model.instance.names():
            nenv2 = dict(nenv)
            nenv2[f.variable] = name
            if _eval(f.body, model, renv, nenv2):
                return True
        return False
    if isinstance(f, ForAllName):
        for name in model.instance.names():
            nenv2 = dict(nenv)
            nenv2[f.variable] = name
            if not _eval(f.body, model, renv, nenv2):
                return False
        return True
    raise QueryError(f"cannot evaluate {type(f).__name__}")
