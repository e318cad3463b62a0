"""Order-abstraction evaluation of FO(Rect, Rect–Rect*) (Theorem 6.4).

Quantifiers over the infinite set Rect reduce to a finite search because
all queries of this language are S-generic: only the *interleaving
order* of rectangle coordinates with the instance's breakpoints matters.
A quantified rectangle can therefore be normalized so that each corner
coordinate is either an existing breakpoint or a fresh value strictly
between two consecutive breakpoints (or beyond the extremes); midpoints
realize all such choices.  Inner quantifiers see the outer choices as
additional breakpoints, completing the standard dense-order decision
procedure.  Data complexity is polynomial for a fixed query; query
complexity blows up exponentially with quantifier depth (Theorem 6.5's
PSPACE bound), which the benchmarks measure.

Atoms are decided exactly on rectilinear regions through a common
refined grid (no floating point, no geometry library at query time).

This module holds the seed interpreter :func:`evaluate_rect_reference`,
the oracle the library evaluator
:func:`repro.logic.compiled.evaluate_rect` is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import QueryError
from ..geometry import Location, Point
from ..regions import Rect, Region, SpatialInstance
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
    NameVar,
    Not,
    Or,
    RegionVar,
    Rel,
)

__all__ = [
    "evaluate_rect_reference",
    "rectilinear_relation",
    "breakpoints_of",
    "instance_values",
]


def breakpoints_of(region: Region) -> tuple[list[Fraction], list[Fraction]]:
    """The x and y breakpoints of a rectilinear region."""
    xs: set[Fraction] = set()
    ys: set[Fraction] = set()
    for seg in region.boundary_segments():
        for p in seg.endpoints():
            xs.add(p.x)
            ys.add(p.y)
    return sorted(xs), sorted(ys)


def instance_values(instance: SpatialInstance) -> list[Fraction]:
    """All breakpoints of an instance, x and y merged and sorted — the
    value universe of the point/real order abstraction (Section 5)."""
    vals: set[Fraction] = set()
    for _n, region in instance.items():
        xs, ys = breakpoints_of(region)
        vals.update(xs)
        vals.update(ys)
    return sorted(vals)


def _grid_reps(xs: list[Fraction], ys: list[Fraction]):
    """Representative points of every cell, edge and vertex of the grid
    spanned by the given coordinates, extended one unit outward."""
    gx = [xs[0] - 1, *xs, xs[-1] + 1]
    gy = [ys[0] - 1, *ys, ys[-1] + 1]
    reps: list[Point] = []
    cols: list[Fraction] = []
    for i, x in enumerate(gx):
        cols.append(x)
        if i + 1 < len(gx):
            cols.append((x + gx[i + 1]) / 2)
    rows: list[Fraction] = []
    for j, y in enumerate(gy):
        rows.append(y)
        if j + 1 < len(gy):
            rows.append((y + gy[j + 1]) / 2)
    for x in cols:
        for y in rows:
            reps.append(Point(x, y))
    return reps


def rectilinear_relation(a: Region, b: Region) -> str:
    """The Egenhofer relation between two rectilinear regions, decided on
    the common refined grid (exact, no arrangement construction)."""
    bits = _rectilinear_bits(a, b)
    from ..fourint import REALIZABLE_MATRICES

    try:
        return REALIZABLE_MATRICES[bits].value
    except KeyError:
        raise QueryError(
            f"unrealizable 4-intersection pattern {bits} between regions"
        ) from None


def _rectilinear_bits(a: Region, b: Region) -> tuple[bool, bool, bool, bool]:
    xs_a, ys_a = breakpoints_of(a)
    xs_b, ys_b = breakpoints_of(b)
    xs = sorted(set(xs_a) | set(xs_b))
    ys = sorted(set(ys_a) | set(ys_b))
    ii = ib = bi = bb = False
    for p in _grid_reps(xs, ys):
        ca = a.classify(p)
        cb = b.classify(p)
        if ca is Location.INTERIOR and cb is Location.INTERIOR:
            ii = True
        elif ca is Location.INTERIOR and cb is Location.BOUNDARY:
            ib = True
        elif ca is Location.BOUNDARY and cb is Location.INTERIOR:
            bi = True
        elif ca is Location.BOUNDARY and cb is Location.BOUNDARY:
            bb = True
    return (ii, ib, bi, bb)


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


def _atom_holds(relation: str, a: Region, b: Region) -> bool:
    if relation == "equal":
        # Fast necessary condition: equal rectilinear regions have equal
        # breakpoint sets.  Saves the grid walk on the (overwhelmingly
        # common) unequal candidates during quantifier search.
        if breakpoints_of(a) != breakpoints_of(b):
            return False
    bits = _rectilinear_bits(a, b)
    if relation == "connect":
        return any(bits)
    if relation == "subset":
        # a's interior inside b's interior: no interior cell of a may be
        # on b's boundary or exterior.
        xs_a, ys_a = breakpoints_of(a)
        xs_b, ys_b = breakpoints_of(b)
        xs = sorted(set(xs_a) | set(xs_b))
        ys = sorted(set(ys_a) | set(ys_b))
        for p in _grid_reps(xs, ys):
            if (
                a.classify(p) is Location.INTERIOR
                and b.classify(p) is not Location.INTERIOR
            ):
                return False
        return True
    return bits == _MATRIX_OF[relation]


def _candidates(values: list[Fraction]) -> list[Fraction]:
    """Existing values, midpoints of gaps, and one value beyond each end."""
    out = [values[0] - 1]
    for a, b in zip(values, values[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(values[-1])
    out.append(values[-1] + 1)
    return out


def evaluate_rect_reference(
    formula: Formula,
    instance: SpatialInstance,
    max_assignments: int = 5_000_000,
) -> bool:
    """The seed interpreter for rectangle quantifiers (reference path)."""
    if not formula.is_sentence():
        raise QueryError("can only evaluate sentences")
    xs: set[Fraction] = set()
    ys: set[Fraction] = set()
    for _name, region in instance.items():
        rx, ry = breakpoints_of(region)
        xs.update(rx)
        ys.update(ry)
    state = _EvalState(instance, max_assignments)
    return state.eval(formula, sorted(xs), sorted(ys), {}, {})


class _EvalState:
    def __init__(self, instance: SpatialInstance, max_assignments: int):
        self.instance = instance
        self.budget = max_assignments
        self._atom_cache: dict = {}

    def _spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise QueryError(
                "rectangle quantifier search exceeded its budget"
            )

    def _region_of(self, term, renv, nenv) -> Region:
        if isinstance(term, RegionVar):
            try:
                return renv[term.name]
            except KeyError:
                raise QueryError(
                    f"unbound region variable {term.name!r}"
                ) from None
        if isinstance(term, Ext):
            name = (
                term.name.value
                if isinstance(term.name, NameConst)
                else nenv[term.name.name]
            )
            return self.instance.ext(name)
        raise QueryError(f"bad region term {term!r}")

    def _atom(self, relation: str, a: Region, b: Region) -> bool:
        # Rect values hash by value; instance extents are persistent
        # objects hashed by identity — both are safe cache keys.
        key = (relation, a, b)
        cached = self._atom_cache.get(key)
        if cached is None:
            cached = _atom_holds(relation, a, b)
            self._atom_cache[key] = cached
        return cached

    def eval(self, f: Formula, xs, ys, renv, nenv) -> bool:
        if isinstance(f, NameEq):
            lv = (
                f.left.value
                if isinstance(f.left, NameConst)
                else nenv[f.left.name]
            )
            rv = (
                f.right.value
                if isinstance(f.right, NameConst)
                else nenv[f.right.name]
            )
            return lv == rv
        if isinstance(f, Rel):
            return self._atom(
                f.relation,
                self._region_of(f.left, renv, nenv),
                self._region_of(f.right, renv, nenv),
            )
        if isinstance(f, Not):
            return not self.eval(f.inner, xs, ys, renv, nenv)
        if isinstance(f, And):
            return all(self.eval(p, xs, ys, renv, nenv) for p in f.parts)
        if isinstance(f, Or):
            return any(self.eval(p, xs, ys, renv, nenv) for p in f.parts)
        if isinstance(f, Implies):
            return (
                not self.eval(f.antecedent, xs, ys, renv, nenv)
            ) or self.eval(f.consequent, xs, ys, renv, nenv)
        if isinstance(f, (ExistsRegion, ForAllRegion)):
            want = isinstance(f, ExistsRegion)
            cx = _candidates(xs)
            cy = _candidates(ys)
            count = (len(cx) * (len(cx) - 1) // 2) * (
                len(cy) * (len(cy) - 1) // 2
            )
            self._spend(count)
            for i1 in range(len(cx)):
                for i2 in range(i1 + 1, len(cx)):
                    for j1 in range(len(cy)):
                        for j2 in range(j1 + 1, len(cy)):
                            rect = Rect(cx[i1], cy[j1], cx[i2], cy[j2])
                            renv2 = dict(renv)
                            renv2[f.variable] = rect
                            xs2 = sorted(set(xs) | {cx[i1], cx[i2]})
                            ys2 = sorted(set(ys) | {cy[j1], cy[j2]})
                            result = self.eval(
                                f.body, xs2, ys2, renv2, nenv
                            )
                            if result == want:
                                return want
            return not want
        if isinstance(f, (ExistsName, ForAllName)):
            want = isinstance(f, ExistsName)
            for name in self.instance.names():
                nenv2 = dict(nenv)
                nenv2[f.variable] = name
                if self.eval(f.body, xs, ys, renv, nenv2) == want:
                    return want
            return not want
        raise QueryError(f"cannot evaluate {type(f).__name__}")
