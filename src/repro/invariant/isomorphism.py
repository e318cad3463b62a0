"""Isomorphism of topological invariants.

Two invariants are isomorphic (Theorem 3.4: iff the instances are
homeomorphic) when a bijection of cells preserves dimensions, labels
(identically on region names), the exterior face, endpoints, incidences,
and the orientation relation O — where the isomorphism may *globally*
swap clockwise and counterclockwise (an orientation-reversing
homeomorphism such as a reflection).

The implementation is classical: iterated color refinement over the
incidence graph to shrink candidate sets, then backtracking search with
incremental consistency checks.  Invariants of real instances almost
always discretize after a few refinement rounds, so the search is
effectively linear; the backtracking handles the symmetric cases
(e.g. the lens of Example 3.1, which has a 4-fold symmetry).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Mapping

from ..tracing import span
from .structure import CCW, CW, TopologicalInvariant

__all__ = ["find_isomorphism", "are_isomorphic", "verify_isomorphism"]


def are_isomorphic(
    t1: TopologicalInvariant, t2: TopologicalInvariant
) -> bool:
    """True iff the invariants are isomorphic (identity on names)."""
    return find_isomorphism(t1, t2) is not None


def find_isomorphism(
    t1: TopologicalInvariant,
    t2: TopologicalInvariant,
    *,
    use_orientation: bool = True,
    use_exterior: bool = True,
) -> dict[str, str] | None:
    """An isomorphism ``cell of t1 -> cell of t2``, or ``None``.

    Tries the orientation-preserving correspondence first, then the
    orientation-reversing one (CW and CCW swapped).

    The keyword flags exist to reproduce the paper's negative results:
    ``use_orientation=False`` compares only the graphs ``G_I`` (Fig. 7
    shows such graphs can be isomorphic while the instances are not
    homeomorphic); ``use_exterior=False`` drops the exterior-face marker
    (Fig. 6 shows it is essential).
    """
    if t1.names != t2.names:
        return None
    if t1.counts() != t2.counts():
        return None
    if use_orientation and len(t1.orientation) != len(t2.orientation):
        return None
    if len(t1.incidences) != len(t2.incidences):
        return None
    flips = (False, True) if use_orientation else (False,)
    with span("invariant.isomorphism", cells=len(t1.incidences)):
        for flip in flips:
            with span("isomorphism.search", flip=flip):
                mapping = _Search(
                    t1, t2, flip,
                    use_orientation=use_orientation,
                    use_exterior=use_exterior,
                ).run()
            if mapping is not None:
                return mapping
        return None


def verify_isomorphism(
    t1: TopologicalInvariant,
    t2: TopologicalInvariant,
    mapping: Mapping[str, str],
) -> bool:
    """Independently check that *mapping* is an isomorphism.

    Used by tests and by the realization round-trip as a safety net; it
    accepts either orientation sense.
    """
    cells1 = t1.all_cells()
    if set(mapping) != set(cells1):
        return False
    if set(mapping.values()) != set(t2.all_cells()):
        return False
    for c in cells1:
        if t1.dim(c) != t2.dim(mapping[c]):
            return False
        if t1.labels[c] != t2.labels[mapping[c]]:
            return False
    if mapping[t1.exterior_face] != t2.exterior_face:
        return False
    for e in t1.edges:
        eps1 = {mapping[v] for v in t1.endpoints.get(e, ())}
        eps2 = set(t2.endpoints.get(mapping[e], ()))
        if eps1 != eps2:
            return False
    mapped_inc = {(mapping[a], mapping[b]) for (a, b) in t1.incidences}
    if mapped_inc != set(t2.incidences):
        return False
    for flip in (False, True):
        if _orientation_ok(t1, t2, mapping, flip):
            return True
    return False


def _orientation_ok(t1, t2, mapping, flip: bool) -> bool:
    swap = {CW: CCW, CCW: CW}
    mapped = {
        (swap[s] if flip else s, mapping[v], mapping[e1], mapping[e2])
        for (s, v, e1, e2) in t1.orientation
    }
    return mapped == set(t2.orientation)


class _Search:
    """Backtracking isomorphism search under a fixed orientation sense."""

    def __init__(
        self,
        t1: TopologicalInvariant,
        t2: TopologicalInvariant,
        flip: bool,
        use_orientation: bool = True,
        use_exterior: bool = True,
    ):
        self.t1, self.t2, self.flip = t1, t2, flip
        self.use_orientation = use_orientation
        self.use_exterior = use_exterior
        self.swap = {CW: CCW, CCW: CW}
        self.adj1 = _adjacency(t1)
        self.adj2 = _adjacency(t2)
        self.inc1 = t1.incidences
        self.inc2 = t2.incidences
        self.o2 = set(t2.orientation)
        # Orientation tuples indexed by each participating cell, for
        # incremental checking.
        self.o1_by_cell: dict[str, list[tuple[str, str, str, str]]] = (
            defaultdict(list)
        )
        for tup in t1.orientation:
            _s, v, e1, e2 = tup
            for c in {v, e1, e2}:
                self.o1_by_cell[c].append(tup)

    def run(self) -> dict[str, str] | None:
        colors1, colors2 = _refine_pair(
            self.t1, self.adj1, self.t2, self.adj2,
            use_exterior=self.use_exterior,
        )
        if Counter(colors1.values()) != Counter(colors2.values()):
            return None
        by_color2: dict[object, list[str]] = defaultdict(list)
        for cell, col in colors2.items():
            by_color2[col].append(cell)
        candidates = {
            c: list(by_color2[col]) for c, col in colors1.items()
        }
        order = sorted(candidates, key=lambda c: (len(candidates[c]), c))
        mapping: dict[str, str] = {}
        used: set[str] = set()
        if self._backtrack(order, 0, candidates, mapping, used):
            return mapping
        return None

    def _backtrack(self, order, i, candidates, mapping, used) -> bool:
        if i == len(order):
            if not self.use_orientation:
                return True
            return _orientation_ok(self.t1, self.t2, mapping, self.flip)
        cell = order[i]
        for target in candidates[cell]:
            if target in used:
                continue
            if not self._consistent(cell, target, mapping):
                continue
            mapping[cell] = target
            used.add(target)
            if self._backtrack(order, i + 1, candidates, mapping, used):
                return True
            del mapping[cell]
            used.discard(target)
        return False

    def _consistent(self, cell: str, target: str, mapping) -> bool:
        t1, t2 = self.t1, self.t2
        # Incidence consistency against already-assigned cells.
        for other in self.adj1[cell]:
            if other not in mapping:
                continue
            m_other = mapping[other]
            if ((cell, other) in self.inc1) != (
                (target, m_other) in self.inc2
            ):
                return False
            if ((other, cell) in self.inc1) != (
                (m_other, target) in self.inc2
            ):
                return False
        # Endpoint consistency for edges.
        if cell in t1.edges:
            eps1 = t1.endpoints.get(cell, ())
            eps2 = t2.endpoints.get(target, ())
            if len(eps1) != len(eps2):
                return False
            assigned = {mapping[v] for v in eps1 if v in mapping}
            if not assigned <= set(eps2):
                return False
        # Orientation tuples fully assigned so far must map into O2.
        if not self.use_orientation:
            return True
        for (s, v, e1, e2) in self.o1_by_cell.get(cell, ()):
            trial = dict(mapping)
            trial[cell] = target
            if v in trial and e1 in trial and e2 in trial:
                s2 = self.swap[s] if self.flip else s
                if (s2, trial[v], trial[e1], trial[e2]) not in self.o2:
                    return False
        return True


def _adjacency(t: TopologicalInvariant) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {c: set() for c in t.all_cells()}
    for a, b in t.incidences:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _initial_colors(
    t: TopologicalInvariant,
    adj: dict[str, set[str]],
    use_exterior: bool = True,
) -> dict[str, object]:
    return {
        c: (
            t.dim(c),
            t.labels[c],
            (c == t.exterior_face) if use_exterior else False,
            len(t.endpoints.get(c, ())) if c in t.edges else -1,
            len(adj[c]),
        )
        for c in t.all_cells()
    }


def _refine_pair(
    t1: TopologicalInvariant,
    adj1: dict[str, set[str]],
    t2: TopologicalInvariant,
    adj2: dict[str, set[str]],
    use_exterior: bool = True,
) -> tuple[dict[str, object], dict[str, object]]:
    """Joint iterated Weisfeiler–Leman colouring of both structures.

    A single shared palette guarantees that equal colours mean equal
    refinement history across the two invariants.
    """
    c1 = _initial_colors(t1, adj1, use_exterior)
    c2 = _initial_colors(t2, adj2, use_exterior)
    n = len(c1) + len(c2)
    for _round in range(n + 1):
        palette: dict[object, int] = {}

        def step(colors, adj):
            out = {}
            for c in sorted(colors):
                key = (
                    colors[c],
                    tuple(sorted(colors[x] for x in adj[c])),
                )
                out[c] = palette.setdefault(key, len(palette))
            return out

        n1 = step(c1, adj1)
        n2 = step(c2, adj2)
        before = len(set(c1.values()) | set(c2.values()))
        after = len(set(n1.values()) | set(n2.values()))
        stable = after == before
        c1, c2 = n1, n2
        if stable:
            break
    return c1, c2
