"""The topological invariant ``T_I = (V, E, delta, f0, l, O)``.

A :class:`TopologicalInvariant` is a plain finite first-order structure:
cells with dimensions, sign labels over the (sorted) region names, the
incidence relation E (cell contained in the closure of another cell), the
distinguished exterior face ``f0``, the endpoint relation for edges, and
the orientation relation O with clockwise/counterclockwise consecutive
edge pairs around each vertex.  No geometry — by Theorem 3.4 of the paper
this structure characterizes the instance up to homeomorphism.

Its data lives in one integer core, a
:class:`~repro.arrangement.soa.CellArrays`, which the canonical hash
and the store's record codec read.  An invariant built from a complex
or decoded from a record holds only the core, and its string-id
relations are views made on first read; one built from relations makes
its core on first need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..arrangement.soa import SENSE_CCW, SENSE_CW, CellArrays, label_rows
from ..errors import InvariantError

__all__ = ["TopologicalInvariant", "CW", "CCW"]

CW = "cw"
CCW = "ccw"

Label = tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TopologicalInvariant:
    """The paper's invariant as an immutable relational structure.

    All relations use opaque string cell ids (they are views of
    :attr:`core` when the invariant was built from arrays, see
    :meth:`of_arrays`), so ``==`` and ``hash()``
    are defined through the *canonical form* (see
    :mod:`repro.invariant.canonical`): two invariants are equal iff they
    are isomorphic in the sense of Theorem 3.4, which makes invariants
    usable as cache keys and set members.  Witness mappings still come
    from :func:`repro.invariant.isomorphism.find_isomorphism`.
    """

    names: tuple[str, ...]
    vertices: frozenset[str]
    edges: frozenset[str]
    faces: frozenset[str]
    exterior_face: str
    labels: Mapping[str, Label]
    endpoints: Mapping[str, tuple[str, ...]]
    incidences: frozenset[tuple[str, str]]
    orientation: frozenset[tuple[str, str, str, str]]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "endpoints", dict(self.endpoints))
        if self.exterior_face not in self.faces:
            raise InvariantError("exterior face is not a face")
        if tuple(sorted(self.names)) != self.names:
            raise InvariantError("names must be sorted")

    # -- construction -----------------------------------------------------------

    @staticmethod
    def from_complex(cx) -> "TopologicalInvariant":
        """Extract the abstract invariant from a geometric cell complex."""
        return TopologicalInvariant.of_arrays(cx.arrays.core)

    @staticmethod
    def of_arrays(core: CellArrays) -> "TopologicalInvariant":
        """The invariant whose integer core is *core*; its relations are
        views of the core, made on first read."""
        if core.dims[core.exterior] != 2:
            raise InvariantError("exterior face is not a face")
        if tuple(sorted(core.names)) != core.names:
            raise InvariantError("names must be sorted")
        t = object.__new__(TopologicalInvariant)
        object.__setattr__(t, "names", core.names)
        object.__setattr__(t, "core", core)
        return t

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet: the relations of an
        # invariant built from arrays, all made on the first read of one,
        # and the core of one built from relations.  Each is kept.
        state = self.__dict__
        if name in _RELATIONS and "core" in state:
            state.update(state["core"].relations())
            return state[name]
        if name == "core" and "vertices" in state:
            state["core"] = _core_of_relations(self)
            return state["core"]
        raise AttributeError(name)

    def __reduce__(self):
        # Pickled (across the process pool, say) as its core alone.
        return (TopologicalInvariant.of_arrays, (self.core,))

    # -- accessors -----------------------------------------------------------------

    def all_cells(self) -> frozenset[str]:
        return self.vertices | self.edges | self.faces

    def dim(self, cell: str) -> int:
        if cell in self.vertices:
            return 0
        if cell in self.edges:
            return 1
        if cell in self.faces:
            return 2
        raise InvariantError(f"unknown cell {cell!r}")

    def counts(self) -> tuple[int, int, int]:
        if "vertices" in self.__dict__:
            return (len(self.vertices), len(self.edges), len(self.faces))
        return self.core.counts()

    def label(self, cell: str) -> Label:
        return self.labels[cell]

    def edges_of_face(self, face: str) -> frozenset[str]:
        return frozenset(
            a for (a, b) in self.incidences if b == face and a in self.edges
        )

    def faces_of_edge(self, edge: str) -> frozenset[str]:
        return frozenset(
            b for (a, b) in self.incidences if a == edge and b in self.faces
        )

    def edges_at_vertex(self, vertex: str) -> frozenset[str]:
        return frozenset(
            b for (a, b) in self.incidences if a == vertex and b in self.edges
        )

    def germ_count(self, vertex: str, edge: str) -> int:
        """How many germs of *edge* emanate from *vertex* (2 for a loop)."""
        eps = self.endpoints.get(edge, ())
        if vertex not in eps:
            return 0
        return 2 if len(eps) == 1 else 1

    def vertex_degree(self, vertex: str) -> int:
        """Total germ count at the vertex."""
        return sum(
            self.germ_count(vertex, e) for e in self.edges_at_vertex(vertex)
        )

    def free_loops(self) -> frozenset[str]:
        """Edges with no endpoints (isolated closed boundary curves)."""
        return frozenset(
            e for e in self.edges if not self.endpoints.get(e, ())
        )

    def region_faces(self, name: str) -> frozenset[str]:
        """Faces whose label is interior ('o') for *name*."""
        i = self.names.index(name)
        return frozenset(f for f in self.faces if self.labels[f][i] == "o")

    def orientation_at(
        self, vertex: str, sense: str
    ) -> frozenset[tuple[str, str]]:
        """The consecutive edge pairs around *vertex* in the given sense."""
        return frozenset(
            (e1, e2)
            for (s, v, e1, e2) in self.orientation
            if v == vertex and s == sense
        )

    # -- skeleton ---------------------------------------------------------------------

    def skeleton_components(self) -> list[frozenset[str]]:
        """Connected components of the skeleton (vertices and edges only).

        Each free loop forms its own singleton component.  The instance is
        *connected* in the paper's sense iff there is exactly one
        component.
        """
        adjacency: dict[str, set[str]] = {
            c: set() for c in self.vertices | self.edges
        }
        for e in self.edges:
            for v in self.endpoints.get(e, ()):
                adjacency[e].add(v)
                adjacency[v].add(e)
        seen: set[str] = set()
        components: list[frozenset[str]] = []
        for start in sorted(adjacency):
            if start in seen:
                continue
            stack = [start]
            comp: set[str] = set()
            while stack:
                c = stack.pop()
                if c in comp:
                    continue
                comp.add(c)
                stack.extend(adjacency[c] - comp)
            seen |= comp
            components.append(frozenset(comp))
        return components

    def is_connected(self) -> bool:
        """The paper's connectedness: the skeleton is one piece."""
        return len(self.skeleton_components()) <= 1

    def relabeled(self, mapping: Mapping[str, str]) -> "TopologicalInvariant":
        """A copy with every cell id replaced through *mapping*.

        Useful in tests: a relabeled invariant must stay isomorphic to the
        original.
        """

        def m(c: str) -> str:
            return mapping.get(c, c)

        return TopologicalInvariant(
            names=self.names,
            vertices=frozenset(m(v) for v in self.vertices),
            edges=frozenset(m(e) for e in self.edges),
            faces=frozenset(m(f) for f in self.faces),
            exterior_face=m(self.exterior_face),
            labels={m(c): lab for c, lab in self.labels.items()},
            endpoints={
                m(e): tuple(sorted(m(v) for v in vs))
                for e, vs in self.endpoints.items()
            },
            incidences=frozenset(
                (m(a), m(b)) for (a, b) in self.incidences
            ),
            orientation=frozenset(
                (s, m(v), m(e1), m(e2))
                for (s, v, e1, e2) in self.orientation
            ),
        )

    # -- equality and hashing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality is isomorphism (identity on names, global flip
        allowed) — decided by comparing canonical forms."""
        if other is self:
            return True
        if not isinstance(other, TopologicalInvariant):
            return NotImplemented
        from .canonical import canonical_form

        return canonical_form(self) == canonical_form(other)

    def __hash__(self) -> int:
        from .canonical import canonical_form

        return hash(canonical_form(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        v, e, f = self.counts()
        return (
            f"TopologicalInvariant(names={self.names}, "
            f"V={v}, E={e}, F={f})"
        )


# ---------------------------------------------------------------------------
# Relations <-> core.
# ---------------------------------------------------------------------------

_SENSE_CODES = {CW: SENSE_CW, CCW: SENSE_CCW}

_RELATIONS = frozenset(
    ("vertices", "edges", "faces", "exterior_face", "labels", "endpoints",
     "incidences", "orientation")
)


def _core_of_relations(t: TopologicalInvariant) -> CellArrays:
    """The core of an invariant given by its relations.  Cells are
    numbered in sorted-id order; labels stay the values themselves
    unless every one is a standard tuple.  Relations the core cannot
    hold (unknown cells or senses, an edge with more than two
    endpoints) raise :class:`InvariantError`."""
    ids = tuple(sorted(t.vertices | t.edges | t.faces))
    index = {c: i for i, c in enumerate(ids)}
    try:
        dims = np.array(
            [0 if c in t.vertices else 1 if c in t.edges else 2 for c in ids],
            dtype=np.int8,
        ).reshape(len(ids))
        values = [t.labels[c] for c in ids]
        codes = (
            label_rows(values, len(t.names))
            if all(type(label) is tuple for label in values)
            else None
        )
        incidence = np.array(
            [(index[a], index[b]) for a, b in t.incidences], dtype=np.int32
        ).reshape(len(t.incidences), 2)
        orientation = np.array(
            [
                (_SENSE_CODES[s], index[v], index[e1], index[e2])
                for s, v, e1, e2 in t.orientation
            ],
            dtype=np.int32,
        ).reshape(len(t.orientation), 4)
        if not set(t.endpoints) <= t.edges:
            raise InvariantError("endpoints listed for a non-edge")
        edges = [ids[i] for i in np.flatnonzero(dims == 1).tolist()]
        endpoints = np.full((len(edges), 2), -1, dtype=np.int32)
        for k, e in enumerate(edges):
            vs = t.endpoints.get(e)
            if vs is None:
                continue
            if len(vs) > 2:
                raise InvariantError(f"edge {e!r} has more than two endpoints")
            endpoints[k] = [index[v] for v in vs] + [-1] * (2 - len(vs)) if vs else -2
        exterior = index[t.exterior_face]
    except KeyError as exc:
        raise InvariantError(f"relation names an unknown cell or sense: {exc}") from exc
    return CellArrays(
        t.names,
        dims,
        values if codes is None else codes,
        incidence,
        endpoints,
        orientation,
        exterior,
        ids,
    )
