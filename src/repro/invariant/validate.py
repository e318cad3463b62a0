"""Validation of candidate invariants (Lemma 3.9 / Theorem 3.8).

``validate_invariant`` decides whether an abstract structure over the
invariant's vocabulary is a *labeled planar graph* — i.e. whether it is
the invariant of some spatial instance.  The paper's conditions are
implemented as follows:

(1)–(3)  *candidate graph*: cell sorts disjoint, relations well-typed,
         every edge has at most two endpoint vertices (edges with zero
         endpoints are permitted exactly as *free loops* — the paper's
         degenerate one-region case — and may then appear in no
         orientation tuple);
(3')     label sanity: vertex and edge labels contain at least one
         boundary sign, face labels contain none, and labels are locally
         compatible along incidences;
(4)      *embedded graph*: at every vertex the orientation relation O is
         realized by a cyclic arrangement of edge-germs, with CW the
         exact reversal of CCW;
(5)      face-boundary consistency: the facial walks traced from the
         rotation system can be assigned to the declared faces so that
         every face's ``Face_Edges`` is exactly covered;
(6)      *planarity*: every skeleton component satisfies Euler's formula
         ``V - E + W = 2`` for its traced walks (a rotation system of
         positive genus fails this), and the component-nesting relation
         induced by the face assignment is a forest rooted at the
         exterior face;
(7)      *labeled* planar graph: for every region, its set of faces and
         the complementary set are both connected in the dual graph, and
         the exterior face belongs to no region.

The function also returns the *witness* data (rotation system and
walk-to-face assignment) that the realization algorithm (Theorem 3.5)
consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import ValidationError
from .structure import CCW, CW, TopologicalInvariant

__all__ = [
    "validate_invariant",
    "validate_database",
    "ValidationWitness",
    "extract_rotation_system",
    "trace_walks",
]

# A dart is (edge id, occurrence index 0|1).
Dart = tuple[str, int]


@dataclass
class ValidationWitness:
    """Constructive evidence produced by a successful validation."""

    #: vertex -> CCW-cyclic tuple of darts leaving it.
    rotations: dict[str, tuple[Dart, ...]]
    #: per skeleton component: list of facial walks, each a tuple of darts.
    walks_by_component: list[list[tuple[Dart, ...]]]
    #: (component index, walk index) -> face id.
    walk_face: dict[tuple[int, int], str]
    #: component index -> walk index of its outer walk.
    outer_walk: dict[int, int]
    #: component index -> set of cells (vertices and edges).
    components: list[frozenset[str]] = field(default_factory=list)


def validate_database(db) -> ValidationWitness:
    """Theorem 3.8: check that a ``Th`` database is in ``thematic``'s image."""
    from .thematic import database_to_invariant

    return validate_invariant(database_to_invariant(db))


def validate_invariant(t: TopologicalInvariant) -> ValidationWitness:
    """Validate conditions (1)-(7); raise ValidationError on failure."""
    _check_sorts(t)
    _check_labels(t)
    rotations = extract_rotation_system(t)
    components = t.skeleton_components()
    walks_by_component = [
        trace_walks(t, rotations, comp) for comp in components
    ]
    _check_euler(t, components, walks_by_component)
    walk_face, outer_walk = _assign_walks_to_faces(
        t, components, walks_by_component
    )
    _check_region_faces(t)
    return ValidationWitness(
        rotations=rotations,
        walks_by_component=walks_by_component,
        walk_face=walk_face,
        outer_walk=outer_walk,
        components=components,
    )


# ---------------------------------------------------------------------------
# Conditions (1)-(3): candidate graph.
# ---------------------------------------------------------------------------


def _check_sorts(t: TopologicalInvariant) -> None:
    if t.vertices & t.edges or t.vertices & t.faces or t.edges & t.faces:
        raise ValidationError("cell sorts are not pairwise disjoint", 1)
    if t.exterior_face not in t.faces:
        raise ValidationError("exterior face is not a face", 1)
    senses = {s for (s, _v, _e1, _e2) in t.orientation}
    if not senses <= {CW, CCW}:
        raise ValidationError(f"unknown orientation senses {senses}", 1)
    for e, vs in t.endpoints.items():
        if e not in t.edges:
            raise ValidationError(f"endpoints of non-edge {e!r}", 2)
        if not set(vs) <= t.vertices:
            raise ValidationError(f"endpoint of {e!r} is not a vertex", 2)
        if len(vs) > 2:
            raise ValidationError(f"edge {e!r} has {len(vs)} endpoints", 3)
    for a, b in t.incidences:
        if t.dim(a) >= t.dim(b):
            raise ValidationError(
                f"incidence ({a!r}, {b!r}) does not go up in dimension", 2
            )
    for s, v, e1, e2 in t.orientation:
        for e in (e1, e2):
            if v not in t.endpoints.get(e, ()):
                raise ValidationError(
                    f"orientation at {v!r} mentions non-incident edge {e!r}",
                    2,
                )
    # Edges must be incident to at least one and at most two faces.
    for e in t.edges:
        nf = len(t.faces_of_edge(e))
        if nf not in (1, 2):
            raise ValidationError(
                f"edge {e!r} borders {nf} faces (must be 1 or 2)", 2
            )
    # CW must be the exact reversal of CCW.
    ccw = {(v, e1, e2) for (s, v, e1, e2) in t.orientation if s == CCW}
    cw = {(v, e1, e2) for (s, v, e1, e2) in t.orientation if s == CW}
    if {(v, e2, e1) for (v, e1, e2) in ccw} != cw:
        raise ValidationError("CW is not the reversal of CCW", 4)


# ---------------------------------------------------------------------------
# Condition (3'): label sanity.
# ---------------------------------------------------------------------------

_COMPATIBLE = {
    ("o", "o"),
    ("e", "e"),
    ("b", "o"),
    ("b", "e"),
    ("b", "b"),
    ("o", "b"),
    ("e", "b"),
}


def _check_labels(t: TopologicalInvariant) -> None:
    n = len(t.names)
    for cell in t.all_cells():
        label = t.labels.get(cell)
        if label is None or len(label) != n:
            raise ValidationError(f"cell {cell!r} has a malformed label", 1)
        if not set(label) <= {"o", "b", "e"}:
            raise ValidationError(f"cell {cell!r} has invalid signs", 1)
    for v in t.vertices:
        if "b" not in t.labels[v]:
            raise ValidationError(
                f"vertex {v!r} lies on no region boundary", 1
            )
    for e in t.edges:
        if "b" not in t.labels[e]:
            raise ValidationError(f"edge {e!r} lies on no region boundary", 1)
    for f in t.faces:
        if "b" in t.labels[f]:
            raise ValidationError(
                f"face {f!r} carries a boundary sign", 1
            )
    # Local compatibility: a lower cell interior (exterior) to a region
    # forces incident higher cells to be interior-or-boundary
    # (exterior-or-boundary); strictly interior/exterior lower cells force
    # equality on incident cells of any dimension.
    for a, b in t.incidences:
        la, lb = t.labels[a], t.labels[b]
        for sa, sb in zip(la, lb):
            if sa == "o" and sb == "e":
                raise ValidationError(
                    f"incidence ({a!r}, {b!r}) mixes interior and exterior",
                    1,
                )
            if sa == "e" and sb == "o":
                raise ValidationError(
                    f"incidence ({a!r}, {b!r}) mixes exterior and interior",
                    1,
                )
            if sb == "b" and sa != "b":
                # A 1- or 2-cell on a boundary forces its closure onto it.
                raise ValidationError(
                    f"cell {b!r} is on a boundary but incident {a!r} is not",
                    1,
                )
    if "o" in t.labels[t.exterior_face] or "b" in t.labels[t.exterior_face]:
        raise ValidationError(
            "exterior face must be exterior to every region", 7
        )


# ---------------------------------------------------------------------------
# Condition (4): rotation system extraction.
# ---------------------------------------------------------------------------


def _germs_at(t: TopologicalInvariant, v: str) -> list[Dart]:
    """Darts leaving *v*: ``(e, i)`` where *i* is the index of *v* in the
    edge's (sorted) endpoint tuple — both darts for a loop at *v*."""
    germs: list[Dart] = []
    for e in sorted(t.edges_at_vertex(v)):
        eps = t.endpoints.get(e, ())
        if len(eps) == 1:
            germs.extend([(e, 0), (e, 1)])
        elif len(eps) == 2:
            germs.append((e, eps.index(v)))
    return germs


def extract_rotation_system(
    t: TopologicalInvariant,
) -> dict[str, tuple[Dart, ...]]:
    """Find, per vertex, a cyclic germ order realizing the O relation.

    Raises ValidationError (condition 4) when no cyclic arrangement of
    the germs produces exactly the CCW pair set.
    """
    rotations: dict[str, tuple[Dart, ...]] = {}
    for v in sorted(t.vertices):
        germs = _germs_at(t, v)
        want = t.orientation_at(v, CCW)
        arrangement = _find_cyclic_arrangement(germs, want)
        if arrangement is None:
            raise ValidationError(
                f"orientation at {v!r} is not a cyclic arrangement", 4
            )
        rotations[v] = arrangement
    return rotations


def _find_cyclic_arrangement(
    germs: list[Dart], want: frozenset[tuple[str, str]]
) -> tuple[Dart, ...] | None:
    """A cyclic order of *germs* whose consecutive edge pairs equal *want*."""
    if not germs:
        return () if not want else None
    if len(germs) == 1:
        (g,) = germs
        return (g,) if want == {(g[0], g[0])} else None
    first = germs[0]
    rest = germs[1:]
    for perm in itertools.permutations(rest):
        seq = (first, *perm)
        pairs = {
            (seq[i][0], seq[(i + 1) % len(seq)][0])
            for i in range(len(seq))
        }
        if pairs == want:
            return seq
    return None


# ---------------------------------------------------------------------------
# Face tracing from the rotation system.
# ---------------------------------------------------------------------------


def _twin(t: TopologicalInvariant, dart: Dart) -> Dart:
    e, occ = dart
    return (e, 1 - occ)


def trace_walks(
    t: TopologicalInvariant,
    rotations: dict[str, tuple[Dart, ...]],
    component: frozenset[str],
) -> list[tuple[Dart, ...]]:
    """Facial walks of one skeleton component, traced combinatorially.

    Free-loop components yield exactly two one-dart walks (a circle has
    two sides).
    """
    comp_edges = sorted(e for e in component if e in t.edges)
    if not comp_edges:
        raise ValidationError(
            f"component {sorted(component)} has no edges", 6
        )
    free = [e for e in comp_edges if not t.endpoints.get(e, ())]
    if free:
        if len(comp_edges) != 1:
            raise ValidationError(
                "free loop mixed with other edges in one component", 6
            )
        e = free[0]
        return [((e, 0),), ((e, 1),)]

    # Position of each dart in its vertex rotation.
    pos: dict[Dart, tuple[str, int]] = {}
    for v, ring in rotations.items():
        for i, d in enumerate(ring):
            if d[0] in component:
                pos[d] = (v, i)

    darts = [
        (e, occ) for e in comp_edges for occ in (0, 1)
    ]
    for d in darts:
        if d not in pos:
            raise ValidationError(
                f"dart {d!r} missing from every rotation", 4
            )

    def next_dart(d: Dart) -> Dart:
        tw = _twin(t, d)
        v, i = pos[tw]
        ring = [x for x in rotations[v] if x[0] in component]
        # Recompute position within the component-filtered ring.
        j = ring.index(tw)
        return ring[(j - 1) % len(ring)]

    walks: list[tuple[Dart, ...]] = []
    seen: set[Dart] = set()
    for start in darts:
        if start in seen:
            continue
        walk: list[Dart] = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_dart(d)
        if d != start:
            raise ValidationError("face tracing failed to close", 5)
        walks.append(tuple(walk))
    return walks


# ---------------------------------------------------------------------------
# Conditions (5) and (6): Euler formula and walk-face assignment.
# ---------------------------------------------------------------------------


def _check_euler(t, components, walks_by_component) -> None:
    for comp, walks in zip(components, walks_by_component):
        vs = sum(1 for c in comp if c in t.vertices)
        es = sum(1 for c in comp if c in t.edges)
        free = any(
            not t.endpoints.get(c, ()) for c in comp if c in t.edges
        )
        if free:
            vs += 1  # virtual vertex on the free loop
        if vs - es + len(walks) != 2:
            raise ValidationError(
                f"component {sorted(comp)} violates Euler's formula "
                f"(V={vs}, E={es}, W={len(walks)})",
                6,
            )


def _assign_walks_to_faces(
    t: TopologicalInvariant,
    components,
    walks_by_component,
) -> tuple[dict[tuple[int, int], str], dict[int, int]]:
    """Choose an outer walk per component and a face per walk.

    Constraints: a non-outer walk is the unique *primary* walk of a
    bounded face; the exterior face has no primary; every face's
    ``Face_Edges`` equals the union of the edge sets of its walks; the
    induced component-nesting relation is a forest rooted at the exterior
    face.
    """
    n_comp = len(components)
    face_edges = {f: t.edges_of_face(f) for f in t.faces}
    walk_edges: dict[tuple[int, int], frozenset[str]] = {}
    for ci, walks in enumerate(walks_by_component):
        for wi, walk in enumerate(walks):
            walk_edges[(ci, wi)] = frozenset(d[0] for d in walk)

    total_walks = sum(len(w) for w in walks_by_component)
    if total_walks != len(t.faces) - 1 + n_comp:
        raise ValidationError(
            f"walk/face counts inconsistent: {total_walks} walks, "
            f"{len(t.faces)} faces, {n_comp} components",
            6,
        )

    bounded = sorted(t.faces - {t.exterior_face})

    # Candidate primary faces for each walk.
    candidates: dict[tuple[int, int], list[str]] = {
        key: [f for f in bounded if edges <= face_edges[f]]
        for key, edges in walk_edges.items()
    }

    assignment: dict[tuple[int, int], str] = {}
    outer: dict[int, int] = {}
    primary_of: dict[str, tuple[int, int]] = {}

    def backtrack(ci: int) -> bool:
        if ci == n_comp:
            return _place_outer_walks(
                t, components, walks_by_component, walk_edges,
                face_edges, assignment, outer, primary_of,
            )
        walks = walks_by_component[ci]
        for outer_wi in range(len(walks)):
            chosen: list[tuple[tuple[int, int], str]] = []
            ok = True
            for wi in range(len(walks)):
                if wi == outer_wi:
                    continue
                key = (ci, wi)
                placed = False
                for f in candidates[key]:
                    if f not in primary_of:
                        primary_of[f] = key
                        assignment[key] = f
                        chosen.append((key, f))
                        placed = True
                        break
                if not placed:
                    ok = False
                    break
            if ok:
                outer[ci] = outer_wi
                if backtrack(ci + 1):
                    return True
                del outer[ci]
            for key, f in chosen:
                del primary_of[f]
                del assignment[key]
        return False

    if not backtrack(0):
        raise ValidationError(
            "no consistent assignment of facial walks to faces", 5
        )
    return assignment, outer


def _place_outer_walks(
    t, components, walks_by_component, walk_edges, face_edges,
    assignment, outer, primary_of,
) -> bool:
    """Final stage: place each component's outer walk and verify coverage
    and the nesting forest."""
    if len(primary_of) != len(t.faces) - 1:
        return False
    # Tentatively place outer walks so that total coverage matches.
    remaining: dict[str, set[str]] = {}
    for f in t.faces:
        covered: set[str] = set()
        for key, face in assignment.items():
            if face == f:
                covered |= walk_edges[key]
        remaining[f] = set(face_edges[f]) - covered

    order = sorted(range(len(components)))

    def place(i: int) -> bool:
        if i == len(order):
            if any(remaining[f] for f in t.faces):
                return False
            return _nesting_is_forest(
                t, components, assignment, outer, primary_of
            )
        ci = order[i]
        key = (ci, outer[ci])
        edges = walk_edges[key]
        for f in sorted(t.faces):
            # The outer walk may not be its own component's primary face.
            pk = primary_of.get(f)
            if pk is not None and pk[0] == ci:
                continue
            if edges <= set(face_edges[f]) and edges <= remaining[f]:
                assignment[key] = f
                remaining[f] -= edges
                if place(i + 1):
                    return True
                remaining[f] |= edges
                del assignment[key]
        return False

    return place(0)


def _nesting_is_forest(t, components, assignment, outer, primary_of) -> bool:
    """Component nesting (outer walk's face's component) must be acyclic."""
    parent: dict[int, int | None] = {}
    for ci in range(len(components)):
        face = assignment[(ci, outer[ci])]
        if face == t.exterior_face:
            parent[ci] = None
            continue
        pk = primary_of.get(face)
        if pk is None:
            return False
        parent[ci] = pk[0]
    for ci in parent:
        seen = set()
        cur: int | None = ci
        while cur is not None:
            if cur in seen:
                return False
            seen.add(cur)
            cur = parent[cur]
    return True


# ---------------------------------------------------------------------------
# Condition (7): region faces in the dual graph.
# ---------------------------------------------------------------------------


def _check_region_faces(t: TopologicalInvariant) -> None:
    dual: dict[str, set[str]] = {f: set() for f in t.faces}
    for e in t.edges:
        fs = sorted(t.faces_of_edge(e))
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                dual[fs[i]].add(fs[j])
                dual[fs[j]].add(fs[i])

    def connected(nodes: frozenset[str]) -> bool:
        if not nodes:
            return True
        start = next(iter(sorted(nodes)))
        seen = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            for g in dual[f]:
                if g in nodes and g not in seen:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == len(nodes)

    for name in t.names:
        faces = t.region_faces(name)
        if not faces:
            raise ValidationError(
                f"region {name!r} has no interior face", 7
            )
        if t.exterior_face in faces:
            raise ValidationError(
                f"region {name!r} contains the exterior face", 7
            )
        if not connected(faces):
            raise ValidationError(
                f"faces of region {name!r} are not connected in the dual",
                7,
            )
        if not connected(t.faces - faces):
            raise ValidationError(
                f"complement of region {name!r} is not connected in the "
                "dual (the region has a hole)",
                7,
            )
