"""Realization of abstract invariants as polygonal instances (Theorem 3.5).

Given a validated invariant ``T``, :func:`realize` produces a spatial
instance with polygonal extents whose invariant is isomorphic to ``T`` —
the paper's result that semi-algebraic regions can always be represented
by polygonal ones for topological purposes.

Pipeline (all coordinates exact rationals):

1. every skeleton component becomes a simple planar map
   (:mod:`repro.invariant.maps`), decomposed into biconnected blocks;
2. each block is drawn by Tutte's barycentric method with its outer
   facial cycle convex (:mod:`repro.invariant.tutte`);
3. blocks are glued at cut vertices: each pending block is squeezed by an
   orientation-preserving affine map into an exact *cone* between the
   already-drawn edge directions, with exact clearance radii, so the
   rotation system is realized germ for germ;
4. whole components are scaled into free discs inside the face of the
   drawing they are nested in (the walk-to-face assignment from
   validation tells us which);
5. each region is reconstructed from the drawn cells: its boundary is the
   set of drawn edges labeled 'b' for it, point classification is
   even-odd ray parity against the *sign-changing* boundary edges (edges
   whose two incident faces differ for the region — this makes slits and
   antennas behave correctly).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import InvariantError
from ..geometry import BBox, Location, Point, Segment, on_segment
from ..regions import SpatialInstance
from ..regions.base import Region
from .maps import SimpleComponentMap, subdivided_component
from .structure import TopologicalInvariant
from .tutte import draw_block, trace_block_faces
from .validate import ValidationWitness, validate_invariant

__all__ = ["realize", "RealizedRegion"]

Node = str
SDart = tuple[Node, Node]

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Small exact-arithmetic helpers.
# ---------------------------------------------------------------------------


def _perp(d: Point) -> Point:
    """Rotate a direction 90 degrees counterclockwise (exactly)."""
    return Point(-d.y, d.x)


def _rational_below_sqrt(q: Fraction) -> Fraction:
    """A positive rational r with r*r <= q (q > 0), close to sqrt(q)."""
    if q <= 0:
        raise InvariantError("clearance collapsed to zero")
    guess = Fraction(math.isqrt(q.numerator * q.denominator), q.denominator)
    while guess * guess > q:
        guess /= 2
    if guess == 0:
        guess = Fraction(1, q.denominator * 2)
        while guess * guess > q:
            guess /= 2
    return guess


def _dist2_point_segment(p: Point, seg: Segment) -> Fraction:
    """Exact squared distance from a point to a closed segment."""
    a, b = seg.a, seg.b
    d = b - a
    t = (p - a).dot(d) / d.dot(d)
    if t <= 0:
        closest = a
    elif t >= 1:
        closest = b
    else:
        closest = Point(a.x + d.x * t, a.y + d.y * t)
    return (p - closest).norm2()


def _strictly_ccw_between(u: Point, x: Point, w: Point) -> bool:
    """Is direction *x* strictly inside the CCW sector from *u* to *w*?"""
    cu, cw = u.cross(x), x.cross(w)
    uw = u.cross(w)
    if uw > 0:
        return cu > 0 and cw > 0
    if uw < 0:
        return cu > 0 or cw > 0
    # u and w collinear: opposite (half-turn sector) or equal (full turn).
    if u.dot(w) < 0:
        return cu > 0
    return not (cu == 0 and u.dot(x) > 0)


def _subcones(u: Point, w: Point, m: int) -> list[tuple[Point, Point]]:
    """*m* pairwise-disjoint open cones strictly inside the CCW sector
    from direction *u* to direction *w* (which may be reflex or a full
    turn when u == w)."""
    waypoints = [u]
    probe = u
    for _ in range(3):
        probe = _perp(probe)
        if _strictly_ccw_between(u, probe, w):
            waypoints.append(probe)
    waypoints.append(w)
    # Subdivide each (< half-turn) gap into enough strictly increasing
    # directions; take disjoint consecutive pairs, skipping the sector
    # boundaries themselves.
    per_gap = max(2, (2 * m) // max(1, len(waypoints) - 1) + 2)
    dirs: list[Point] = []
    for a, b in zip(waypoints, waypoints[1:]):
        if a.cross(b) <= 0:
            continue  # degenerate or duplicate waypoint
        for j in range(1, per_gap + 1):
            dirs.append(a * (per_gap + 1 - j) + b * j)
    if len(dirs) < 2 * m:
        raise InvariantError("could not carve enough sub-cones in a sector")
    # Consecutive direction pairs: each cone is convex (< half turn) and
    # cones are pairwise disjoint, in CCW order.
    return [(dirs[2 * i], dirs[2 * i + 1]) for i in range(m)]


def _affine_into_cone(
    positions: dict[Node, Point],
    apex_node: Node,
    u_src: Point,
    w_src: Point,
    target_apex: Point,
    u_dst: Point,
    w_dst: Point,
    radius2: Fraction,
) -> dict[Node, Point]:
    """Map a block drawing into a cone at *target_apex*.

    The linear part takes the source corner directions (u_src, w_src) to
    the destination cone directions; a positive scale then shrinks
    everything inside the given squared radius.  Orientation (and hence
    the rotation system) is preserved because both direction pairs are
    CCW-ordered.
    """
    det = u_src.cross(w_src)
    if det == 0:
        raise InvariantError("degenerate block corner")
    # M = [u_dst w_dst] * [u_src w_src]^{-1}
    inv = (
        (w_src.y / det, -w_src.x / det),
        (-u_src.y / det, u_src.x / det),
    )
    m11 = u_dst.x * inv[0][0] + w_dst.x * inv[1][0]
    m12 = u_dst.x * inv[0][1] + w_dst.x * inv[1][1]
    m21 = u_dst.y * inv[0][0] + w_dst.y * inv[1][0]
    m22 = u_dst.y * inv[0][1] + w_dst.y * inv[1][1]

    apex = positions[apex_node]
    mapped = {
        n: Point(
            m11 * (p.x - apex.x) + m12 * (p.y - apex.y),
            m21 * (p.x - apex.x) + m22 * (p.y - apex.y),
        )
        for n, p in positions.items()
    }
    extent2 = max(
        (p.norm2() for n, p in mapped.items() if n != apex_node),
        default=Fraction(1),
    )
    if extent2 == 0:
        raise InvariantError("block collapsed under affine map")
    r = _rational_below_sqrt(radius2)
    scale = r / (2 * _rational_below_sqrt(extent2) + 2)
    return {
        n: Point(target_apex.x + p.x * scale, target_apex.y + p.y * scale)
        for n, p in mapped.items()
    }


# ---------------------------------------------------------------------------
# Component drawing: blocks glued at cut vertices.
# ---------------------------------------------------------------------------


class _ComponentDrawing:
    """Draws one component's simple map with exact coordinates."""

    def __init__(self, smap: SimpleComponentMap):
        self.smap = smap
        self.positions: dict[Node, Point] = {}
        self.placed_segments: set[tuple[Node, Node]] = set()
        self.dart_walk: dict[SDart, int] = {}
        for wi, walk in enumerate(smap.walks):
            for d in walk:
                self.dart_walk[d] = wi
        self.block_of_segment = {}
        for bi, block in enumerate(smap.blocks):
            for seg in block:
                self.block_of_segment[seg] = bi
        self._draw()

    # -- helpers ---------------------------------------------------------------

    def _block_outer_cycle(self, bi: int, surrounding_walk: int):
        """The facial cycle of block *bi* lying on the given walk."""
        block = self.smap.blocks[bi]
        nodes = {n for seg in block for n in seg}
        cycles = trace_block_faces(nodes, self.smap.rotation, block)
        for cycle in cycles:
            walks = {self.dart_walk[d] for d in cycle}
            if len(walks) != 1:
                raise InvariantError(
                    "facial cycle of a block crosses component walks"
                )
            if walks == {surrounding_walk}:
                return cycle
        raise InvariantError(
            f"no facial cycle of block {bi} lies on walk {surrounding_walk}"
        )

    def _draw_block_local(self, bi: int, outer_cycle) -> dict[Node, Point]:
        block = self.smap.blocks[bi]
        if len(block) == 1:
            ((u, v),) = block
            return {u: Point(0, 0), v: Point(1, 0)}
        return draw_block(block, self.smap.rotation, outer_cycle)

    # -- main drawing loop -------------------------------------------------------

    def _draw(self) -> None:
        smap = self.smap
        outer_walk = smap.outer_walk
        first = smap.walks[outer_walk][0]
        root_bi = self.block_of_segment[tuple(sorted(first))]
        root_block = smap.blocks[root_bi]
        if len(root_block) == 1:
            local = self._draw_block_local(root_bi, None)
        else:
            cycle = self._block_outer_cycle(root_bi, outer_walk)
            local = self._draw_block_local(root_bi, cycle)
        self.positions.update(local)
        self.placed_segments |= set(root_block)
        placed_blocks = {root_bi}

        # Repeatedly find cut nodes with placed and unplaced germs.
        while len(placed_blocks) < len(smap.blocks):
            progress = False
            for v in list(smap.rotation):
                if v not in self.positions:
                    continue
                pending = self._pending_blocks_at(v, placed_blocks)
                if not pending:
                    continue
                self._place_blocks_at(v, placed_blocks)
                progress = True
            if not progress:
                raise InvariantError(
                    "block gluing stalled; component is inconsistent"
                )

    def _pending_blocks_at(self, v: Node, placed_blocks) -> set[int]:
        out = set()
        for w in self.smap.rotation[v]:
            bi = self.block_of_segment[tuple(sorted((v, w)))]
            if bi not in placed_blocks:
                out.add(bi)
        return out

    def _place_blocks_at(self, v: Node, placed_blocks: set[int]) -> None:
        smap = self.smap
        ring = smap.rotation[v]
        n = len(ring)
        placed_flags = [
            self.block_of_segment[tuple(sorted((v, w)))] in placed_blocks
            for w in ring
        ]
        if not any(placed_flags):
            raise InvariantError("gluing at a vertex with no placed germ")
        p_v = self.positions[v]

        # Maximal runs of unplaced germs, in ring order.
        runs: list[tuple[int, list[int]]] = []  # (index of prev placed germ, run)
        i = 0
        while i < n:
            if placed_flags[i]:
                i += 1
                continue
            # find start of the run: previous placed germ.
            j = i
            while not placed_flags[j % n]:
                j -= 1
            run = []
            k = i
            while not placed_flags[k % n]:
                run.append(k % n)
                k += 1
            runs.append((j % n, run))
            i = k
        # Deduplicate runs (the scan can see a run twice when it wraps).
        seen_starts = set()
        unique_runs = []
        for start, run in runs:
            key = tuple(run)
            if key not in seen_starts:
                seen_starts.add(key)
                unique_runs.append((start, run))

        clearance2 = self._clearance2(p_v)

        for prev_idx, run in unique_runs:
            next_idx = (run[-1] + 1) % n
            u_dir = self.positions[ring[prev_idx]] - p_v
            w_dir = self.positions[ring[next_idx]] - p_v
            # Group the run's germs into consecutive block arcs.
            arcs: list[tuple[int, list[int]]] = []
            for idx in run:
                bi = self.block_of_segment[
                    tuple(sorted((v, ring[idx])))
                ]
                if arcs and arcs[-1][0] == bi:
                    arcs[-1][1].append(idx)
                else:
                    arcs.append((bi, [idx]))
            cones = _subcones(u_dir, w_dir, len(arcs))
            for (bi, _germ_idxs), (c1, c2) in zip(arcs, cones):
                if bi in placed_blocks:
                    # A block can span several arcs only via multiple
                    # germs; it is placed on its first arc.
                    continue
                self._place_one_block(v, bi, c1, c2, clearance2)
                placed_blocks.add(bi)

    def _place_one_block(
        self, v: Node, bi: int, c1: Point, c2: Point, clearance2: Fraction
    ) -> None:
        smap = self.smap
        block = smap.blocks[bi]
        if len(block) == 1:
            ((a, b),) = block
            other = b if a == v else a
            # Straight segment into the cone bisector-ish direction.
            d = c1 + c2
            r = _rational_below_sqrt(clearance2)
            scale = r / (2 * _rational_below_sqrt(d.norm2()) + 2)
            self.positions[other] = Point(
                self.positions[v].x + d.x * scale,
                self.positions[v].y + d.y * scale,
            )
            self.placed_segments.add(tuple(sorted((a, b))))
            return

        # The block's outer cycle faces the walk of the surrounding wedge:
        # the wedge clockwise of the first unplaced germ belongs to the
        # walk of the preceding placed dart; equivalently, every germ of
        # the block at v that borders the outside of the block lies on the
        # same walk as the face we are inserting into.  We recover it as
        # the facial cycle of the block containing the dart (v -> first
        # block neighbour) ... traced within the block; its walk is the
        # surrounding face's walk by construction.
        nodes = {n for seg in block for n in seg}
        cycles = trace_block_faces(nodes, smap.rotation, block)
        # The outer cycle is the one whose walk also covers darts outside
        # the block (the surrounding face's walk): find the cycle whose
        # component walk contains darts not in this block.
        block_darts = {
            d
            for seg in block
            for d in (seg, (seg[1], seg[0]))
        }
        outer_cycle = None
        for cycle in cycles:
            wi = self.dart_walk[cycle[0]]
            walk_darts = set(smap.walks[wi])
            if not walk_darts <= block_darts:
                outer_cycle = cycle
                break
        if outer_cycle is None:
            raise InvariantError(
                "pending block has no outward-facing facial cycle"
            )
        local = self._draw_block_local(bi, outer_cycle)

        # Corner directions at v in the local drawing: v lies on the
        # outer cycle; its incoming/outgoing cycle edges span the corner.
        arrive = next(d for d in outer_cycle if d[1] == v)
        leave = next(d for d in outer_cycle if d[0] == v)
        u_src = local[arrive[0]] - local[v]
        w_src = local[leave[1]] - local[v]
        if u_src.cross(w_src) < 0:
            u_src, w_src = w_src, u_src
        elif u_src.cross(w_src) == 0:
            # Degree-2 corner on the outer cycle (straight or hairpin):
            # widen using the perpendicular.
            w_src = _perp(u_src) if u_src.cross(_perp(u_src)) > 0 else -_perp(u_src)

        placed = _affine_into_cone(
            local,
            v,
            u_src,
            w_src,
            self.positions[v],
            c1,
            c2,
            clearance2,
        )
        for node, pos in placed.items():
            if node == v:
                continue
            self.positions[node] = pos
        self.placed_segments |= set(block)

    def _clearance2(self, p: Point) -> Fraction:
        """Exact squared clearance from *p* to all drawn pieces not
        through *p*."""
        best: Fraction | None = None
        for (u, w) in self.placed_segments:
            seg = Segment(self.positions[u], self.positions[w])
            if seg.contains(p):
                continue
            d2 = _dist2_point_segment(p, seg)
            if best is None or d2 < best:
                best = d2
        return best if best is not None else Fraction(1)


# ---------------------------------------------------------------------------
# The realized region and the public entry point.
# ---------------------------------------------------------------------------


class RealizedRegion(Region):
    """A region reconstructed from a drawn invariant.

    Point classification is even-odd ray parity against the region's
    *sign-changing* boundary segments; the full boundary (including slits
    and antennas) is used for the boundary test itself.
    """

    def __init__(
        self,
        name: str,
        boundary: list[Segment],
        parity_boundary: list[Segment],
        interior_witness: Point,
    ):
        self.name = name
        self._boundary = boundary
        self._parity = parity_boundary
        self._interior = interior_witness

    def classify(self, p: Point) -> Location:
        for seg in self._boundary:
            if on_segment(p, seg.a, seg.b):
                return Location.BOUNDARY
        crossings = 0
        for seg in self._parity:
            a, b = seg.a, seg.b
            if a.y == b.y:
                continue
            if min(a.y, b.y) <= p.y < max(a.y, b.y):
                t = (p.y - a.y) / (b.y - a.y)
                x_at = a.x + (b.x - a.x) * t
                if x_at < p.x:
                    crossings += 1
        return Location.INTERIOR if crossings % 2 else Location.EXTERIOR

    def boundary_segments(self) -> list[Segment]:
        return list(self._boundary)

    def interior_point(self) -> Point:
        return self._interior

    def bbox(self) -> BBox:
        return BBox.of_points(
            [pt for seg in self._boundary for pt in seg.endpoints()]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RealizedRegion({self.name!r}, {len(self._boundary)} segments)"


def realize(
    t: TopologicalInvariant, witness: ValidationWitness | None = None
) -> SpatialInstance:
    """A polygonal spatial instance whose invariant is isomorphic to *t*.

    Raises :class:`~repro.errors.ValidationError` when *t* is not a valid
    invariant, :class:`~repro.errors.InvariantError` when drawing fails.
    """
    if witness is None:
        witness = validate_invariant(t)

    n_comp = len(witness.components)
    # Nesting forest from the walk-face assignment.
    primary_of_face: dict[str, tuple[int, int]] = {}
    for (ci, wi), face in witness.walk_face.items():
        if wi != witness.outer_walk[ci]:
            primary_of_face[face] = (ci, wi)
    parent: dict[int, int | None] = {}
    parent_face: dict[int, str] = {}
    for ci in range(n_comp):
        face = witness.walk_face[(ci, witness.outer_walk[ci])]
        parent_face[ci] = face
        if face == t.exterior_face:
            parent[ci] = None
        else:
            parent[ci] = primary_of_face[face][0]

    order: list[int] = []
    remaining = set(range(n_comp))
    while remaining:
        ready = sorted(
            ci
            for ci in remaining
            if parent[ci] is None or parent[ci] not in remaining
        )
        if not ready:
            raise InvariantError("component nesting is cyclic")
        order.extend(ready)
        remaining -= set(ready)

    # Draw every component locally.
    local_geometry: dict[int, dict[str, list[Point]]] = {}
    walk_first_dart: dict[tuple[int, int], tuple[Point, Point]] = {}
    comp_positions: dict[int, dict[Node, Point]] = {}
    smaps: dict[int, SimpleComponentMap] = {}
    for ci in range(n_comp):
        comp = witness.components[ci]
        free = [
            e
            for e in comp
            if e in t.edges and not t.endpoints.get(e, ())
        ]
        if free:
            (e,) = free
            square = [
                Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)
            ]
            local_geometry[ci] = {e: square + [square[0]]}
            comp_positions[ci] = {
                f"{e}@{k}": p for k, p in enumerate(square)
            }
            continue
        smap = subdivided_component(t, witness, ci)
        smaps[ci] = smap
        drawing = _ComponentDrawing(smap)
        comp_positions[ci] = drawing.positions
        geo: dict[str, list[Point]] = {}
        for e in sorted(x for x in comp if x in t.edges):
            eps = t.endpoints[e]
            tail = eps[0]
            head = eps[-1]
            chain = [tail, f"{e}#a", f"{e}#b", head]
            geo[e] = [drawing.positions[n] for n in chain]
        local_geometry[ci] = geo

    # Place components: roots side by side, children inside parent faces.
    global_geometry: dict[str, list[Point]] = {}
    vertex_positions: dict[str, Point] = {}
    placed_pieces: list[tuple[Segment, str]] = []
    offset_x = Fraction(0)

    def transform_component(ci: int, f):
        for e, chain in local_geometry[ci].items():
            pts = [f(p) for p in chain]
            global_geometry[e] = pts
            for a, b in zip(pts, pts[1:]):
                placed_pieces.append((Segment(a, b), e))
        comp = witness.components[ci]
        for v in comp:
            if v in t.vertices:
                vertex_positions[v] = f(comp_positions[ci][v])
        for wi, walk in enumerate(witness.walks_by_component[ci]):
            first = _walk_first_points(t, ci, wi, witness, smaps, comp_positions)
            walk_first_dart[(ci, wi)] = (f(first[0]), f(first[1]))

    for ci in order:
        geo = local_geometry[ci]
        pts = [p for chain in geo.values() for p in chain]
        box = BBox.of_points(pts)
        if parent[ci] is None:
            dx = offset_x - box.xmin
            dy = -box.ymin

            def shift(p, dx=dx, dy=dy):
                return Point(p.x + dx, p.y + dy)

            transform_component(ci, shift)
            offset_x += (box.xmax - box.xmin) + 4
        else:
            target = _free_disc_in_face(
                t, parent_face[ci], witness, walk_first_dart, placed_pieces
            )
            centre, radius2 = target
            span = max(box.xmax - box.xmin, box.ymax - box.ymin)
            r = _rational_below_sqrt(radius2)
            scale = r / (2 * span + 2)
            mid = box.center()

            def squeeze(p, centre=centre, scale=scale, mid=mid):
                return Point(
                    centre.x + (p.x - mid.x) * scale,
                    centre.y + (p.y - mid.y) * scale,
                )

            transform_component(ci, squeeze)

    # Reconstruct regions.
    return _build_instance(t, global_geometry, placed_pieces)


def _walk_first_points(t, ci, wi, witness, smaps, comp_positions):
    """Local coordinates of the first dart of a walk (for face lookup)."""
    comp = witness.components[ci]
    free = [
        e for e in comp if e in t.edges and not t.endpoints.get(e, ())
    ]
    if free:
        (e,) = free
        pos = comp_positions[ci]
        a, b = pos[f"{e}@0"], pos[f"{e}@1"]
        # The free loop is drawn counterclockwise, so the walk carrying
        # the *enclosed* face (the non-outer walk) is the forward dart —
        # the enclosed face lies on its left.
        return (b, a) if wi == witness.outer_walk[ci] else (a, b)
    smap = smaps[ci]
    d = smap.walks[wi][0]
    pos = comp_positions[ci]
    return (pos[d[0]], pos[d[1]])


def _free_disc_in_face(
    t, face: str, witness, walk_first_dart, placed_pieces
) -> tuple[Point, Fraction]:
    """An exact free disc strictly inside the drawn face."""
    from ..arrangement.dcel import Subdivision

    ci, wi = None, None
    for (cj, wj), f in witness.walk_face.items():
        if f == face and wj != witness.outer_walk[cj]:
            ci, wi = cj, wj
            break
    if ci is None:
        raise InvariantError(f"face {face!r} has no primary walk")
    a, b = walk_first_dart[(ci, wi)]
    pieces = [seg for seg, _e in placed_pieces]
    sub = Subdivision(sorted(set(pieces), key=lambda s: (s.a.lex_key(), s.b.lex_key())))
    # Find the dart a -> b in the subdivision (the piece is a drawn
    # segment, already interior-disjoint from all others).
    for d in range(2 * len(sub.pieces)):
        ta, hb = sub.dart_points(d)
        if ta == a and hb == b:
            sample = sub._sample_left_of_dart(d)
            best = min(
                _dist2_point_segment(sample, seg) for seg in sub.pieces
            )
            return sample, best / 4
    raise InvariantError("drawn walk dart not found in subdivision")


def _build_instance(
    t: TopologicalInvariant,
    geometry: dict[str, list[Point]],
    placed_pieces: list[tuple[Segment, str]],
) -> SpatialInstance:
    from ..arrangement.dcel import Subdivision

    pieces = sorted(
        {seg for seg, _e in placed_pieces},
        key=lambda s: (s.a.lex_key(), s.b.lex_key()),
    )
    sub = Subdivision(pieces)

    instance = SpatialInstance()
    for idx, name in enumerate(t.names):
        boundary: list[Segment] = []
        parity: list[Segment] = []
        for e in sorted(t.edges):
            if t.labels[e][idx] != "b":
                continue
            chain = geometry[e]
            segs = [Segment(x, y) for x, y in zip(chain, chain[1:])]
            boundary.extend(segs)
            faces = sorted(t.faces_of_edge(e))
            signs = {t.labels[f][idx] for f in faces}
            if len(faces) == 2 and signs == {"o", "e"}:
                parity.extend(segs)
            elif len(faces) == 1:
                # Edge inside a single face: slit or antenna; never a
                # parity edge.
                pass
        witness_pt = _region_witness(t, idx, sub, boundary, parity)
        instance.add(
            name, RealizedRegion(name, boundary, parity, witness_pt)
        )
    return instance


def _region_witness(t, idx, sub, boundary, parity) -> Point:
    """An interior point of the drawn region: sample faces of the global
    subdivision until one lies inside (by parity against the region's
    sign-changing boundary)."""
    probe = RealizedRegion("?", boundary, parity, Point(0, 0))
    for face in sub.faces:
        if face.is_unbounded:
            continue
        sample = sub.face_sample(face.index)
        if probe.classify(sample) is Location.INTERIOR:
            return sample
    raise InvariantError("region has no interior face in the drawing")
