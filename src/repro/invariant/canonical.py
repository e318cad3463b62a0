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
  Theorem 3.4 allows; one search serves both senses), so

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
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from ..arrangement.soa import LABEL_ASCII, SENSES, CellArrays, label_tuples
from ..errors import ReproError
from ..regions import AlgRegion, Poly, Rect, RectUnion, SpatialInstance
from ..tracing import span
from .isomorphism import _backtrack
from .structure import TopologicalInvariant

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
    tuple no matter where its vertex list starts or which way it winds.

    A least rotation starts at an occurrence of the least point, so only
    those rotations are compared."""
    points = [(p.x, p.y) for p in vertices]
    if not points:
        return ()
    least = min(points)
    best = None
    for seq in (points, points[::-1]):
        for i, point in enumerate(seq):
            if point == least:
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
# Canonization on the integer core.
# ---------------------------------------------------------------------------

# The rank of each location code (o=0, b=1, e=2) in the order of the
# label characters, 'b' < 'e' < 'o': label tuples compare in that order.
_CODE_ORDER = np.array([2, 0, 1], dtype=np.uint8)


def _label_keys(labels: list) -> list:
    """Sort keys that order non-standard label values exactly as the
    values order.

    Each label becomes one string, every entry followed by ``"\\0"``: the
    terminator sorts below every other character, so an entry that ends
    sorts before one that goes on, and a shorter label before its
    extensions, as in tuple comparison.  Only an entry that itself holds
    ``"\\0"`` breaks that (its string has more terminators than entries);
    then the labels themselves are the keys.
    """
    keys = ["\0".join((*label, "")) for label in labels]
    if all(k.count("\0") == len(l) for k, l in zip(keys, labels)):
        return keys
    return labels


def _base_keys(core: CellArrays) -> np.ndarray:
    """One sort key per cell for its base colour ``(dim, label,
    exterior, endpoint count)``, every part an isomorphism invariant of
    the cell; the endpoint count is -1 for a cell that is no edge.

    With coded labels the key is the row ``dim, label codes, exterior,
    count + 1`` as bytes, the codes reordered so that byte order is the
    tuple order of the label characters, 'b' < 'e' < 'o'.  Otherwise it
    is the key tuple's rank."""
    dims = core.dims
    labels = core.labels
    n = len(dims)
    neps = np.zeros(n, dtype=np.uint8)
    neps[dims == 1] = (core.endpoints >= 0).sum(axis=1) + 1
    if isinstance(labels, np.ndarray):
        m = labels.shape[1]
        rows = np.empty((n, m + 3), dtype=np.uint8)
        rows[:, 0] = dims
        rows[:, 1 : m + 1] = _CODE_ORDER[labels]
        rows[:, m + 1] = 0
        rows[core.exterior, m + 1] = 1
        rows[:, m + 2] = neps
        return rows.view(np.dtype((np.void, m + 3))).reshape(n)
    exterior = [False] * n
    exterior[core.exterior] = True
    keys = list(zip(dims.tolist(), _label_keys(labels), exterior, neps.tolist()))
    table = {k: r for r, k in enumerate(sorted(set(keys)))}
    return np.array([table[k] for k in keys], dtype=np.int64)


def _partition(keys: np.ndarray) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The ordered partition of the cells by *keys*, as :func:`_refine`
    takes it: the classes in key order, each labelled by where its run
    starts."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    bounds = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1], [True]))
    )
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    labels = np.empty(n, dtype=np.int64)
    labels[order] = starts.repeat(sizes)
    shared = sizes > 1
    order = order.tolist()
    groups = [
        (start, order[start : start + size])
        for start, size in zip(starts[shared].tolist(), sizes[shared].tolist())
    ]
    return labels.tolist(), groups


def _refine(
    labels: list[int], groups: list[tuple[int, list[int]]], indptr, indices
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Colour refinement of an ordered partition to the stable one.

    The partition lists its classes in colour order, each a run of
    cells labelled by where its run starts; *labels* gives each cell's
    label and *groups* the classes of more than one cell, as ``(label,
    cells)`` in order.  Each round re-ranks every cell by ``(colour,
    sorted neighbour colours)``, reading the colours of the round before,
    until no class splits.  Keys sort by colour first and a class of one
    cell has one key, so only the cells of *groups* are read: a class
    splits within its run, in key order, and every other label stays.
    The labels are in the order of the dense ranks, so each round gives
    the partition, in the same order, of a full re-ranking.
    """
    while groups:
        keyed = []
        for start, cells in groups:
            keys = [
                tuple(sorted(map(labels.__getitem__, indices[indptr[i] : indptr[i + 1]])))
                for i in cells
            ]
            keyed.append((start, cells, keys, len(set(keys)) > 1))
        if not any(split for *_rest, split in keyed):
            break
        groups = []
        for start, cells, keys, split in keyed:
            if not split:
                groups.append((start, cells))
                continue
            at = start
            for _key, run in groupby(sorted(zip(keys, cells)), key=itemgetter(0)):
                part = [cell for _key, cell in run]
                for cell in part:
                    labels[cell] = at
                if len(part) > 1:
                    groups.append((at, part))
                at += len(part)
    return labels, groups


def _neighbours(core: CellArrays) -> tuple[list[int], list[int]]:
    """The undirected incidence graph in CSR form, each neighbour once:
    the neighbours of cell *i* are ``indices[indptr[i]:indptr[i + 1]]``."""
    n = core.n_cells
    a, b = core.incidence.astype(np.int64).T
    keys = np.concatenate((a * n + b, b * n + a))
    keys.sort()
    if len(keys) and (keys[1:] == keys[:-1]).any():
        keys = np.unique(keys)
    indptr = np.searchsorted(keys // n, np.arange(n + 1))
    return indptr.tolist(), (keys % n).tolist()


class _Search:
    """One individualization–refinement search over a core."""

    def __init__(self, core: CellArrays):
        self.core = core
        self.n = core.n_cells
        self.base_labels, self.base_groups = _partition(_base_keys(core))

    @cached_property
    def neighbours(self) -> tuple[list[int], list[int]]:
        return _neighbours(self.core)

    @cached_property
    def leaves(self) -> "_Leaves":
        return _Leaves(self.core)

    def partition(
        self, seeds: dict[int, int]
    ) -> tuple[list[int], list[tuple[int, list[int]]]]:
        """The stable partition seeded by *seeds* (cell -> branch step),
        as :func:`_refine` returns it.

        The seeded colours rank ``(base colour, step)``, an unseeded
        cell's step -1: in each base class the unseeded cells keep the
        class's place, and each seeded cell follows them alone, in step
        order."""
        labels = list(self.base_labels)
        groups = self.base_groups
        if seeds:
            touched = {labels[x] for x in seeds}
            groups = []
            for start, cells in self.base_groups:
                if start not in touched:
                    groups.append((start, cells))
                    continue
                rest = [c for c in cells if c not in seeds]
                if len(rest) > 1:
                    groups.append((start, rest))
                picked = sorted((c for c in cells if c in seeds), key=seeds.get)
                for k, cell in enumerate(picked, start + len(rest)):
                    labels[cell] = k
        if not groups:
            return labels, groups
        return _refine(labels, groups, *self.neighbours)

    @cached_property
    def relations(self) -> tuple:
        """Adjacency sets, incidence pairs, endpoints by edge, orientation
        rows and the rows by the cells they mention; only the
        automorphism search reads them."""
        core = self.core
        indptr, indices = self.neighbours
        adj = [set(indices[indptr[i] : indptr[i + 1]]) for i in range(self.n)]
        inc = set(map(tuple, core.incidence.tolist()))
        endpoints = {
            e: tuple(sorted(v for v in (a, b) if v >= 0))
            for e, (a, b) in zip(
                np.flatnonzero(core.dims == 1).tolist(),
                core.endpoints.tolist(),
            )
            if a != -1
        }
        orientation = set(map(tuple, core.orientation.tolist()))
        by_cell: dict[int, list[tuple]] = defaultdict(list)
        for row in orientation:
            for c in set(row[1:]):
                by_cell[c].append(row)
        return adj, inc, endpoints, orientation, by_cell

    def automorphic(self, colors1: list[int], colors2: list[int]) -> bool:
        """Whether the structure has a self-bijection matching *colors1*
        to *colors2* and preserving incidences, endpoints, and
        orientation.

        Only sense-preserving maps count.  A map preserves ``O`` iff it
        preserves ``O`` with the global sense reversed, so the answer,
        and with it the pruned search tree, is the same for both
        senses."""
        if Counter(colors1) != Counter(colors2):
            return False
        adj, inc, endpoints, orientation, by_cell = self.relations
        by_color: dict[int, list[int]] = defaultdict(list)
        for i, col in enumerate(colors2):
            by_color[col].append(i)
        candidates = {i: by_color[colors1[i]] for i in range(self.n)}
        order = sorted(range(self.n), key=lambda i: (len(candidates[i]), i))
        mapping: dict[int, int] = {}

        def consistent(cell: int, target: int) -> bool:
            for other in adj[cell]:
                if other not in mapping:
                    continue
                m = mapping[other]
                if ((cell, other) in inc) != ((target, m) in inc):
                    return False
                if ((other, cell) in inc) != ((m, target) in inc):
                    return False
            eps1 = endpoints.get(cell)
            if eps1 is not None:
                eps2 = endpoints.get(target)
                if eps2 is None or len(eps1) != len(eps2):
                    return False
                assigned = {mapping[v] for v in eps1 if v in mapping}
                if not assigned <= set(eps2):
                    return False
            for (s, v, e1, e2) in by_cell.get(cell, ()):
                trial = (
                    mapping.get(v, target if v == cell else None),
                    mapping.get(e1, target if e1 == cell else None),
                    mapping.get(e2, target if e2 == cell else None),
                )
                if None not in trial and (s, *trial) not in orientation:
                    return False
            return True

        return _backtrack(order, candidates, consistent, mapping, lambda: True)


def _canonize(core: CellArrays) -> tuple[np.ndarray, tuple | None]:
    """The least leaf of the search: its ranks (a discrete colouring),
    and its form when leaves had to be compared, else ``None``.

    Branching reads the labels of :meth:`_Search.partition`, not dense
    ranks: they order the classes alike, and two colourings with the
    same class sizes in colour order get the same labels, so orbit
    pruning and the choice of class to branch on are those of dense
    ranks."""
    search = _Search(core)
    best: list = [None, None]  # ranks, form

    def rec(seeds: dict[int, int], labels: list[int], groups: list) -> None:
        if not groups:  # discrete: the labels are the ranks
            ranks = np.array(labels, dtype=np.int64)
            if best[0] is None:
                best[0] = ranks
                return
            if best[1] is None:
                best[1] = search.leaves.form(best[0])
            form = search.leaves.form(ranks)
            if form < best[1]:
                best[:] = [ranks, form]
            return
        _start, cells = groups[0]  # the least colour still shared
        step = len(seeds)
        # Orbit pruning: explore one candidate per automorphism orbit.
        reps: list[tuple[dict[int, int], list[int], list]] = []
        for x in sorted(cells):
            seeded = {**seeds, x: step}
            colours, shared = search.partition(seeded)
            if any(search.automorphic(colours, other) for _s, other, _g in reps):
                continue
            reps.append((seeded, colours, shared))
        for seeded, colours, shared in reps:
            rec(seeded, colours, shared)

    rec({}, *search.partition({}))
    return best[0], best[1]


# ---------------------------------------------------------------------------
# The form of a leaf: as a tuple, and as the text of its repr.
# ---------------------------------------------------------------------------

# Orientation rows sort by the sense's text: the sort key of a sense
# code is the rank of its text.
_SENSE_TEXT = tuple(sorted(SENSES))
_SENSE_KEY = np.array([_SENSE_TEXT.index(s) for s in SENSES], dtype=np.int64)
_SENSE_ROW_TEXT = tuple(f"('{s}', %d, %d, %d)" for s in _SENSE_TEXT)
_ENDPOINT_TEXT = ("(%d, ())", "(%d, (%d,))", "(%d, (%d, %d))")

# Rows per piece of the streamed text (about 1 MB of cells for 196
# names).
_CELLS_PER_PIECE = 1024


class _Leaves:
    """The serialization of a core's leaves: the form tuple and its
    text, relabeled by a discrete colouring."""

    def __init__(self, core: CellArrays):
        self.core = core
        n = core.n_cells
        listed = core.endpoints[:, 0] != -1
        ends = core.endpoints[listed]
        self.counts = (ends >= 0).sum(axis=1)
        # A listed edge's row (edge, v1, v2); cell n stands for "no
        # endpoint" and sorts after every cell.
        self.edge_rows = np.empty((len(ends), 3), dtype=np.int64)
        self.edge_rows[:, 0] = np.flatnonzero(core.dims == 1)[listed]
        self.edge_rows[:, 1:] = np.where(ends >= 0, ends, n)
        self.sense = _SENSE_KEY[core.orientation[:, :1]]
        self.n_first = int(np.count_nonzero(self.sense == 0))
        self.to = np.full(n + 1, n, dtype=np.int64)

    def relabel(self, ranks: np.ndarray) -> tuple:
        """The relations relabeled by *ranks*: the cells in canonical
        order, the exterior's position, the listed edges' rows ``(edge,
        v1, v2)`` (endpoints ascending, then *n*) with their endpoint
        counts, the incidence rows, and the orientation rows ``(sense
        key, v, e1, e2)``, each sorted.  The orientation is that of
        whichever global sense sorts smaller; it is the form's last
        component, so that sense gives the smaller form."""
        core, to = self.core, self.to
        to[:-1] = ranks
        edges = to[self.edge_rows]
        edges[:, 1:].sort(axis=1)
        by_edge = np.argsort(edges[:, 0])
        inc = to[core.incidence]
        inc = inc[np.lexsort(inc.T[::-1])]
        ori = np.concatenate((self.sense, to[core.orientation[:, 1:]]), axis=1)
        if len(ori):
            ori = ori[np.lexsort(ori.T[::-1])]
            # The mirror swaps the senses: its run of the first sense key
            # is the run of the second above, and the other way round,
            # both runs already sorted.
            k = self.n_first
            mirrored = np.concatenate((ori[k:], ori[:k]))
            mirrored[:, 0] = np.arange(len(ori)) >= len(ori) - k
            differ = np.flatnonzero((ori != mirrored).any(axis=1))
            if len(differ) and tuple(mirrored[differ[0]]) < tuple(ori[differ[0]]):
                ori = mirrored
        return (
            np.argsort(ranks),
            int(ranks[core.exterior]),
            edges[by_edge].tolist(),
            self.counts[by_edge].tolist(),
            inc,
            ori,
        )

    def form(self, ranks: np.ndarray) -> tuple:
        """The leaf's serialization, the tuple :func:`canonical_form`
        returns."""
        order, ext, edges, counts, inc, ori = self.relabel(ranks)
        return (
            self.core.names,
            tuple(zip(self.core.dims[order].tolist(), self._labels(order))),
            ext,
            tuple((e, (a, b)[:c]) for (e, a, b), c in zip(edges, counts)),
            tuple(map(tuple, inc.tolist())),
            tuple((_SENSE_TEXT[s], v, e1, e2) for s, v, e1, e2 in ori.tolist()),
        )

    def text(self, ranks: np.ndarray) -> Iterator[bytes]:
        """``repr(self.form(ranks)).encode()`` in consecutive pieces,
        each covering at most :data:`_CELLS_PER_PIECE` rows of a
        component."""
        order, ext, edges, counts, inc, ori = self.relabel(ranks)
        yield f"({self.core.names!r}, ".encode()
        yield from _tuple_text(order, self._cells_text)
        yield f", {ext}, ".encode()
        yield from _tuple_text(
            np.arange(len(edges)),
            lambda run: ", ".join(
                [
                    _ENDPOINT_TEXT[counts[k]] % tuple(edges[k][: counts[k] + 1])
                    for k in run.tolist()
                ]
            ).encode(),
        )
        yield b", "
        yield from _tuple_text(
            inc,
            lambda rows: _rows_text(["(%d, %d)"] * len(rows), rows),
        )
        yield b", "
        yield from _tuple_text(
            ori,
            lambda rows: _rows_text(
                map(_SENSE_ROW_TEXT.__getitem__, rows[:, 0].tolist()),
                rows[:, 1:],
            ),
        )
        yield b")"

    def _labels(self, cells: np.ndarray) -> list:
        labels = self.core.labels
        if isinstance(labels, np.ndarray):
            return label_tuples(labels[cells])
        return [labels[i] for i in cells.tolist()]

    def _cells_text(self, cells: np.ndarray) -> bytes:
        """``", ".join(map(repr, pairs))`` of the ``(dim, label)`` pairs
        of a nonempty run of *cells*.

        With coded labels of ``m >= 2`` names, every cell prints as
        ``(d, ('x', …, 'x')), `` of ``5m + 7`` bytes: the run is one byte
        matrix, a template row with the dimension digits and the label
        characters written into their columns.  Dimensions are 0, 1 or
        2.  Any other run is written by ``repr``.
        """
        labels = self.core.labels
        dims = self.core.dims[cells]
        if not isinstance(labels, np.ndarray) or labels.shape[1] < 2:
            pairs = zip(dims.tolist(), self._labels(cells))
            return ", ".join(map(repr, pairs)).encode()
        m = labels.shape[1]
        template = ("(0, ('" + "o', '" * (m - 1) + "o')), ").encode("ascii")
        rows = np.tile(np.frombuffer(template, dtype=np.uint8), (len(cells), 1))
        rows[:, 1] += dims.astype(np.uint8)
        rows[:, 6 : 5 * m + 2 : 5] = LABEL_ASCII[labels[cells]]
        return rows.tobytes()[:-2]


def _tuple_text(items, write) -> Iterator[bytes]:
    """The repr of a tuple of ``len(items)`` elements, whose runs of at
    most :data:`_CELLS_PER_PIECE` items ``write`` turns into the
    elements' joined reprs."""
    if not len(items):
        yield b"()"
        return
    yield b"("
    for start in range(0, len(items), _CELLS_PER_PIECE):
        if start:
            yield b", "
        yield write(items[start : start + _CELLS_PER_PIECE])
    yield b",)" if len(items) == 1 else b")"


def _rows_text(formats, values: np.ndarray) -> bytes:
    """The ", "-joined *formats*, filled with the integers of *values*
    in row order."""
    return (", ".join(formats) % tuple(values.ravel().tolist())).encode()


def canonical_form(t: TopologicalInvariant) -> tuple:
    """A complete isomorphism invariant of ``T_I``.

    Two invariants have equal canonical forms **iff** they are isomorphic
    in the sense of Theorem 3.4 (identity on region names, global CW/CCW
    flip allowed).  The form is the least leaf serialization of ``T``
    and of its mirror image.  Refinement never reads the orientation,
    and orbit pruning answers alike for both senses, so ``T`` and its
    mirror explore the same search tree: it is walked once, and each
    leaf serializes both senses and keeps the smaller.  The result is a
    hashable nested tuple; it is computed once per invariant and
    memoized on the object.
    """
    cached = t.__dict__.get("_canonical_form_cache")
    if cached is not None:
        return cached
    ranks, form = _canonical_leaf(t)
    if form is None:
        form = _Leaves(t.core).form(ranks)
    object.__setattr__(t, "_canonical_form_cache", form)
    return form


def _canonical_leaf(t: TopologicalInvariant) -> tuple[np.ndarray, tuple | None]:
    """:func:`_canonize` of the invariant's core, memoized on it."""
    cached = t.__dict__.get("_canonical_leaf_cache")
    if cached is None:
        with span("invariant.canonicalize"):
            cached = _canonize(t.core)
        object.__setattr__(t, "_canonical_leaf_cache", cached)
    return cached


def canonical_hash(t: TopologicalInvariant) -> str:
    """A hex digest of :func:`canonical_form` — the bucket key used by
    the batch pipeline's equivalence grouping.

    The digest is ``sha256(repr(canonical_form(t)).encode())`` byte for
    byte, but the text is written from the core's arrays by
    :meth:`_Leaves.text`, in pieces fed to the hash as they are written;
    neither the text nor the form tuple is held whole."""
    cached = t.__dict__.get("_canonical_hash_cache")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for piece in _Leaves(t.core).text(_canonical_leaf(t)[0]):
        h.update(piece)
    digest = h.hexdigest()
    object.__setattr__(t, "_canonical_hash_cache", digest)
    return digest
