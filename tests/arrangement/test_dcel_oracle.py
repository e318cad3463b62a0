"""Oracle suite: the integer-keyed ``Subdivision`` == a comparator build.

``Subdivision`` orders vertices by coordinate ranks, sorts each
vertex's darts by one exact integer key per dart and sums cycle areas
in integers over a running common denominator.  The seed
kernel (``build_complex_reference``) shares the class, so neither the
kernel equivalence suite nor the complex-equality gates would see a
change in either.  The oracle here is the construction the class used
before: ``cmp_to_key(direction_compare)`` over exact ``Point``
differences, ``Fraction`` sums of the cross products, and the same
face assignment.  Every draw must agree on the rotation system, the
cycles, their areas and every face's outer and hole cycles.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given

from repro import Poly, SpatialInstance
from repro.arrangement import Subdivision, locate_in_closed_walk, planarize
from repro.datasets import circle_chain, grid_instance
from repro.geometry import Point, direction_compare
from tests.strategies import instances


class ComparatorSubdivision:
    """Rotation system, cycles, areas and faces, built with the
    comparator sort and ``Fraction`` arithmetic."""

    def __init__(self, pieces):
        self.pieces = list(pieces)
        self.vertices = sorted(
            {p for s in self.pieces for p in s.endpoints()}, key=Point.lex_key
        )
        vid = {p: i for i, p in enumerate(self.vertices)}
        tail, head = [], []
        for seg in self.pieces:
            a, b = vid[seg.a], vid[seg.b]
            tail += [a, b]
            head += [b, a]

        def direction(d):
            return self.vertices[head[d]] - self.vertices[tail[d]]

        def compare(d1, d2):
            return direction_compare(direction(d1), direction(d2))

        self.out_darts = [[] for _ in self.vertices]
        for d, t in enumerate(tail):
            self.out_darts[t].append(d)
        for darts in self.out_darts:
            darts.sort(key=functools.cmp_to_key(compare))
        rot_pos = {d: i for darts in self.out_darts for i, d in enumerate(darts)}

        def next_dart(d):
            ring = self.out_darts[tail[d ^ 1]]
            return ring[(rot_pos[d ^ 1] - 1) % len(ring)]

        cycle_of = [-1] * len(tail)
        self.cycles = []
        for start in range(len(tail)):
            if cycle_of[start] != -1:
                continue
            cycle, d = [], start
            while cycle_of[d] == -1:
                cycle_of[d] = len(self.cycles)
                cycle.append(d)
                d = next_dart(d)
            assert d == start
            self.cycles.append(cycle)
        self.cycle_area2 = [
            sum(
                (self.vertices[tail[d]].cross(self.vertices[head[d]]) for d in c),
                Fraction(0),
            )
            for c in self.cycles
        ]
        self._faces(tail)

    def _faces(self, tail):
        parent = list(range(len(self.vertices)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for k in range(len(self.pieces)):
            parent[find(tail[2 * k])] = find(tail[2 * k + 1])

        def component(c):
            return find(tail[self.cycles[c][0]])

        ccw = [c for c, a in enumerate(self.cycle_area2) if a > 0]
        contours = [c for c, a in enumerate(self.cycle_area2) if a <= 0]
        # (outer cycle, hole cycles) per face; the unbounded face is last.
        self.faces = [(c, []) for c in ccw] + [(None, [])]
        self.unbounded_face_index = len(ccw)
        for contour in contours:
            rep = self.pieces[self.cycles[contour][0] // 2].midpoint()
            inside = [
                c
                for c in ccw
                if component(c) != component(contour)
                and locate_in_closed_walk(
                    rep, [self.vertices[tail[d]] for d in self.cycles[c]]
                )
                == "in"
            ]
            best = min(inside, key=lambda c: self.cycle_area2[c], default=None)
            face = ccw.index(best) if best is not None else -1
            self.faces[face][1].append(contour)


def assert_matches_oracle(pieces) -> None:
    sub = Subdivision(pieces)
    oracle = ComparatorSubdivision(pieces)
    assert sub.vertices == oracle.vertices
    assert sub.out_darts == oracle.out_darts
    assert sub.cycles == oracle.cycles
    assert sub.cycle_area2 == oracle.cycle_area2
    assert all(type(a) is Fraction for a in sub.cycle_area2)
    assert [(f.outer_cycle, f.hole_cycles) for f in sub.faces] == oracle.faces
    assert sub.unbounded_face_index == oracle.unbounded_face_index


def _pieces(instance):
    return planarize(
        [s for _n, r in instance.items() for s in r.boundary_segments()]
    )


@given(instances())
def test_subdivision_matches_comparator_build(instance):
    assert_matches_oracle(_pieces(instance))


@pytest.mark.parametrize("n", range(2, 9))
def test_circle_chain_matches_comparator_build(n):
    """Rational circle vertices: their common denominator has 145 bits."""
    assert_matches_oracle(_pieces(circle_chain(n)))


@pytest.mark.parametrize("seed", range(3))
def test_random_rational_triangles_match_comparator_build(seed):
    """Corners with unrelated denominators, so the crossings carry
    many distinct large denominators."""
    rng = random.Random(seed)
    regions = {}
    while len(regions) < 8:
        a, b, c = (
            Point(
                Fraction(rng.randrange(2000), rng.randrange(1, 97)),
                Fraction(rng.randrange(2000), rng.randrange(1, 97)),
            )
            for _ in range(3)
        )
        if (b - a).cross(c - a) != 0:
            regions[f"T{len(regions)}"] = Poly([a, b, c])
    assert_matches_oracle(_pieces(SpatialInstance(regions)))


@pytest.mark.parametrize("k", range(2, 7))
def test_grid_matches_comparator_build(k):
    assert_matches_oracle(_pieces(grid_instance(k)))
