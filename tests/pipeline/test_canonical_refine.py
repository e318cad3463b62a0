"""Colour refinement on the integer core against the string-keyed
reference.

The canonical form reads its leaf order from the refinement's colour
numbers, so the core's refinement must give the reference's ranks
exactly, not merely the same partition.  The reference below is the
refinement the canonization ran before it moved onto the core: cells
are string ids in sorted order, and every round re-ranks every cell's
``(colour, sorted neighbour colours)``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariant
from repro.datasets import all_figures, grid_instance
from repro.invariant import TopologicalInvariant
from repro.invariant.canonical import _Search
from test_canonical_text import base_tuples, rank
from test_properties import instances


def reference_refine(t: TopologicalInvariant, seeds: dict[int, int]) -> list[int]:
    """Stable colouring of *t* seeded by *seeds* (cell index -> branch
    step), cells numbered in sorted-id order."""
    cells = sorted(t.all_cells())
    index = {c: i for i, c in enumerate(cells)}
    adj: list[set[int]] = [set() for _ in cells]
    for a, b in t.incidences:
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    base_ranks = rank(base_tuples(t))
    ranks = rank([(base_ranks[i], seeds.get(i, -1)) for i in range(len(cells))])
    while True:
        keys = [
            (ranks[i], tuple(sorted(ranks[j] for j in adj[i])))
            for i in range(len(cells))
        ]
        new_ranks = rank(keys)
        if len(set(new_ranks)) == len(set(ranks)):
            return new_ranks
        ranks = new_ranks


def _check(t: TopologicalInvariant, seeds: dict[int, int]) -> None:
    # The core's partition labels each class by where its run starts,
    # so their dense ranks are the colours.
    labels, _shared = _Search(t.core).partition(seeds)
    assert rank(labels) == reference_refine(t, seeds)


@st.composite
def seeded_invariants(draw):
    """An invariant of a drawn instance and a drawn seed map: a few
    distinct cells, each given a distinct branch step."""
    t = invariant(draw(instances()))
    n = sum(t.counts())
    cells = draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 4))
    )
    return t, {c: step for step, c in enumerate(cells)}


@settings(max_examples=60)
@given(seeded_invariants())
def test_core_refinement_gives_the_reference_ranks(case):
    t, seeds = case
    _check(t, seeds)
    _check(t, {})


def test_figures_and_grids_unseeded():
    for inst in [*all_figures().values(), grid_instance(4), grid_instance(6)]:
        _check(invariant(inst), {})


def test_relation_built_invariant_with_seeds():
    # An invariant built from relations (not from a complex) numbers its
    # cells by its own ids.
    t = invariant(all_figures()["fig_1c"])
    relabeled = t.relabeled({c: f"x{c}" for c in t.all_cells()})
    for cell in range(0, sum(t.counts()), 3):
        _check(relabeled, {cell: 0})
