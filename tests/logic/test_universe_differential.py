"""Region-level differential: compiled universe vs reference enumeration.

The answer-level suites (``test_compiled.py``) compare what formulas
read, so a wrong region that no formula reads would pass them.  Here the
compiled enumeration (:meth:`CompiledCellModel.enumerate_universe`:
incremental interiors and a bit-parallel complement test) is compared
region by region with the reference :meth:`CellModel.all_disc_regions`:
the same regions in the same order, interiors and closures as sets of
cell ids, and the same budget refusal — both pass at the compiled
``candidates_seen`` and both raise :class:`QueryError` one below it.
"""

import pytest
from hypothesis import given, settings

from repro.datasets import all_figures, fig_1a, fig_1b, fig_1c, fig_1d, overlap_chain
from repro.errors import QueryError
from repro.invariant import TopologicalInvariant
from repro.logic.cell_eval import CellModel, grid_refined_complex
from repro.logic.compiled import CompiledCellModel

from tests.strategies import instances

#: Budget for the drawn instances: large enough for most draws, small
#: enough that a draw with many faces refuses quickly on both sides.
DRAW_BUDGET = 3000


def _cells(ids, mask):
    out = set()
    while mask:
        b = mask & -mask
        mask ^= b
        out.add(ids[b.bit_length() - 1])
    return frozenset(out)


def _assert_same_universe(instance, refinement=0, max_faces=None, budget=None):
    cx = grid_refined_complex(instance, refinement)

    def reference(max_regions):
        return CellModel(
            instance, refinement, max_faces, max_regions, complex=cx
        ).all_disc_regions()

    t = TopologicalInvariant.from_complex(cx)

    def compiled(max_regions):
        model = CompiledCellModel(t, max_faces, max_regions)
        return model.enumerate_universe()

    if budget is not None:
        try:
            compiled(budget)
        except QueryError:
            with pytest.raises(QueryError):
                reference(budget)
            return
    _, seen = compiled(1 << 40)
    regions, seen_again = compiled(seen)
    assert seen_again == seen
    ids = CompiledCellModel(t, max_faces, seen).cell_ids
    got = [(_cells(ids, r.interior), _cells(ids, r.closure)) for r in regions]
    want = [(v.interior, v.closure) for v in reference(seen)]
    assert got == want
    assert [r.key for r in regions] == list(range(len(regions)))
    with pytest.raises(QueryError):
        compiled(seen - 1)
    with pytest.raises(QueryError):
        reference(seen - 1)


@pytest.mark.parametrize("name", sorted(all_figures()))
def test_figures(name):
    _assert_same_universe(all_figures()[name])


@settings(max_examples=60, deadline=None)
@given(instances())
def test_drawn_instances(instance):
    _assert_same_universe(instance, budget=DRAW_BUDGET)


#: Refinement 1 with a face cap: the reference takes 0.65-4 s on each.
REFINED = (
    ("fig_1a", fig_1a, 3),
    ("fig_1b", fig_1b, 3),
    ("fig_1c", fig_1c, 3),
    ("fig_1d", fig_1d, 3),
    ("overlap_chain(4)", lambda: overlap_chain(4), 3),
    ("fig_1c", fig_1c, 4),
)


@pytest.mark.parametrize(
    "make, max_faces",
    [(make, mf) for _, make, mf in REFINED],
    ids=[f"{name}-mf{mf}" for name, _, mf in REFINED],
)
def test_refinement_1(make, max_faces):
    _assert_same_universe(make(), refinement=1, max_faces=max_faces)
