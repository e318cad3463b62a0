"""Differential for class universes: a refinement-0 cell sentence asked
of an instance's geometry, of its ``T_I``, of a relabeled ``T_I`` and of
the ``T_I`` decoded from a segment-store record gets one answer, and
one budget refusal.

Theorem 5.6 is why the last three may share a universe: the answer is a
function of ``T_I``.  The cell numbering differs between them (a
relabeling sorts the cells differently, a store record carries fresh
dense ids), and the universe cache is cleared before each source so
each enumerates under its own numbering.  ``candidates_seen`` counts the
connected face sets of at most ``max_faces`` faces, each once, so the
``max_regions`` refusal cannot move with the numbering either.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings

from perfbench.inputs import cell_queries, translated
from repro import canonical_hash, instance_key, invariant
from repro.datasets import all_figures
from repro.errors import QueryError
from repro.instrument import counter_delta, counter_snapshot
from repro.logic import evaluate_cells_reference
from repro.logic.compiled import (
    clear_universe_cache,
    compiled_universe,
    evaluate_cells,
)
from repro.store import SegmentStore

from tests.strategies import instances

#: Budget for the drawn instances, as in the region-level differential.
DRAW_BUDGET = 3000


@pytest.fixture(autouse=True)
def _fresh_universe_cache():
    clear_universe_cache()
    yield
    clear_universe_cache()


def _relabeled(t, seed):
    """*t* with its cell ids permuted among themselves."""
    ids = sorted(t.all_cells())
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    return t.relabeled(dict(zip(ids, shuffled)))


def _sources(instance, root):
    """The four sources of one instance, by name."""
    t = invariant(instance)
    key = instance_key(instance)
    with SegmentStore(root) as store:
        store.put(key, t)
    with SegmentStore(root) as store:
        stored = store.get(key)
    return {
        "geometry": instance,
        "T_I": t,
        "relabeled": _relabeled(t, seed=len(t.all_cells())),
        "stored": stored,
    }


def _answers(sentence, sources, **kwargs):
    """Each source's answer, or ``QueryError`` when it refuses, every
    one enumerated afresh."""
    out = {}
    for name, source in sources.items():
        clear_universe_cache()
        try:
            out[name] = evaluate_cells(sentence, source, **kwargs)
        except QueryError:
            out[name] = QueryError
    return out


def _assert_sources_agree(instance, root, budget=None, reference=False):
    sources = _sources(instance, root)
    try:
        seen = compiled_universe(instance, max_regions=budget or 1 << 40)
    except QueryError:
        # Beyond the drawn budget: every source refuses it alike.
        for sentence in cell_queries(instance):
            answers = _answers(sentence, sources, max_regions=budget)
            assert set(answers.values()) == {QueryError}
        return
    seen = seen.candidates_seen
    for sentence in cell_queries(instance):
        answers = _answers(sentence, sources, max_regions=seen)
        assert len(set(answers.values())) == 1, (sentence, answers)
        if reference:
            want = evaluate_cells_reference(sentence, instance)
            assert answers["geometry"] == want, sentence
        refusals = _answers(sentence, sources, max_regions=seen - 1)
        assert set(refusals.values()) == {QueryError}, (sentence, refusals)


@pytest.mark.parametrize("name", sorted(all_figures()))
def test_figures(name, tmp_path):
    _assert_sources_agree(all_figures()[name], tmp_path, reference=True)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_drawn_instances(instance):
    with tempfile.TemporaryDirectory() as root:
        _assert_sources_agree(instance, root, budget=DRAW_BUDGET)


def test_cached_class_universe_refuses_like_a_fresh_one():
    t = invariant(all_figures()["fig_1a"])
    seen = compiled_universe(t).candidates_seen
    moved = _relabeled(t, seed=3)
    assert compiled_universe(moved, max_regions=seen) is compiled_universe(t)
    with pytest.raises(QueryError):
        compiled_universe(moved, max_regions=seen - 1)


def test_translated_copies_share_one_universe():
    inst = all_figures()["fig_1c"]
    first, second = invariant(inst), invariant(translated(inst, 500, -70))
    assert instance_key(inst) != instance_key(translated(inst, 500, -70))
    before = counter_snapshot()
    compiled_universe(first)
    middle = counter_snapshot()
    compiled_universe(second)
    after = counter_snapshot()
    assert counter_delta(before, middle).get("query.universe_misses", 0) == 1
    assert counter_delta(middle, after).get("query.universe_misses", 0) == 0
    assert counter_delta(middle, after).get("query.universe_hits", 0) == 1


def test_refinement_needs_geometry():
    inst = all_figures()["fig_1a"]
    sentence = cell_queries(inst)[0]
    with pytest.raises(QueryError, match="geometry"):
        evaluate_cells(sentence, invariant(inst), refinement=1)


def test_invariant_function_needs_its_class_hash():
    inst = all_figures()["fig_1a"]
    with pytest.raises(QueryError, match="class_hash"):
        compiled_universe(lambda: invariant(inst))


def test_known_class_fetches_the_invariant_only_on_a_miss():
    inst = all_figures()["fig_1b"]
    t = invariant(inst)
    fetched = []

    def fetch():
        fetched.append(1)
        return t

    sentence = cell_queries(inst)[0]
    want = evaluate_cells(sentence, inst)
    class_hash = canonical_hash(t)
    for _ in range(3):
        assert evaluate_cells(sentence, fetch, class_hash=class_hash) == want
    assert fetched == [1]
