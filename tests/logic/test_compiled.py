"""Equivalence and behavior tests for the compiled query engine.

The contract of :mod:`repro.logic.compiled` is bit-identical answers to
the reference evaluators (``evaluate_*_reference``, the seed oracles)
on every input.  This suite checks the paper's example queries (4.1,
4.2, the Fig. 7 witness queries), random formulas via hypothesis,
unbound variables, the universe cache, and the ``query.*`` counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.figures import (
    fig_1a,
    fig_1b,
    fig_1c,
    fig_1d,
    fig_7a,
    fig_7a_mirrored,
    fig_7b_adjacent,
    fig_7b_interleaved,
)
from repro.datasets.generators import mixed_corpus
from repro.errors import QueryError
from repro.instrument import counter_delta, counter_snapshot
from repro.logic import (
    And,
    AndF,
    ExistsName,
    ExistsRegion,
    Ext,
    ForAllName,
    ForAllRegion,
    Implies,
    NameConst,
    NameEq,
    NameVar,
    Not,
    Or,
    OrF,
    NotF,
    PLessX,
    PLessY,
    PRegion,
    PointExists,
    PointForAll,
    PointVar,
    RLess,
    RRegion,
    RealExists,
    RealForAll,
    RealVar,
    RegionVar,
    Rel,
    connected_intersection_query,
    disjoint_paths_query,
    evaluate_cells,
    evaluate_cells_reference,
    evaluate_point,
    evaluate_point_reference,
    evaluate_real,
    evaluate_real_reference,
    evaluate_real_via_points,
    evaluate_rect,
    evaluate_rect_reference,
    parse,
    three_disjoint_paths_negation,
    triple_intersection_query,
)
from repro.logic.compiled import (
    _rect_rect_atom,
    clear_universe_cache,
    compiled_universe,
    counters,
)
from repro.logic.rect_eval import _atom_holds, instance_values
from repro.regions import Rect, RectUnion, SpatialInstance


@pytest.fixture(autouse=True)
def _fresh_universe_cache():
    clear_universe_cache()
    yield
    clear_universe_cache()


# -- paper examples, both engines -------------------------------------------


class TestPaperExamples:
    """Examples 4.1 / 4.2 and the Fig. 7 witness queries: compiled and
    reference agree, and give the paper's answers."""

    @pytest.mark.parametrize(
        "make_query,instance,expected",
        [
            (triple_intersection_query, fig_1a, True),
            (triple_intersection_query, fig_1b, False),
            (connected_intersection_query, fig_1c, True),
            (connected_intersection_query, fig_1d, False),
        ],
    )
    def test_examples_41_42(self, make_query, instance, expected):
        q = make_query()
        inst = instance()
        assert evaluate_cells_reference(q, inst) is expected
        assert evaluate_cells(q, inst) is expected

    @pytest.mark.parametrize(
        "instance", [fig_7b_adjacent, fig_7b_interleaved]
    )
    def test_fig_7b_witness(self, instance):
        q = disjoint_paths_query()
        inst = instance()
        assert evaluate_cells(q, inst) == evaluate_cells_reference(q, inst)

    @pytest.mark.parametrize("instance", [fig_7a, fig_7a_mirrored])
    def test_fig_7a_witness(self, instance):
        q = three_disjoint_paths_negation()
        inst = instance()
        assert evaluate_cells(q, inst) == evaluate_cells_reference(q, inst)


# -- random formulas: compiled == reference ----------------------------------

_CORPUS = mixed_corpus(8, seed=2)
_RELATIONS = (
    "disjoint",
    "meet",
    "overlap",
    "equal",
    "inside",
    "contains",
    "coveredBy",
    "covers",
    "connect",
    "subset",
)


@st.composite
def _cell_formula(draw, names, depth, rvars=(), nvars=(), nested=False):
    """A FO(Region, Region') formula over the bound variables *rvars*
    and *nvars*, of region quantifier depth ≤ depth, with at most two
    nested name quantifiers whose variables appear in ``ext(name
    variable)`` terms and name equalities.  Connectives take
    quantifier-free operands unless *nested*."""
    kinds = ("atom", "not", "and", "or", "implies")
    if depth > 0:
        kinds += ("exists", "forall")
    if len(nvars) < 2:
        kinds += ("exists_name", "forall_name")
    kind = draw(st.sampled_from(kinds))
    inner = depth if nested else 0
    if kind in ("exists", "forall"):
        var = f"v{len(rvars)}"
        body = draw(
            _cell_formula(names, depth - 1, rvars + (var,), nvars, nested)
        )
        cls = ExistsRegion if kind == "exists" else ForAllRegion
        return cls(var, body)
    if kind in ("exists_name", "forall_name"):
        var = f"n{len(nvars)}"
        body = draw(
            _cell_formula(names, depth, rvars, nvars + (var,), nested)
        )
        cls = ExistsName if kind == "exists_name" else ForAllName
        return cls(var, body)
    if kind == "not":
        return Not(draw(_cell_formula(names, inner, rvars, nvars, nested)))
    if kind in ("and", "or", "implies"):
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(
            draw(_cell_formula(names, inner, rvars, nvars, nested)),
            draw(_cell_formula(names, inner, rvars, nvars, nested)),
        )
    if nvars and draw(st.booleans()):
        name_terms = [NameConst(n) for n in names] + [
            NameVar(v) for v in nvars
        ]
        return NameEq(
            draw(st.sampled_from(name_terms)),
            draw(st.sampled_from(name_terms)),
        )
    terms = (
        [Ext(NameConst(n)) for n in names]
        + [Ext(NameVar(v)) for v in nvars]
        + [RegionVar(v) for v in rvars]
    )
    rel = draw(st.sampled_from(_RELATIONS))
    left = draw(st.sampled_from(terms))
    right = draw(st.sampled_from(terms))
    return Rel(rel, left, right)


def _assert_cells_agree(q, inst, **kwargs):
    try:
        want = evaluate_cells_reference(q, inst, **kwargs)
    except QueryError:
        with pytest.raises(QueryError):
            evaluate_cells(q, inst, **kwargs)
        return
    assert evaluate_cells(q, inst, **kwargs) == want


class TestRandomCellFormulas:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_compiled_matches_reference(self, data):
        inst = _CORPUS[data.draw(st.integers(0, len(_CORPUS) - 1))]
        names = sorted(inst.names())
        q = data.draw(_cell_formula(tuple(names), depth=2))
        _assert_cells_agree(q, inst, max_faces=2, max_regions=50_000)

    #: Depth 3 is the ∀∀∃ shape of Example 4.2: two outer region
    #: quantifiers over a body whose connectives may hold the third, so
    #: candidate bitset rows are keyed by two outer bindings.  The
    #: figures it separates join the corpus.
    DEPTH_3 = _CORPUS + [fig_1c(), fig_1d()]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_compiled_matches_reference_at_depth_3(self, data):
        inst = self.DEPTH_3[data.draw(st.integers(0, len(self.DEPTH_3) - 1))]
        names = tuple(sorted(inst.names()))
        quantifiers = st.sampled_from((ExistsRegion, ForAllRegion))
        outer, middle = data.draw(quantifiers), data.draw(quantifiers)
        body = data.draw(
            _cell_formula(names, 1, ("v0", "v1"), nested=True)
        )
        q = outer("v0", middle("v1", body))
        _assert_cells_agree(q, inst, max_faces=2, max_regions=50_000)


    #: Sentences whose answer turns on a candidate bitset row built
    #: for an outer binding other than the first: a row reused across
    #: region or name bindings changes them.  Random formulas over the
    #: small corpus universes are mostly decided at the first binding.
    OUTER_BINDINGS = (
        "exists r . exists s . subset(s, r) and not equal(s, r)",
        "forall r . exists s . connect(s, r) and not subset(s, r)",
        "forall name a . exists r . subset(r, a)",
        "exists name a, b . not (a = b) and "
        "exists r . subset(r, a) and subset(r, b)",
        "exists name a, b . not (a = b) and forall r . forall s . "
        "subset(r, a) and subset(r, b) and subset(s, a) and subset(s, b) "
        "-> exists t . subset(t, a) and subset(t, b) and connect(t, r) "
        "and connect(t, s)",
    )

    @pytest.mark.parametrize("text", OUTER_BINDINGS)
    def test_rows_follow_outer_bindings(self, text):
        q = parse(text)
        for inst in self.DEPTH_3:
            _assert_cells_agree(q, inst, max_faces=2, max_regions=50_000)


@st.composite
def _real_formula(draw, names, depth, rvars=()):
    quantified = depth > 0 and (not rvars or draw(st.booleans()))
    if quantified:
        var = f"x{len(rvars)}"
        body = draw(_real_formula(names, depth - 1, rvars + (var,)))
        cls = draw(st.sampled_from((RealExists, RealForAll)))
        return cls(var, body)
    kind = draw(st.sampled_from(("atom", "not", "and", "or")))
    if kind == "not":
        return NotF(draw(_real_formula(names, 0, rvars)))
    if kind in ("and", "or"):
        cls = AndF if kind == "and" else OrF
        return cls(
            draw(_real_formula(names, 0, rvars)),
            draw(_real_formula(names, 0, rvars)),
        )
    if draw(st.booleans()):
        return RLess(
            RealVar(draw(st.sampled_from(rvars))),
            RealVar(draw(st.sampled_from(rvars))),
        )
    return RRegion(
        draw(st.sampled_from(names)),
        RealVar(draw(st.sampled_from(rvars))),
        RealVar(draw(st.sampled_from(rvars))),
    )


@st.composite
def _point_formula(draw, names, depth, pvars=()):
    quantified = depth > 0 and (not pvars or draw(st.booleans()))
    if quantified:
        var = f"p{len(pvars)}"
        body = draw(_point_formula(names, depth - 1, pvars + (var,)))
        cls = draw(st.sampled_from((PointExists, PointForAll)))
        return cls(var, body)
    kind = draw(st.sampled_from(("atom", "not", "and")))
    if kind == "not":
        return NotF(draw(_point_formula(names, 0, pvars)))
    if kind == "and":
        return AndF(
            draw(_point_formula(names, 0, pvars)),
            draw(_point_formula(names, 0, pvars)),
        )
    which = draw(st.integers(0, 2))
    if which == 0:
        return PRegion(
            draw(st.sampled_from(names)),
            PointVar(draw(st.sampled_from(pvars))),
        )
    cls = PLessX if which == 1 else PLessY
    return cls(
        PointVar(draw(st.sampled_from(pvars))),
        PointVar(draw(st.sampled_from(pvars))),
    )


class TestRandomPointlikeFormulas:
    #: Small instances only: the reference point evaluator is
    #: O((2n+1)^(2 depth)) in the breakpoint count n.
    SMALL = [inst for inst in _CORPUS if len(instance_values(inst)) <= 8]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_real_compiled_matches_reference(self, data):
        inst = _CORPUS[data.draw(st.integers(0, len(_CORPUS) - 1))]
        names = tuple(sorted(inst.names()))
        q = data.draw(_real_formula(names, depth=2))
        assert evaluate_real(q, inst) == evaluate_real_reference(q, inst)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_point_compiled_matches_reference(self, data):
        inst = self.SMALL[data.draw(st.integers(0, len(self.SMALL) - 1))]
        names = tuple(sorted(inst.names()))
        q = data.draw(_point_formula(names, depth=2))
        assert evaluate_point(q, inst) == evaluate_point_reference(q, inst)


@st.composite
def _rect_formula(draw, names, depth, rvars=()):
    quantified = depth > 0 and (not rvars or draw(st.booleans()))
    if quantified:
        var = f"r{len(rvars)}"
        body = draw(_rect_formula(names, depth - 1, rvars + (var,)))
        cls = draw(st.sampled_from((ExistsRegion, ForAllRegion)))
        return cls(var, body)
    kind = draw(st.sampled_from(("atom", "not", "and", "or")))
    if kind == "not":
        return Not(draw(_rect_formula(names, 0, rvars)))
    if kind in ("and", "or"):
        cls = And if kind == "and" else Or
        return cls(
            draw(_rect_formula(names, 0, rvars)),
            draw(_rect_formula(names, 0, rvars)),
        )
    terms = [Ext(NameConst(n)) for n in names] + [
        RegionVar(v) for v in rvars
    ]
    return Rel(
        draw(st.sampled_from(_RELATIONS)),
        draw(st.sampled_from(terms)),
        draw(st.sampled_from(terms)),
    )


class TestRandomRectFormulas:
    #: Depth 1 only against the reference: each reference rectangle
    #: quantifier enumerates O(n^2 m^2) boxes, so nested quantifiers
    #: take minutes on the seed path (exactly what the compiled engine
    #: exists to fix; nested shapes are cross-checked via the point
    #: translation in test_pointlogic.py).
    RECTILINEAR = [
        inst
        for inst in _CORPUS
        if all(
            isinstance(r, (Rect, RectUnion)) for _n, r in inst.items()
        )
        and len(instance_values(inst)) <= 8
    ]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rect_compiled_matches_reference(self, data):
        inst = self.RECTILINEAR[
            data.draw(st.integers(0, len(self.RECTILINEAR) - 1))
        ]
        names = tuple(sorted(inst.names()))
        q = data.draw(_rect_formula(names, depth=1))
        assert evaluate_rect(q, inst) == evaluate_rect_reference(q, inst)

    @settings(max_examples=50, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 4)),
            min_size=4,
            max_size=4,
        ),
        rel=st.sampled_from(_RELATIONS),
    )
    def test_box_box_atoms_match_grid_walk(self, spans, rel):
        (x1, w1), (y1, h1), (x2, w2), (y2, h2) = spans
        a = (x1, y1, x1 + w1, y1 + h1)
        b = (x2, y2, x2 + w2, y2 + h2)
        assert _rect_rect_atom(rel, a, b) == _atom_holds(
            rel, Rect(*a), Rect(*b)
        )


# -- translated paper queries (Prop. 5.7 / Thm. 5.8 shapes) ------------------


class TestTranslationEquivalence:
    def test_thm_58_single_quantifier_queries_agree(self):
        inst = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
        for text in [
            "exists r . subset(r, A) and subset(r, B)",
            "exists r . subset(r, A) and not connect(r, B)",
        ]:
            q = parse(text)
            assert evaluate_rect(q, inst) == evaluate_rect_reference(
                q, inst
            ), text

    def test_thm_58_nested_query_agrees_with_reference_answer(self):
        # The reference evaluator needs ~30s on this nested query; its
        # answer (True: shrink r into A \ B, s into B \ A) is asserted
        # directly, and the rect↔point translation agreement in
        # test_pointlogic.py independently cross-checks the engine.
        inst = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
        q = parse(
            "exists r, s . subset(r, A) and subset(s, B) and disjoint(r, s)"
        )
        assert evaluate_rect(q, inst) is True

    def test_nested_forall_agrees_with_reference(self):
        inst = SpatialInstance({"A": Rect(0, 0, 2, 2)})
        q = parse("exists r . forall s . subset(s, r) -> connect(s, A)")
        assert evaluate_rect(q, inst) == evaluate_rect_reference(q, inst)


# -- unbound variables -------------------------------------------------------


class TestUnboundVariables:
    """A point/real variable that no quantifier binds is a structured
    QueryError from both engines, as in the cell and rect logics."""

    QUADRANT = SpatialInstance({"A": Rect(1, -3, 3, -1)})

    @pytest.mark.parametrize(
        "evaluate", [evaluate_real, evaluate_real_reference]
    )
    def test_real(self, evaluate):
        with pytest.raises(QueryError, match="sentences"):
            evaluate(RRegion("A", RealVar("x"), RealVar("y")), self.QUADRANT)
        with pytest.raises(QueryError, match="sentences"):
            evaluate(
                RealExists("x", RLess(RealVar("x"), RealVar("y"))),
                self.QUADRANT,
            )

    @pytest.mark.parametrize(
        "evaluate", [evaluate_point, evaluate_point_reference]
    )
    def test_point(self, evaluate):
        with pytest.raises(QueryError, match="sentences"):
            evaluate(PRegion("A", PointVar("p")), self.QUADRANT)

    def test_via_points(self):
        with pytest.raises(QueryError, match="sentences"):
            evaluate_real_via_points(
                RealExists("x", RRegion("A", RealVar("x"), RealVar("y"))),
                self.QUADRANT,
            )


# -- universe cache ----------------------------------------------------------


class TestUniverseCache:
    def test_warm_lookup_hits_cache(self):
        inst = fig_1a()
        before = counter_snapshot()
        u1 = compiled_universe(inst)
        u2 = compiled_universe(inst)
        delta = counter_delta(before, counter_snapshot())
        assert delta.get("query.universe_misses", 0) == 1
        assert delta.get("query.universe_hits", 0) == 1
        assert [r.key for r in u1.regions] == [r.key for r in u2.regions]

    def test_budget_rechecked_on_cache_hit(self):
        inst = fig_1a()
        u = compiled_universe(inst)
        with pytest.raises(QueryError):
            compiled_universe(inst, max_regions=u.candidates_seen - 1)

    def test_budget_error_matches_reference_message(self):
        inst = fig_1a()
        with pytest.raises(QueryError) as compiled_err:
            compiled_universe(inst, max_regions=1)
        with pytest.raises(QueryError) as reference_err:
            evaluate_cells_reference(
                triple_intersection_query(), inst, max_regions=1
            )
        assert str(compiled_err.value) == str(reference_err.value)


# -- counters ----------------------------------------------------------------


class TestCounters:
    def test_query_counters_flow_through_instrument(self):
        inst = fig_1a()
        before = counter_snapshot()
        evaluate_cells(triple_intersection_query(), inst)
        delta = counter_delta(before, counter_snapshot())
        assert delta.get("query.regions_enumerated", 0) > 0
        assert delta.get("query.atoms_evaluated", 0) > 0
        assert delta.get("query.memo_misses", 0) > 0

    def test_pruning_counter_moves_on_bounded_search(self):
        inst = SpatialInstance({"A": Rect(0, 0, 2, 2), "B": Rect(4, 0, 6, 2)})
        q = parse("exists r, s . subset(r, A) and subset(s, B) and meet(r, s)")
        before = counters.candidates_pruned
        evaluate_rect(q, inst)
        assert counters.candidates_pruned > before
