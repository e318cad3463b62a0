"""Point-based spatial logics (Section 5, *Relative Completeness*).

Two languages, as in the paper:

* ``FO(R, <, Region')`` — real variables, atoms ``x < y`` and
  ``a(x, y)`` ("the point (x, y) is in region a");
* ``FO(P, <x, <y, Region')`` — point variables, atoms ``p <x q``,
  ``p <y q`` and ``a(p)``.

Both are evaluated on rectilinear instances by the same order
abstraction as :mod:`repro.logic.rect_eval`: quantifiers range over the
instance's breakpoints, gap midpoints, and outer values, dynamically
extended by outer choices — complete for these S-generic structures.
The library evaluators are :func:`repro.logic.compiled.evaluate_real`
and :func:`repro.logic.compiled.evaluate_point`; this module keeps the
seed interpreters (``evaluate_*_reference``) as their oracles.

Also provided:

* :func:`real_to_point` — the Proposition 5.7 translation showing
  ``FO_M(R, <) = FO(P, <x, <y)``: every real variable is simulated by a
  pair of point variables (one on each axis), with the ``sameorder``
  glue formula from the proof.  The translation assumes the instance
  lies in the open lower-right quadrant (use :func:`shift_to_quadrant`).
* :func:`rect_to_point` — the Theorem 5.8 translation embedding
  FO(Rect, ·) into FO(P, <x, <y, ·): each rectangle variable becomes its
  two corner points.  Rect-to-rect atoms translate completely; atoms
  against named regions translate for the fragment {connect, disjoint,
  subset, overlap}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import QueryError
from ..geometry import Location, Point
from ..regions import SpatialInstance
from . import ast as rast
from .rect_eval import instance_values

__all__ = [
    "RealVar",
    "PointVar",
    "RLess",
    "RRegion",
    "PLessX",
    "PLessY",
    "PRegion",
    "NotF",
    "AndF",
    "OrF",
    "ImpliesF",
    "RealExists",
    "RealForAll",
    "PointExists",
    "PointForAll",
    "evaluate_real_reference",
    "evaluate_point_reference",
    "real_to_point",
    "evaluate_real_via_points",
    "rect_to_point",
    "hoist_conjuncts",
    "shift_to_quadrant",
]


# -- terms and formulas --------------------------------------------------------


@dataclass(frozen=True)
class RealVar:
    name: str


@dataclass(frozen=True)
class PointVar:
    name: str


class PFormula:
    def __and__(self, other):
        return AndF(self, other)

    def __or__(self, other):
        return OrF(self, other)

    def __invert__(self):
        return NotF(self)


@dataclass(frozen=True)
class RLess(PFormula):
    left: RealVar
    right: RealVar


@dataclass(frozen=True)
class RRegion(PFormula):
    region: str
    x: RealVar
    y: RealVar


@dataclass(frozen=True)
class PLessX(PFormula):
    left: PointVar
    right: PointVar


@dataclass(frozen=True)
class PLessY(PFormula):
    left: PointVar
    right: PointVar


@dataclass(frozen=True)
class PRegion(PFormula):
    region: str
    point: PointVar


@dataclass(frozen=True)
class NotF(PFormula):
    inner: PFormula


class _NaryF(PFormula):
    def __init__(self, *parts: PFormula):
        if not parts:
            raise QueryError("empty connective")
        self.parts = tuple(parts)

    def __eq__(self, other):
        return type(self) is type(other) and self.parts == other.parts

    def __hash__(self):
        return hash((type(self).__name__, self.parts))


class AndF(_NaryF):
    pass


class OrF(_NaryF):
    pass


@dataclass(frozen=True)
class ImpliesF(PFormula):
    antecedent: PFormula
    consequent: PFormula


class _QuantF(PFormula):
    def __init__(self, variable: str, body: PFormula):
        self.variable = variable
        self.body = body

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.variable == other.variable
            and self.body == other.body
        )

    def __hash__(self):
        return hash((type(self).__name__, self.variable, self.body))


class RealExists(_QuantF):
    pass


class RealForAll(_QuantF):
    pass


class PointExists(_QuantF):
    pass


class PointForAll(_QuantF):
    pass


# -- evaluation -----------------------------------------------------------------


#: Merged, sorted breakpoints of an instance — shared with
#: :mod:`repro.logic.rect_eval` and the compiled engine.
_instance_values = instance_values


def _candidates(values: list[Fraction]) -> list[Fraction]:
    if not values:
        return [Fraction(0)]
    out = [values[0] - 1]
    for a, b in zip(values, values[1:]):
        out.append(a)
        out.append((a + b) / 2)
    out.append(values[-1])
    out.append(values[-1] + 1)
    return out


def _free_vars(f: PFormula, cache: dict) -> frozenset[str]:
    """Free variable names of a point/real formula (memoized by id)."""
    got = cache.get(id(f))
    if got is not None:
        return got
    if isinstance(f, RLess):
        out = frozenset((f.left.name, f.right.name))
    elif isinstance(f, RRegion):
        out = frozenset((f.x.name, f.y.name))
    elif isinstance(f, (PLessX, PLessY)):
        out = frozenset((f.left.name, f.right.name))
    elif isinstance(f, PRegion):
        out = frozenset((f.point.name,))
    elif isinstance(f, NotF):
        out = _free_vars(f.inner, cache)
    elif isinstance(f, (AndF, OrF)):
        out = frozenset().union(
            *(_free_vars(p, cache) for p in f.parts)
        )
    elif isinstance(f, ImpliesF):
        out = _free_vars(f.antecedent, cache) | _free_vars(
            f.consequent, cache
        )
    elif isinstance(f, _QuantF):
        out = _free_vars(f.body, cache) - {f.variable}
    else:
        raise QueryError(f"unknown formula {type(f).__name__}")
    cache[id(f)] = out
    return out


def _check_sentence(f: PFormula, bound=()) -> None:
    """Reject a formula with a variable that is neither quantified nor
    in *bound* (the pre-bound names of the Prop. 5.7 path)."""
    if not _free_vars(f, {}) <= set(bound):
        raise QueryError("can only evaluate sentences")


def _flatten_and(f: PFormula) -> list[PFormula] | None:
    if not isinstance(f, AndF):
        return None
    out: list[PFormula] = []
    stack = list(f.parts)
    while stack:
        p = stack.pop(0)
        if isinstance(p, AndF):
            stack = list(p.parts) + stack
        else:
            out.append(p)
    return out


def hoist_conjuncts(f: PFormula) -> PFormula:
    """Pull conjuncts that do not mention a quantified variable out of
    its scope: ``Qv (a ∧ b(v))  ≡  a ∧ Qv b(v)`` (domains are nonempty).

    The translations of Prop. 5.7 and Theorem 5.8 produce deeply nested
    quantifier chains whose conjuncts often constrain only outer
    variables; hoisting lets the evaluator check them before entering
    inner quantifier loops, turning hopeless searches into fast ones.
    """
    cache: dict = {}

    def rec(g: PFormula) -> PFormula:
        if isinstance(g, NotF):
            return NotF(rec(g.inner))
        if isinstance(g, AndF):
            return AndF(*(rec(p) for p in g.parts))
        if isinstance(g, OrF):
            return OrF(*(rec(p) for p in g.parts))
        if isinstance(g, ImpliesF):
            return ImpliesF(rec(g.antecedent), rec(g.consequent))
        if isinstance(g, _QuantF):
            body = rec(g.body)
            parts = _flatten_and(body)
            if parts is not None:
                free_of = {
                    id(p): _free_vars(p, cache) for p in parts
                }
                outside = [
                    p for p in parts if g.variable not in free_of[id(p)]
                ]
                inside = [
                    p for p in parts if g.variable in free_of[id(p)]
                ]
                if outside and inside:
                    rebuilt = type(g)(
                        g.variable,
                        inside[0] if len(inside) == 1 else AndF(*inside),
                    )
                    return AndF(*outside, rebuilt)
                if outside and not inside:
                    # The quantifier is vacuous (nonempty domain).
                    return AndF(*outside)
            return type(g)(g.variable, body)
        return g

    return rec(f)


class _Evaluator:
    def __init__(self, instance: SpatialInstance, budget: int):
        self.instance = instance
        self.budget = budget
        self._fv_cache: dict = {}

    def _spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise QueryError("point/real quantifier search exceeded budget")

    def _partition_body(self, f: _QuantF, env: dict):
        """For an existential with a conjunctive body: the conjuncts that
        become fully bound once this variable is assigned (candidate
        filters) and the rest (recursed into only for survivors)."""
        parts = _flatten_and(f.body)
        if parts is None:
            return None, f.body
        bound_names = set(env) | {f.variable}
        now = [
            p
            for p in parts
            if _free_vars(p, self._fv_cache) <= bound_names
        ]
        later = [
            p
            for p in parts
            if not (_free_vars(p, self._fv_cache) <= bound_names)
        ]
        rest: PFormula | None
        if not later:
            rest = None
        elif len(later) == 1:
            rest = later[0]
        else:
            rest = AndF(*later)
        return now, rest

    def eval(self, f: PFormula, vals: list[Fraction], env: dict) -> bool:
        if isinstance(f, RLess):
            return env[f.left.name] < env[f.right.name]
        if isinstance(f, RRegion):
            p = Point(env[f.x.name], env[f.y.name])
            return (
                self.instance.ext(f.region).classify(p)
                is Location.INTERIOR
            )
        if isinstance(f, PLessX):
            return env[f.left.name].x < env[f.right.name].x
        if isinstance(f, PLessY):
            return env[f.left.name].y < env[f.right.name].y
        if isinstance(f, PRegion):
            return (
                self.instance.ext(f.region).classify(env[f.point.name])
                is Location.INTERIOR
            )
        if isinstance(f, NotF):
            return not self.eval(f.inner, vals, env)
        if isinstance(f, AndF):
            return all(self.eval(p, vals, env) for p in f.parts)
        if isinstance(f, OrF):
            return any(self.eval(p, vals, env) for p in f.parts)
        if isinstance(f, ImpliesF):
            return (not self.eval(f.antecedent, vals, env)) or self.eval(
                f.consequent, vals, env
            )
        if isinstance(f, (RealExists, RealForAll)):
            want = isinstance(f, RealExists)
            cands = _candidates(vals)
            self._spend(len(cands))
            filters, rest = (
                self._partition_body(f, env) if want else (None, f.body)
            )
            for v in cands:
                env2 = dict(env)
                env2[f.variable] = v
                vals2 = sorted(set(vals) | {v})
                if filters is not None and not all(
                    self.eval(p, vals2, env2) for p in filters
                ):
                    continue
                body = rest if filters is not None else f.body
                if body is None:
                    return want
                if self.eval(body, vals2, env2) == want:
                    return want
            return not want
        if isinstance(f, (PointExists, PointForAll)):
            want = isinstance(f, PointExists)
            cands = _candidates(vals)
            self._spend(len(cands) ** 2)
            filters, rest = (
                self._partition_body(f, env) if want else (None, f.body)
            )
            for vx in cands:
                for vy in cands:
                    env2 = dict(env)
                    env2[f.variable] = Point(vx, vy)
                    vals2 = sorted(set(vals) | {vx, vy})
                    if filters is not None and not all(
                        self.eval(p, vals2, env2) for p in filters
                    ):
                        continue
                    body = rest if filters is not None else f.body
                    if body is None:
                        return want
                    if self.eval(body, vals2, env2) == want:
                        return want
            return not want
        raise QueryError(f"cannot evaluate {type(f).__name__}")


def evaluate_real_reference(
    formula: PFormula,
    instance: SpatialInstance,
    budget: int = 5_000_000,
) -> bool:
    """The seed FO(R, <, Region') evaluator — the semantic baseline."""
    _check_sentence(formula)
    return _Evaluator(instance, budget).eval(
        formula, _instance_values(instance), {}
    )


def evaluate_point_reference(
    formula: PFormula,
    instance: SpatialInstance,
    budget: int = 5_000_000,
) -> bool:
    """The seed FO(P, <x, <y, Region') evaluator — the baseline."""
    _check_sentence(formula)
    return _Evaluator(instance, budget).eval(
        formula, _instance_values(instance), {}
    )


# -- Proposition 5.7: FO_M(R, <) = FO(P, <x, <y) --------------------------------


def _eq_x(p: PointVar, q: PointVar) -> PFormula:
    return AndF(NotF(PLessX(p, q)), NotF(PLessX(q, p)))


def _eq_y(p: PointVar, q: PointVar) -> PFormula:
    return AndF(NotF(PLessY(p, q)), NotF(PLessY(q, p)))


def _iff(a: PFormula, b: PFormula) -> PFormula:
    return AndF(ImpliesF(a, b), ImpliesF(b, a))


def _sameorder(
    p: PointVar, pn: PointVar, q: PointVar, qn: PointVar
) -> PFormula:
    """The proof's ``sameorder``: p, pn share a y-level; q, qn share an
    x-level; and the x-order of (p, pn) matches the y-order of (q, qn)."""
    return AndF(
        _eq_y(p, pn),
        _eq_x(q, qn),
        _iff(PLessX(p, pn), PLessY(q, qn)),
        _iff(PLessX(pn, p), PLessY(qn, q)),
    )


def real_to_point(formula: PFormula) -> PFormula:
    """Translate an FO(R, <) sentence to FO(P, <x, <y) (Prop. 5.7).

    Each real variable z becomes two point variables ``p_z`` and ``q_z``
    (its shadows on the two axes); see the proof for the ``related``
    invariant.  The result is equivalent on instances inside the open
    lower-right quadrant for M-generic inputs.
    """

    def pv(z: str) -> PointVar:
        return PointVar(f"p_{z}")

    def qv(z: str) -> PointVar:
        return PointVar(f"q_{z}")

    def tr(f: PFormula, scope: tuple[str, ...]) -> PFormula:
        if isinstance(f, RLess):
            return PLessX(pv(f.left.name), pv(f.right.name))
        if isinstance(f, RRegion):
            r = PointVar(f"r_{f.x.name}_{f.y.name}")
            return PointExists(
                r.name,
                AndF(
                    _eq_x(r, pv(f.x.name)),
                    _eq_y(r, qv(f.y.name)),
                    PRegion(f.region, r),
                ),
            )
        if isinstance(f, NotF):
            return NotF(tr(f.inner, scope))
        if isinstance(f, AndF):
            return AndF(*(tr(p, scope) for p in f.parts))
        if isinstance(f, OrF):
            return OrF(*(tr(p, scope) for p in f.parts))
        if isinstance(f, ImpliesF):
            return ImpliesF(
                tr(f.antecedent, scope), tr(f.consequent, scope)
            )
        if isinstance(f, RealForAll):
            # ∀z ψ = ¬∃z ¬ψ, translated through the existential case.
            return NotF(tr(RealExists(f.variable, NotF(f.body)), scope))
        if isinstance(f, RealExists):
            z = f.variable
            inner = tr(f.body, scope + (z,))
            others = ("_origin", *scope)
            # sameorder glue, with each conjunct emitted at the earliest
            # level where its variables are bound: the p-parts (all p's
            # share a horizontal line) right under ∃p_z, the q-parts and
            # the order-matching biconditionals under ∃q_z.
            p_parts = [_eq_y(pv(z0), pv(z)) for z0 in others]
            q_parts: list[PFormula] = [
                _eq_x(qv(z0), qv(z)) for z0 in others
            ]
            for z0 in others:
                q_parts.append(
                    _iff(PLessX(pv(z0), pv(z)), PLessY(qv(z0), qv(z)))
                )
                q_parts.append(
                    _iff(PLessX(pv(z), pv(z0)), PLessY(qv(z), qv(z0)))
                )
            return PointExists(
                pv(z).name,
                AndF(
                    *p_parts,
                    PointExists(qv(z).name, AndF(*q_parts, inner)),
                ),
            )
        raise QueryError(
            f"cannot translate {type(f).__name__} (FO(R,<) fragment)"
        )

    core = tr(formula, ())
    p0, q0 = pv("_origin"), qv("_origin")
    return PointExists(
        p0.name,
        PointExists(
            q0.name,
            AndF(_eq_x(p0, q0), _eq_y(p0, q0), hoist_conjuncts(core)),
        ),
    )


def evaluate_real_via_points(
    formula: PFormula,
    instance: SpatialInstance,
    budget: int = 50_000_000,
) -> bool:
    """Evaluate an FO(R, <) sentence through its Prop. 5.7 translation.

    The instance must lie in the open lower-right quadrant (use
    :func:`shift_to_quadrant`).  As in the proof, the auxiliary origin
    pair is pinned at a concrete diagonal point separating the
    quadrant's coordinates, instead of being searched for — genericity
    makes the choice immaterial and saves two quantifier levels.
    """
    vals = _instance_values(instance)
    box = instance.bbox()
    if box.xmin <= 0 or box.ymax >= 0:
        raise QueryError(
            "instance must lie in the open lower-right quadrant; "
            "apply shift_to_quadrant first"
        )
    origin = Point(0, 0)

    def pv(z: str) -> str:
        return f"p_{z}"

    def qv(z: str) -> str:
        return f"q_{z}"

    # Translate without the outer origin quantifiers.
    core = real_to_point(formula)
    # Unwrap: PointExists(p0, PointExists(q0, And(eqx, eqy, body))).
    body = core.body.body.parts[-1]
    env = {pv("_origin"): origin, qv("_origin"): origin}
    start_vals = sorted(set(vals) | {Fraction(0)})
    from .compiled import _evaluate_pointlike

    return _evaluate_pointlike(body, instance, budget, env, start_vals)


def shift_to_quadrant(instance: SpatialInstance) -> SpatialInstance:
    """Translate the instance into the open lower-right quadrant
    (x > 0, y < 0), the precondition of the Prop. 5.7 translation."""
    from ..regions import Rect, RectUnion

    box = instance.bbox()
    dx = 1 - box.xmin
    dy = -1 - box.ymax

    def move(_name, region):
        if isinstance(region, Rect):
            return Rect(
                region.x1 + dx, region.y1 + dy,
                region.x2 + dx, region.y2 + dy,
            )
        if isinstance(region, RectUnion):
            return RectUnion(
                [
                    Rect(r.x1 + dx, r.y1 + dy, r.x2 + dx, r.y2 + dy)
                    for r in region.rects
                ],
                validate=False,
            )
        raise QueryError("shift_to_quadrant needs a rectilinear instance")

    return instance.map_regions(move)


# -- Theorem 5.8: FO(Rect, ·) -> FO_S(P, <x, <y, ·) ------------------------------


def rect_to_point(formula: rast.Formula) -> PFormula:
    """Translate an FO(Rect, ·) sentence into FO(P, <x, <y, ·).

    Each rectangle variable r becomes two point variables ``lo_r`` and
    ``hi_r`` (opposite corners).  Rect-to-rect atoms translate for all
    relations; atoms against named regions for the fragment
    {connect, disjoint, subset, overlap}.
    """

    def lo(r: str) -> PointVar:
        return PointVar(f"lo_{r}")

    def hi(r: str) -> PointVar:
        return PointVar(f"hi_{r}")

    fresh = [0]

    def freshvar(prefix: str) -> PointVar:
        fresh[0] += 1
        return PointVar(f"{prefix}{fresh[0]}")

    def leq_x(a, b):
        return NotF(PLessX(b, a))

    def leq_y(a, b):
        return NotF(PLessY(b, a))

    def in_box(l, h, p) -> PFormula:
        return AndF(
            PLessX(l, p), PLessX(p, h), PLessY(l, p), PLessY(p, h)
        )

    def rr_atom(rel: str, r1: str, r2: str) -> PFormula:
        l1, h1, l2, h2 = lo(r1), hi(r1), lo(r2), hi(r2)
        ii = AndF(
            PLessX(l1, h2), PLessX(l2, h1), PLessY(l1, h2), PLessY(l2, h1)
        )
        disj = OrF(
            PLessX(h1, l2), PLessX(h2, l1), PLessY(h1, l2), PLessY(h2, l1)
        )
        sub12 = AndF(leq_x(l2, l1), leq_x(h1, h2), leq_y(l2, l1), leq_y(h1, h2))
        sub21 = AndF(leq_x(l1, l2), leq_x(h2, h1), leq_y(l1, l2), leq_y(h2, h1))
        strict12 = AndF(
            PLessX(l2, l1), PLessX(h1, h2), PLessY(l2, l1), PLessY(h1, h2)
        )
        strict21 = AndF(
            PLessX(l1, l2), PLessX(h2, h1), PLessY(l1, l2), PLessY(h2, h1)
        )
        eq = AndF(sub12, sub21)
        if rel == "disjoint":
            return disj
        if rel == "connect":
            return NotF(disj)
        if rel == "subset":
            return sub12
        if rel == "equal":
            return eq
        if rel == "overlap":
            return AndF(ii, NotF(sub12), NotF(sub21))
        if rel == "meet":
            return AndF(NotF(ii), NotF(disj))
        if rel == "inside":
            return strict12
        if rel == "contains":
            return strict21
        if rel == "coveredBy":
            return AndF(sub12, NotF(strict12), NotF(eq))
        if rel == "covers":
            return AndF(sub21, NotF(strict21), NotF(eq))
        raise QueryError(f"untranslatable rect relation {rel!r}")

    def ra_atom(rel: str, r: str, name: str) -> PFormula:
        l, h = lo(r), hi(r)
        if rel in ("overlap", "subset"):
            p = freshvar("w")
            inside = in_box(l, h, p)
            if rel == "overlap":
                return PointExists(
                    p.name, AndF(inside, PRegion(name, p))
                )
            return PointForAll(
                p.name, ImpliesF(inside, PRegion(name, p))
            )
        if rel in ("connect", "disjoint"):
            # closure(r) touches closure(A) iff every box strictly
            # containing r contains a point of A.
            bl, bh = freshvar("bl"), freshvar("bh")
            p = freshvar("w")
            strictly_around = AndF(
                PLessX(bl, l), PLessX(h, bh), PLessY(bl, l), PLessY(h, bh)
            )
            touches = PointForAll(
                bl.name,
                PointForAll(
                    bh.name,
                    ImpliesF(
                        strictly_around,
                        PointExists(
                            p.name,
                            AndF(in_box(bl, bh, p), PRegion(name, p)),
                        ),
                    ),
                ),
            )
            return touches if rel == "connect" else NotF(touches)
        raise QueryError(
            f"relation {rel!r} against a named region is outside the "
            "translated fragment"
        )

    def tr(f: rast.Formula) -> PFormula:
        if isinstance(f, rast.Rel):
            left, right = f.left, f.right
            if isinstance(left, rast.RegionVar) and isinstance(
                right, rast.RegionVar
            ):
                return rr_atom(f.relation, left.name, right.name)
            if isinstance(left, rast.RegionVar) and isinstance(
                right, rast.Ext
            ):
                return ra_atom(f.relation, left.name, right.name.value)
            if isinstance(left, rast.Ext) and isinstance(
                right, rast.RegionVar
            ):
                inverse = {
                    "connect": "connect",
                    "disjoint": "disjoint",
                    "overlap": "overlap",
                }.get(f.relation)
                if inverse is None:
                    raise QueryError(
                        f"relation {f.relation!r} with the named region "
                        "on the left is outside the translated fragment"
                    )
                return ra_atom(inverse, right.name, left.name.value)
            raise QueryError("atom between two named regions: inline it")
        if isinstance(f, rast.Not):
            return NotF(tr(f.inner))
        if isinstance(f, rast.And):
            return AndF(*(tr(p) for p in f.parts))
        if isinstance(f, rast.Or):
            return OrF(*(tr(p) for p in f.parts))
        if isinstance(f, rast.Implies):
            return ImpliesF(tr(f.antecedent), tr(f.consequent))
        if isinstance(f, (rast.ExistsRegion, rast.ForAllRegion)):
            r = f.variable
            corners = AndF(
                PLessX(lo(r), hi(r)), PLessY(lo(r), hi(r))
            )
            body = tr(f.body)
            if isinstance(f, rast.ExistsRegion):
                return PointExists(
                    lo(r).name,
                    PointExists(hi(r).name, AndF(corners, body)),
                )
            return PointForAll(
                lo(r).name,
                PointForAll(hi(r).name, ImpliesF(corners, body)),
            )
        raise QueryError(
            f"cannot translate {type(f).__name__} to point logic"
        )

    return hoist_conjuncts(tr(formula))
