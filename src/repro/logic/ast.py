"""Abstract syntax of the region-based languages FO(Region, Region')
(Section 4 of the paper).

Terms
-----
* name expressions — a name variable or a name constant from *Names*;
* region expressions — a region variable or ``ext(a)`` for a name
  expression *a* (written just ``a`` in queries, as the paper does).

Atoms
-----
* ``a = b`` between name expressions;
* ``relationship(p, q)`` where *relationship* is one of the eight
  4-intersection relations, or the primitive ``connect`` (the paper
  notes all of them are definable from ``connect`` alone — see
  :mod:`repro.logic.derived`).

Formulas close the atoms under boolean connectives and quantifiers over
regions and over names.  The same AST is interpreted by several
evaluators (cell semantics, rectangle order abstraction), which is how
one syntax yields the whole family of languages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import QueryError

__all__ = [
    "NameTerm",
    "NameVar",
    "NameConst",
    "RegionTerm",
    "RegionVar",
    "Ext",
    "Formula",
    "NameEq",
    "Rel",
    "Not",
    "And",
    "Or",
    "Implies",
    "ExistsRegion",
    "ForAllRegion",
    "ExistsName",
    "ForAllName",
    "RELATION_NAMES",
    "flatten_and",
]

#: The eight 4-intersection relations, the ``connect`` primitive, and
#: ``subset`` (definable from ``connect`` — Section 4 — but provided as a
#: primitive for efficient evaluation).
RELATION_NAMES = (
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


class NameTerm:
    """A term of the name sort."""


@dataclass(frozen=True)
class NameVar(NameTerm):
    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"?{self.name}"


@dataclass(frozen=True)
class NameConst(NameTerm):
    value: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RegionTerm:
    """A term of the region sort."""


@dataclass(frozen=True)
class RegionVar(RegionTerm):
    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Ext(RegionTerm):
    """``ext(a)``: the extent of a named region of the instance."""

    name: NameTerm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ext({self.name!r})"


class Formula:
    """Base class of formulas; carries free-variable bookkeeping."""

    def free_region_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def free_name_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def quantifier_depth(self) -> int:
        raise NotImplementedError

    def is_sentence(self) -> bool:
        return not self.free_region_vars() and not self.free_name_vars()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


def _region_term_vars(t: RegionTerm) -> frozenset[str]:
    return frozenset((t.name,)) if isinstance(t, RegionVar) else frozenset()


def _region_term_name_vars(t: RegionTerm) -> frozenset[str]:
    if isinstance(t, Ext) and isinstance(t.name, NameVar):
        return frozenset((t.name.name,))
    return frozenset()


def _name_term_vars(t: NameTerm) -> frozenset[str]:
    return frozenset((t.name,)) if isinstance(t, NameVar) else frozenset()


@dataclass(frozen=True)
class NameEq(Formula):
    left: NameTerm
    right: NameTerm

    def free_region_vars(self) -> frozenset[str]:
        return frozenset()

    def free_name_vars(self) -> frozenset[str]:
        return _name_term_vars(self.left) | _name_term_vars(self.right)

    def quantifier_depth(self) -> int:
        return 0


@dataclass(frozen=True)
class Rel(Formula):
    """``relationship(p, q)`` between two region terms."""

    relation: str
    left: RegionTerm
    right: RegionTerm

    def __post_init__(self):
        if self.relation not in RELATION_NAMES:
            raise QueryError(f"unknown relationship {self.relation!r}")

    def free_region_vars(self) -> frozenset[str]:
        return _region_term_vars(self.left) | _region_term_vars(self.right)

    def free_name_vars(self) -> frozenset[str]:
        return _region_term_name_vars(self.left) | _region_term_name_vars(
            self.right
        )

    def quantifier_depth(self) -> int:
        return 0


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def free_region_vars(self):
        return self.inner.free_region_vars()

    def free_name_vars(self):
        return self.inner.free_name_vars()

    def quantifier_depth(self) -> int:
        return self.inner.quantifier_depth()


class _Nary(Formula):
    def __init__(self, *parts: Formula):
        if not parts:
            raise QueryError("empty connective")
        self.parts = tuple(parts)

    def free_region_vars(self):
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.free_region_vars()
        return out

    def free_name_vars(self):
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.free_name_vars()
        return out

    def quantifier_depth(self) -> int:
        return max(p.quantifier_depth() for p in self.parts)

    def __eq__(self, other):
        return type(self) is type(other) and self.parts == other.parts

    def __hash__(self):
        return hash((type(self).__name__, self.parts))


class And(_Nary):
    pass


class Or(_Nary):
    pass


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def free_region_vars(self):
        return (
            self.antecedent.free_region_vars()
            | self.consequent.free_region_vars()
        )

    def free_name_vars(self):
        return (
            self.antecedent.free_name_vars()
            | self.consequent.free_name_vars()
        )

    def quantifier_depth(self) -> int:
        return max(
            self.antecedent.quantifier_depth(),
            self.consequent.quantifier_depth(),
        )


class _RegionQuantifier(Formula):
    def __init__(self, variable: str, body: Formula):
        self.variable = variable
        self.body = body

    def free_region_vars(self):
        return self.body.free_region_vars() - {self.variable}

    def free_name_vars(self):
        return self.body.free_name_vars()

    def quantifier_depth(self) -> int:
        return 1 + self.body.quantifier_depth()

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.variable == other.variable
            and self.body == other.body
        )

    def __hash__(self):
        return hash((type(self).__name__, self.variable, self.body))


class ExistsRegion(_RegionQuantifier):
    pass


class ForAllRegion(_RegionQuantifier):
    pass


class _NameQuantifier(Formula):
    def __init__(self, variable: str, body: Formula):
        self.variable = variable
        self.body = body

    def free_region_vars(self):
        return self.body.free_region_vars()

    def free_name_vars(self):
        return self.body.free_name_vars() - {self.variable}

    def quantifier_depth(self) -> int:
        # Name quantifiers range over a finite set; they do not add to
        # the region quantifier depth that drives evaluation cost.
        return self.body.quantifier_depth()

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.variable == other.variable
            and self.body == other.body
        )

    def __hash__(self):
        return hash((type(self).__name__, self.variable, self.body))


class ExistsName(_NameQuantifier):
    pass


class ForAllName(_NameQuantifier):
    pass


def flatten_and(f: Formula) -> list[Formula] | None:
    """The conjunct list of a (possibly nested) conjunction, in left-to-
    right order, or None when *f* is not an ``And``.

    The compiled rectangle evaluator partitions these conjuncts into
    cheap quantifier-free candidate filters and the quantified
    remainder; the reference evaluators never need the flattened view.
    """
    if not isinstance(f, And):
        return None
    out: list[Formula] = []
    stack = list(f.parts)
    while stack:
        p = stack.pop(0)
        if isinstance(p, And):
            stack = list(p.parts) + stack
        else:
            out.append(p)
    return out
