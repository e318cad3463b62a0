"""The canonical hash's text writer and the label keys of canonization.

``canonical_hash`` is defined as ``sha256(repr(canonical_form(t)))``;
it writes that text by joins, in pieces, and ``_Flat`` ranks each label
as one string.  Both must agree with the definitions exactly: the
streamed text with ``repr`` byte for byte, the string ranks with the
tuple ranks.  The corpus is the pinned one's core (every figure, the
distinct instances of ``mixed_corpus(120)``, grids k = 2..10, which
cross the writer's piece boundary) plus hand-built invariants whose
labels the join path must leave to ``repr``: multi-character, empty and
quoted entries, ``"\\0"`` inside an entry, non-ASCII, wrong lengths,
a single name, and a one-cell form.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache

import pytest

from repro import Rect, SpatialInstance, invariant
from repro.datasets import all_figures, grid_instance, mixed_corpus
from repro.invariant import TopologicalInvariant
from repro.invariant.canonical import (
    _Flat,
    _form_text,
    _rank,
    canonical_form,
    canonical_hash,
    instance_key,
)


@lru_cache(maxsize=1)
def corpus() -> dict[str, SpatialInstance]:
    out = {f"figure/{name}": inst for name, inst in all_figures().items()}
    seen: set[str] = set()
    for i, inst in enumerate(mixed_corpus(120)):
        key = instance_key(inst)
        if key not in seen:
            seen.add(key)
            out[f"mixed_corpus/{i:03d}"] = inst
    for k in range(2, 11):
        out[f"grid_instance/{k}"] = grid_instance(k)
    return out


def _relabel(t: TopologicalInvariant, fn) -> TopologicalInvariant:
    """*t* with each label replaced by ``fn(cell index, label)``."""
    cells = sorted(t.labels)
    return dataclasses.replace(
        t, labels={c: fn(i, t.labels[c]) for i, c in enumerate(cells)}
    )


_WORDS = {"o": "in", "b": "on", "e": "out"}
_QUOTES = {"o": "'", "b": '"', "e": "e'\""}


def hand_built() -> dict[str, TopologicalInvariant]:
    two = invariant(
        SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
    )
    three = invariant(all_figures()["fig_1b"])
    return {
        "multi_char": _relabel(two, lambda i, l: tuple(_WORDS[c] for c in l)),
        "prefixes": _relabel(
            three, lambda i, l: tuple(c * (i % 3) for c in l)
        ),
        "quotes": _relabel(two, lambda i, l: tuple(_QUOTES[c] for c in l)),
        "nul_entries": _relabel(
            two, lambda i, l: tuple(c + "\0" * (i % 2) for c in l)
        ),
        "non_ascii": _relabel(
            two, lambda i, l: tuple("é" if c == "o" else c for c in l)
        ),
        "wrong_length": _relabel(
            three, lambda i, l: l[: 1 + i % len(l)]
        ),
        "single_name": invariant(SpatialInstance({"A": Rect(0, 0, 3, 3)})),
        "one_cell": TopologicalInvariant(
            names=(),
            vertices=frozenset(),
            edges=frozenset(),
            faces=frozenset({"f0"}),
            exterior_face="f0",
            labels={"f0": ()},
            endpoints={},
            incidences=frozenset(),
            orientation=frozenset(),
        ),
    }


def _check_text(t: TopologicalInvariant) -> None:
    form = canonical_form(t)
    text = repr(form).encode()
    assert b"".join(_form_text(form)) == text
    assert canonical_hash(t) == hashlib.sha256(text).hexdigest()


def _check_ranks(t: TopologicalInvariant) -> None:
    flat = _Flat(t)
    assert flat.base_ranks == _rank(flat.base)


@pytest.mark.parametrize("key", sorted(corpus()))
def test_streamed_text_is_repr(key):
    _check_text(invariant(corpus()[key]))


@pytest.mark.parametrize("key", sorted(corpus()))
def test_label_string_ranks_are_tuple_ranks(key):
    _check_ranks(invariant(corpus()[key]))


@pytest.mark.parametrize("key", sorted(hand_built()))
def test_hand_built_text_is_repr(key):
    _check_text(hand_built()[key])


@pytest.mark.parametrize("key", sorted(hand_built()))
def test_hand_built_ranks_are_tuple_ranks(key):
    _check_ranks(hand_built()[key])


def test_list_labels_are_written_by_repr():
    two = invariant(
        SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
    )
    _check_text(_relabel(two, lambda i, l: list(l)))


def test_one_cell_form():
    t = hand_built()["one_cell"]
    assert canonical_form(t) == ((), ((2, ()),), 0, (), (), ())
