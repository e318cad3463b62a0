"""Canonical hashes pinned across versions.

Store record headers and the class index persist ``canonical_hash``
values, so the canonical form must stay byte-identical from one version
to the next, not merely remain a complete invariant.  The fixture
``canonical_hashes.json`` next to this file holds the hashes of a fixed
set of instances built from :mod:`repro.datasets`; every one is
recomputed here and compared.

The set covers every figure (the Fig. 7 chirality and cyclic-order
pairs among them), the distinct instances of ``mixed_corpus(120)``, the
``grid_instance`` sweep with the k = 14 grid, samples of each serve-style family, and two
instances where the canonization's orbit pruning fires.

Run this file as a script to print the hashes the current code gives,
as JSON in the fixture's format::

    PYTHONPATH=src python tests/pipeline/test_canonical_pinned.py
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro import Rect, SpatialInstance, invariant
from repro.datasets import (
    all_figures,
    circle_chain,
    grid_instance,
    grid_of_squares,
    mixed_corpus,
    nested_rings,
    overlap_chain,
    random_rectangles,
)
from repro.invariant import canonical_hash, instance_key

FIXTURE = Path(__file__).with_name("canonical_hashes.json")


@lru_cache(maxsize=1)
def pinned_instances() -> dict[str, SpatialInstance]:
    """The pinned inputs, by fixture key."""
    out: dict[str, SpatialInstance] = {}
    for name, inst in all_figures().items():
        out[f"figure/{name}"] = inst
    seen: set[str] = set()
    for i, inst in enumerate(mixed_corpus(120)):
        key = instance_key(inst)
        if key not in seen:
            seen.add(key)
            out[f"mixed_corpus/{i:03d}"] = inst
    for k in range(2, 11):
        out[f"grid_instance/{k}"] = grid_instance(k)
    # The ingest workload's grid: past the text writer's piece size.
    out["grid_instance/14"] = grid_instance(14)
    for n in (2, 3, 4):
        out[f"overlap_chain/{n}"] = overlap_chain(n)
        out[f"nested_rings/{n}"] = nested_rings(n)
    for rows, cols in ((1, 1), (1, 3), (2, 2)):
        out[f"grid_of_squares/{rows}x{cols}"] = grid_of_squares(rows, cols)
    for n, seed in ((2, 11), (3, 12), (4, 13), (5, 14)):
        out[f"random_rectangles/{n}/{seed}"] = random_rectangles(n, seed=seed)
    for n, vertices in ((1, 8), (2, 8), (2, 12), (3, 12)):
        out[f"circle_chain/{n}/{vertices}"] = circle_chain(n, vertices)
    cross = {"A": Rect(-2, -2, 2, 2), "B": Rect(-3, -1, 3, 1)}
    out["pruning/two_rects"] = SpatialInstance(dict(cross))
    out["pruning/three_rects"] = SpatialInstance(
        {**cross, "C": Rect(-1, -3, 1, 3)}
    )
    return out


@lru_cache(maxsize=1)
def _pinned() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input():
    assert sorted(_pinned()) == sorted(pinned_instances())


@lru_cache(maxsize=None)
def pinned_invariant(key: str):
    """The invariant of one pinned input, built once per session."""
    return invariant(pinned_instances()[key])


@pytest.mark.parametrize("key", sorted(pinned_instances()))
def test_canonical_hash_is_pinned(key):
    assert canonical_hash(pinned_invariant(key)) == _pinned()[key]


if __name__ == "__main__":
    hashes = {
        key: canonical_hash(pinned_invariant(key))
        for key in sorted(pinned_instances())
    }
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
