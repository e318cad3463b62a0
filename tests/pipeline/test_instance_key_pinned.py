"""Instance keys pinned across versions.

Store records and the pipeline's invariant cache are addressed by
``instance_key``, so the key of an instance must stay the same from
one version to the next.  The fixture ``instance_keys.json`` next to
this file holds the key of every input of the pinned canonical-hash
corpus, plus each polygon family written from another starting vertex
and in the other winding, which must key alike.

Run this file as a script to print the keys the current code gives, as
JSON in the fixture's format::

    PYTHONPATH=src python tests/pipeline/test_instance_key_pinned.py
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro import Poly, SpatialInstance
from repro.invariant import instance_key
from test_canonical_pinned import pinned_instances

FIXTURE = Path(__file__).with_name("instance_keys.json")


@lru_cache(maxsize=1)
def _pinned() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input():
    assert sorted(_pinned()) == sorted(pinned_instances())


@pytest.mark.parametrize("key", sorted(pinned_instances()))
def test_instance_key_is_pinned(key):
    assert instance_key(pinned_instances()[key]) == _pinned()[key]


def _rewritten(instance: SpatialInstance, shift: int) -> SpatialInstance:
    """*instance* with each polygon's vertex list rotated by *shift* and
    reversed."""
    regions = {}
    for name in instance.names():
        region = instance.ext(name)
        if type(region) is Poly:
            vs = list(region.vertices)
            k = shift % len(vs)
            region = Poly(vs[k:] + vs[:k])
            region = Poly(list(reversed(region.vertices)))
        regions[name] = region
    return SpatialInstance(regions)


@pytest.mark.parametrize("key", sorted(pinned_instances()))
def test_rotated_and_reversed_polygons_key_alike(key):
    inst = pinned_instances()[key]
    for shift in (1, 3):
        assert instance_key(_rewritten(inst, shift)) == _pinned()[key]


if __name__ == "__main__":
    keys = {
        key: instance_key(inst)
        for key, inst in sorted(pinned_instances().items())
    }
    json.dump(keys, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
