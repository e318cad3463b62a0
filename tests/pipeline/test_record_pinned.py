"""Store record bytes pinned across versions.

A segment written by one version is read by the next, and scrub,
mirror repair and compaction compare records by checksum, so
``encode_record`` must write the same bytes from one version to the
next.  The fixture ``record_digests.json`` next to this file holds the
sha256 of each record body:

* every input of the pinned canonical-hash corpus, encoded with its
  geometry and canonical hash, as the store writes it;
* the hand-built invariants of ``test_canonical_text.py``, encoded
  with their canonical hash; their non-standard labels make most of
  them JSON-kind records.

Run this file as a script to print the digests the current code gives,
as JSON in the fixture's format::

    PYTHONPATH=src python tests/pipeline/test_record_pinned.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.invariant import canonical_hash
from repro.store import encode_record
from test_canonical_pinned import pinned_instances, pinned_invariant
from test_canonical_text import hand_built

FIXTURE = Path(__file__).with_name("record_digests.json")


def _keys() -> list[str]:
    return sorted(
        [f"corpus/{key}" for key in pinned_instances()]
        + [f"hand_built/{key}" for key in hand_built()]
    )


def record_digest(key: str) -> str:
    kind, name = key.split("/", 1)
    if kind == "corpus":
        t = pinned_invariant(name)
        body = encode_record(
            t, instance=pinned_instances()[name], canonical_hash=canonical_hash(t)
        )
    else:
        t = hand_built()[name]
        body = encode_record(t, canonical_hash=canonical_hash(t))
    return hashlib.sha256(body).hexdigest()


@lru_cache(maxsize=1)
def _pinned() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input():
    assert sorted(_pinned()) == _keys()


@pytest.mark.parametrize("key", _keys())
def test_record_bytes_are_pinned(key):
    assert record_digest(key) == _pinned()[key]


if __name__ == "__main__":
    digests = {key: record_digest(key) for key in _keys()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
