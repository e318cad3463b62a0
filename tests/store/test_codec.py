"""The succinct ``T_I`` record codec: exact round trips and hostility
to malformed buffers."""

import dataclasses
import random

import numpy as np
import pytest

from repro import (
    Rect,
    SpatialInstance,
    canonical_form,
    canonical_hash,
    invariant,
)
from repro.arrangement.soa import LABEL_CODES
from repro.datasets import all_figures, grid_instance, mixed_corpus
from repro.errors import ReproError, StoreError
from repro.invariant.canonical import instance_key
from repro.regions import AlgRegion
from repro.store import decode_record, encode_record
from repro.store.codec import (
    _I32_MAX,
    _INV_MAGIC,
    _SENSE_CODES,
    _frame,
    _instance_block,
    _pad8,
    _unframe,
)


class TestInvariantRoundTrip:
    @pytest.mark.parametrize("figure", sorted(all_figures()))
    def test_figures_are_canonically_bit_identical(self, figure):
        t = invariant(all_figures()[figure])
        rec = decode_record(encode_record(t))
        back = rec.invariant()
        assert canonical_form(back) == canonical_form(t)
        assert canonical_hash(back) == canonical_hash(t)

    def test_mixed_corpus_round_trips(self):
        for inst in mixed_corpus(12, seed=5):
            t = invariant(inst)
            back = decode_record(encode_record(t)).invariant()
            assert canonical_hash(back) == canonical_hash(t)

    def test_free_loops_survive(self):
        # A lone rectangle's boundary is a free loop: the edge is
        # *present* in the endpoints mapping with an empty tuple, which
        # canonical_form distinguishes from an absent edge.
        t = invariant(SpatialInstance({"A": Rect(0, 0, 3, 3)}))
        assert any(ends == () for ends in t.endpoints.values())
        back = decode_record(encode_record(t)).invariant()
        assert any(ends == () for ends in back.endpoints.values())
        assert canonical_form(back) == canonical_form(t)

    def test_canonical_hash_rides_in_the_header(self):
        t = invariant(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        h = canonical_hash(t)
        rec = decode_record(encode_record(t, canonical_hash=h))
        assert rec.canonical_hash == h
        assert decode_record(encode_record(t)).canonical_hash is None

    def test_embedded_geometry_round_trips(self):
        inst = SpatialInstance(
            {"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}
        )
        t = invariant(inst)
        rec = decode_record(encode_record(t, instance=inst))
        assert rec.has_instance
        assert instance_key(rec.instance()) == instance_key(inst)

    def test_non_columnar_geometry_uses_json_block(self):
        inst = SpatialInstance({"C": AlgRegion.circle(0, 0, 2, n=8)})
        t = invariant(inst)
        rec = decode_record(encode_record(t, instance=inst))
        assert rec.has_instance
        assert instance_key(rec.instance()) == instance_key(inst)

    def test_record_without_geometry_has_no_instance(self):
        t = invariant(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        rec = decode_record(encode_record(t))
        assert not rec.has_instance
        assert rec.instance() is None


def _two_squares():
    return invariant(
        SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
    )


def _relabel(t, fn):
    cells = sorted(t.labels)
    return dataclasses.replace(
        t, labels={c: fn(i, t.labels[c]) for i, c in enumerate(cells)}
    )


class TestJsonFallback:
    """Labels outside the standard ``o``/``b``/``e`` alphabet, or of the
    wrong length, are carried by the lossless JSON payload."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda i, l: l[:-1] if i % 2 else l,  # wrong length
            lambda i, l: ("x",) + l[1:] if i == 0 else l,  # unknown char
            lambda i, l: ("oo",) + l[1:] if i == 1 else l,  # multi-char
            lambda i, l: ("",) + l[1:] if i == 2 else l,  # empty entry
        ],
        ids=["wrong_length", "unknown_char", "multi_char", "empty_entry"],
    )
    def test_nonstandard_labels_round_trip_as_json(self, fn):
        t = _relabel(_two_squares(), fn)
        rec = decode_record(encode_record(t, canonical_hash=canonical_hash(t)))
        assert rec.kind == "json"
        back = rec.invariant()
        assert canonical_form(back) == canonical_form(t)
        assert canonical_hash(back) == rec.canonical_hash


def _encode_per_character(t, instance=None, canonical_hash=None):
    """The record encoder before the label block was one translation:
    labels checked and encoded character by character.  Kept as the
    oracle for byte-identical records."""
    inst_spec, inst_blocks = _instance_block(instance)
    m = len(t.names)
    encodable = (
        len(t.vertices) + len(t.edges) + len(t.faces) <= _I32_MAX
        and all(
            len(label) == m and all(ch in LABEL_CODES for ch in label)
            for label in t.labels.values()
        )
        and all(sense in _SENSE_CODES for sense, *_ in t.orientation)
    )
    assert encodable
    verts, edges, faces = sorted(t.vertices), sorted(t.edges), sorted(t.faces)
    pos = {c: i for i, c in enumerate(verts + edges + faces)}
    labels = np.empty((len(pos), m), dtype=np.uint8)
    for c, i in pos.items():
        labels[i] = [LABEL_CODES[ch] for ch in t.labels[c]]
    endpoints = np.full((len(edges), 2), -1, dtype="<i4")
    for k, e in enumerate(edges):
        if e not in t.endpoints:
            continue
        vs = t.endpoints[e]
        if not vs:
            endpoints[k] = (-2, -2)
            continue
        for j, v in enumerate(vs[:2]):
            endpoints[k, j] = pos[v]
    incidence = np.array(
        sorted((pos[a], pos[b]) for a, b in t.incidences), dtype="<i4"
    ).reshape(len(t.incidences), 2)
    orientation = np.array(
        sorted(
            (_SENSE_CODES[s], pos[v], pos[e1], pos[e2])
            for (s, v, e1, e2) in t.orientation
        ),
        dtype="<i4",
    ).reshape(len(t.orientation), 4)
    header = {
        "v": 1,
        "k": "soa",
        "names": list(t.names),
        "nv": len(verts),
        "ne": len(edges),
        "nf": len(faces),
        "ext": len(verts) + len(edges) + faces.index(t.exterior_face),
        "ninc": len(t.incidences),
        "nori": len(t.orientation),
    }
    if canonical_hash is not None:
        header["ch"] = canonical_hash
    if inst_spec is not None:
        header["inst"] = inst_spec
    ints = endpoints.tobytes() + incidence.tobytes() + orientation.tobytes()
    return _frame(_INV_MAGIC, header, [ints, labels.tobytes(), *inst_blocks])


class TestRecordBytes:
    """``encode_record`` writes the same bytes as the per-character
    encoder on the ingest corpus: the corpus and grids k = 6 and 14."""

    def test_mixed_corpus_records_are_unchanged(self):
        for inst in mixed_corpus(120):
            t = invariant(inst)
            h = canonical_hash(t)
            assert encode_record(t, inst, h) == _encode_per_character(t, inst, h)
            assert encode_record(t) == _encode_per_character(t)

    @pytest.mark.parametrize("k", [6, 14])
    def test_grid_records_are_unchanged(self, k):
        inst = grid_instance(k)
        t = invariant(inst)
        h = canonical_hash(t)
        assert encode_record(t, inst, h) == _encode_per_character(t, inst, h)


class TestLabelDecode:
    def test_label_code_out_of_range_is_structural(self):
        t = _two_squares()
        buf = bytearray(encode_record(t))
        header, _view, off = _unframe(bytes(buf), _INV_MAGIC)
        ints = 4 * (
            2 * header["ne"] + 2 * header["ninc"] + 4 * header["nori"]
        )
        buf[off + ints + _pad8(ints)] = 7  # first label code
        with pytest.raises(StoreError, match="label code out of range"):
            decode_record(bytes(buf)).invariant()

    def test_decoded_labels_are_the_encoded_ones(self):
        t = _two_squares()
        back = decode_record(encode_record(t)).invariant()
        assert sorted(back.labels.values()) == sorted(t.labels.values())


class TestMalformedBuffers:
    """decode_record must fail *structurally* (StoreError) on torn or
    garbled input — never with an uncontrolled exception type."""

    def _payload(self):
        inst = SpatialInstance(
            {"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}
        )
        t = invariant(inst)
        return encode_record(
            t, instance=inst, canonical_hash=canonical_hash(t)
        )

    def test_empty_and_tiny_buffers(self):
        for n in (0, 1, 4, 7, 8, 11):
            with pytest.raises(StoreError):
                decode_record(b"\0" * n)

    def test_wrong_magic(self):
        buf = bytearray(self._payload())
        buf[:4] = b"NOPE"
        with pytest.raises(StoreError):
            decode_record(bytes(buf))

    def test_every_truncation_point_is_structural(self):
        buf = self._payload()
        rng = random.Random(7)
        cuts = {1, 7, 8, 12, len(buf) - 1} | {
            rng.randrange(1, len(buf)) for _ in range(40)
        }
        for cut in sorted(cuts):
            try:
                decode_record(buf[:cut]).invariant()
            except ReproError:
                pass  # StoreError or another structured failure: fine
            # Any other exception type propagates and fails the test.

    def test_header_bitflips_are_structural(self):
        buf = self._payload()
        rng = random.Random(11)
        for _ in range(60):
            garbled = bytearray(buf)
            garbled[rng.randrange(len(garbled))] ^= 1 << rng.randrange(8)
            try:
                rec = decode_record(bytes(garbled))
                rec.invariant()
                if rec.has_instance:
                    rec.instance()
            except ReproError:
                pass

    def test_bad_version_and_kind(self):
        t = invariant(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        buf = encode_record(t)
        import json
        import struct

        header_len = struct.unpack("<I", buf[4:8])[0]
        header = json.loads(buf[8 : 8 + header_len])
        for mutation in ({"v": 99}, {"k": "blob"}):
            bad = dict(header, **mutation)
            raw = json.dumps(bad).encode()
            rebuilt = (
                buf[:4]
                + struct.pack("<I", len(raw))
                + raw
                + b"\0" * ((-(8 + len(raw))) % 8)
                + buf[8 + header_len + ((-(8 + header_len)) % 8) :]
            )
            with pytest.raises(StoreError):
                decode_record(rebuilt)
