"""The material store file as untrusted input, and the script that checks a
dealt pair of them.

`MaterialStore.load` may return a store or raise ParseError, nothing else,
whatever the bytes; it checks the body length against the three record
counts, and everything after the header against its digest, before it
builds any array, so a count near 2**64 costs no allocation larger than the
file and a changed body byte fails at load; and the arrays it returns are
read-only.
"""

import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OracleDealer
from macbits.dealer import HEADER_BYTES, MaterialStore
from macbits.errors import ParseError
from macbits.ro_suite import DIGEST_BYTES, ro_hash

ROOT = Path(__file__).resolve().parents[1]
KAPPA = 16
# Alice's record count per stream; a store file may hold any counts
COUNTS = dict(zip(MaterialStore.STREAMS, (5, 4, 3)))
COUNTS_AT = HEADER_BYTES + KAPPA // 8  # three big-endian u64 counts follow
DIGEST_AT = COUNTS_AT + 8 * 3  # then the digest, then the body
BODY_AT = DIGEST_AT + DIGEST_BYTES

STORES = OracleDealer(KAPPA, random.Random(5)).stores(8, COUNTS)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("stores")


@pytest.fixture(scope="module")
def good(work) -> bytes:
    """Alice's saved store."""
    STORES[0].save(work / "good.store")
    return (work / "good.store").read_bytes()


def _load(work: Path, blob: bytes):
    """Load blob from a file; returns (store or None, peak bytes allocated)."""
    path = work / "fuzz.store"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        return MaterialStore.load(path), tracemalloc.get_traced_memory()[1]
    except ParseError:
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _redigest(blob: bytes) -> bytes:
    """blob with the digest that `save` would write for its other bytes, so
    that a mutation reaches the checks past the digest."""
    digest = ro_hash("store/body", blob[HEADER_BYTES:DIGEST_AT], blob[BODY_AT:])
    return blob[:DIGEST_AT] + digest + blob[BODY_AT:]


def _check(work: Path, blob: bytes):
    store, peak = _load(work, blob)
    # the file's bytes, plus small objects: never an array sized by a count
    assert peak <= len(blob) + 64 * 1024
    if store is not None:
        for name in MaterialStore.STREAMS:
            for rows in getattr(store, name):
                assert not rows.flags.writeable
    return store


def test_saved_store_loads_read_only(work, good):
    store = _check(work, good)
    assert store is not None
    for name in MaterialStore.STREAMS:
        stream = getattr(store, name)
        # one array per side, whatever the record count
        assert len(stream) == 2 and all(isinstance(a, np.ndarray) for a in stream)
        for got, want in zip(stream, getattr(STORES[0], name)):
            assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_store_is_parse_error(work, good, data):
    n = data.draw(st.integers(0, len(good) - 1))
    assert _check(work, good[:n]) is None


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=300))
def test_extended_store_is_parse_error(work, good, tail):
    assert _check(work, good + tail) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2),
       st.one_of(st.integers(2**64 - 2**16, 2**64 - 1),
                 st.integers(2**63 - 16, 2**63 + 16),
                 st.integers(0, 2**64 - 1),
                 st.integers(0, 64)))
def test_mutated_count_is_parse_error_or_consistent(work, good, i, count):
    at = COUNTS_AT + 8 * i
    blob = _redigest(good[:at] + struct.pack(">Q", count) + good[at + 8:])
    store = _check(work, blob)
    if store is not None:
        # only a count that keeps the body length may load
        assert store.remaining(MaterialStore.STREAMS[i]) == count


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(8, ">H"), (10, ">B"), (11, ">B"), (12, ">H"), (14, ">H")]),
       st.integers(0, 2**16 - 1))
def test_mutated_header_field_is_parse_error_or_loads(work, good, field, value):
    at, fmt = field
    value %= 1 << (8 * struct.calcsize(fmt))
    blob = good[:at] + struct.pack(fmt, value) + good[at + struct.calcsize(fmt):]
    _check(work, blob)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 255))
def test_flipped_byte_is_parse_error_or_loads(work, good, data, mask):
    blob = bytearray(good)
    blob[data.draw(st.integers(0, len(good) - 1))] ^= mask
    _check(work, bytes(blob))


@pytest.mark.parametrize("at, value", [(11, 1), (11, 255), (14, 0)])
def test_reserved_byte_or_zero_psi_is_parse_error(work, good, at, value):
    # offset 11 is the reserved byte after the role, 14 the u16 psi; no
    # writer sets the one or clears the other
    width = 2 if at == 14 else 1
    blob = good[:at] + value.to_bytes(width, "big") + good[at + width:]
    assert _check(work, blob) is None


def test_bit_byte_above_one_is_parse_error(work, good):
    # the first record of abits_mine is its MAC bytes, then its bit byte
    at = BODY_AT + KAPPA // 8
    assert good[at] in (0, 1)
    blob = bytearray(good)
    blob[at] = 2
    assert _check(work, _redigest(bytes(blob))) is None


def test_flipped_body_byte_fails_at_load(work, good):
    """One flipped byte past the header, in the global key, the digest or
    a stream's rows, fails `load` on the digest; the body bytes flipped
    here are MAC or key bytes, which load without it. (A flipped count
    fails on the body length first.)"""
    # the first MAC byte of abits_mine and of triples, and the last key byte
    body = [BODY_AT, BODY_AT + 5 * (KAPPA // 8 + 1) + 4 * KAPPA // 8, len(good) - 1]
    path = work / "flipped.store"
    for at in [HEADER_BYTES, DIGEST_AT, *body]:
        blob = bytearray(good)
        blob[at] ^= 0x10
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="digest"):
            MaterialStore.load(path)
        if at in body:
            assert _check(work, _redigest(bytes(blob))) is not None


# ---------------------------------------------------------------------------
# scripts/verify_material.py


def _verify(*paths) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_material.py"), *map(str, paths)],
        env=env, capture_output=True, text=True, timeout=120).returncode


def test_verify_material_exit_codes(tmp_path):
    sa, sb = STORES
    pa, pb = tmp_path / "a.store", tmp_path / "b.store"
    sa.save(pa)
    sb.save(pb)
    assert _verify(pa, pb) == 0
    assert _verify(pb, pa) == 0  # either order

    bad = MaterialStore.load(pb)
    keys = bad.abits_theirs[1].copy()
    keys[0, 0, 0] ^= 1  # one byte of Bob's key on Alice's first bit
    bad.abits_theirs = (bad.abits_theirs[0], keys)
    pbad = tmp_path / "bad.store"
    bad.save(pbad)
    assert _verify(pa, pbad) == 2

    cut = tmp_path / "cut.store"
    cut.write_bytes(pb.read_bytes()[:-1])
    assert _verify(pa, cut) == 3
