import random
import struct

import pytest

from helpers import closing_pair, counting_pair, run_side, run_two
from macbits.bitlinalg import BitVec, random_rows
from macbits.eq_box import (_commitment, eq_commit_side, eq_respond_side, value_digest,
                            value_stream)
from macbits.errors import ProtocolError
from macbits.ro_suite import hash_calls, ro_hash
from macbits.transport import MsgType, Role, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB


def run_eq(x: BitVec, y: BitVec):
    rng = random.Random(0)
    return run_two(lambda a: run_side(a, A, eq_commit_side(digest(x), 16, rng)),
                   lambda b: run_side(b, B, eq_respond_side(digest(y), 16)), timeout=10)


def test_equal_inputs_both_true():
    v = BitVec.from_bytes(16, b"\xde\xad")
    assert run_eq(v, v) == (True, True)


def test_single_bit_difference_both_false():
    v = BitVec.from_bytes(16, b"\xde\xad")
    assert run_eq(v, v ^ BitVec(16, 1)) == (False, False)


def test_completeness_exhaustive_small():
    for n in range(1, 9):
        for val in range(1 << n):
            v = BitVec(n, val)
            assert run_eq(v, v) == (True, True)


def test_commitment_deterministic():
    x = BitVec(16, 0x1234).to_bytes()
    r = BitVec(16, 0x5678).to_bytes()
    assert _commitment(16, x, r) == _commitment(16, x, r)
    assert _commitment(16, x, r) != _commitment(16, BitVec(16, 0x1235).to_bytes(), r)


def digest(v: BitVec) -> bytes:
    return ro_hash("eq/value", struct.pack(">Q", v.n), v.to_bytes())


def test_value_stream_matches_value_digest():
    # labit feeds its folded rows into the digest a chunk at a time; that
    # is one hash call, equal to the digest of the rows joined
    rows = random_rows(9, 8 * 26, random.Random(5))
    before = hash_calls("eq/value")
    h = value_stream(rows.size * 8)
    for chunk in (rows[:2], rows[2:3], rows[3:]):
        h.update(chunk)
    assert hash_calls("eq/value") - before == 1
    assert h.digest() == value_digest(rows.size * 8, rows.tobytes())


def test_frame_sizes():
    # EQ_COMMIT kappa/8, EQ_VALUE one digest, EQ_OPEN digest plus kappa/8
    v = BitVec.random(1000, random.Random(4))
    with closing_pair(counting_pair(timeout=10.0)) as (a, b):
        assert run_pair(lambda: run_side(a, A, eq_commit_side(digest(v), 16, random.Random(0))),
                        lambda: run_side(b, B, eq_respond_side(digest(v), 16))) == (True, True)
    assert [(t, len(p)) for t, p in a.sent] == [(MsgType.EQ_COMMIT, 2),
                                                (MsgType.EQ_OPEN, 32 + 2)]
    assert [(t, len(p)) for t, p in b.sent] == [(MsgType.EQ_VALUE, 32)]


def test_mismatch_reveals_only_the_digest():
    # on mismatch the responder has seen the opening: the committed value's
    # 32-byte digest and the commitment randomness, never the value
    x = BitVec(8, 0b10110010)
    seen = {}

    def responder(b):
        b.recv(MsgType.EQ_COMMIT)
        b.send(MsgType.EQ_VALUE, digest(BitVec(8, 0x55)))
        seen["opening"] = b.recv(MsgType.EQ_OPEN)

    verdict, _ = run_two(
        lambda a: run_side(a, A, eq_commit_side(digest(x), 16, random.Random(1))), responder,
        timeout=10)
    assert verdict is False
    r = BitVec.random(16, random.Random(1))
    assert seen["opening"] == digest(x) + r.to_bytes()


def test_forged_opening_rejected():
    # commit to H(x) but open to H(x') with fresh randomness: responder says no
    rng = random.Random(2)
    for _ in range(300):
        x = BitVec.random(16, rng)
        x2 = x ^ BitVec(16, 1 << rng.randrange(16))
        def cheat(a):
            r = BitVec.random(16, rng).to_bytes()
            a.send(MsgType.EQ_COMMIT, _commitment(16, digest(x), r))
            a.recv(MsgType.EQ_VALUE)
            r2 = BitVec.random(16, rng)
            a.send(MsgType.EQ_OPEN, digest(x2) + r2.to_bytes())

        _, verdict = run_two(cheat, lambda b: run_side(b, B, eq_respond_side(digest(x2), 16)),
                             timeout=10)
        assert verdict is False


def test_binding_rate_at_reduced_kappa():
    """Forging an opening for x' != x succeeds only by hitting the truncated
    commitment: rate about 2^-16 at kappa=16."""
    rng = random.Random(3)
    trials = 1_000_000
    hits = 0
    x = BitVec(16, 0xAAAA).to_bytes()
    r = BitVec.random(16, rng).to_bytes()
    target = _commitment(16, x, r)
    x2 = BitVec(16, 0x5555).to_bytes()
    for _ in range(trials):
        if _commitment(16, x2, rng.getrandbits(16).to_bytes(2, "little")) == target:
            hits += 1
    assert hits / trials <= 10 * 2**-16


def test_bad_commitment_length_rejected():
    def sender(a):
        a.send(MsgType.EQ_COMMIT, b"toolongforkappa16")
        return None

    with pytest.raises(ProtocolError):
        run_two(sender, lambda b: run_side(b, B, eq_respond_side(digest(BitVec(8, 0)), 16)),
                timeout=10)


def test_truncated_opening_rejected():
    def sender(a):
        x = BitVec(8, 3).to_bytes()
        r = BitVec(16, 7).to_bytes()
        a.send(MsgType.EQ_COMMIT, _commitment(16, x, r))
        a.recv(MsgType.EQ_VALUE)
        a.send(MsgType.EQ_OPEN, b"\x00\x00\x00\x08\x03")  # missing r

    with pytest.raises(ProtocolError):
        run_two(sender, lambda b: run_side(b, B, eq_respond_side(digest(BitVec(8, 3)), 16)),
                timeout=10)


SHORT = [b"", b"\x00", b"\x00\x00", b"\x00\x00\x00"]  # shorter than the length field


@pytest.mark.parametrize("short", SHORT)
def test_short_value_frame_is_protocol_error(short):
    with closing_pair(memory_pair(timeout=10.0)) as (a, b), pytest.raises(ProtocolError):
        b.send(MsgType.EQ_VALUE, short)
        run_side(a, A, eq_commit_side(digest(BitVec(8, 3)), 16, random.Random(0)))


@pytest.mark.parametrize("short", SHORT)
def test_short_opening_frame_is_protocol_error(short):
    with closing_pair(memory_pair(timeout=10.0)) as (a, b), pytest.raises(ProtocolError):
        a.send(MsgType.EQ_COMMIT, bytes(2))
        a.send(MsgType.EQ_OPEN, short)
        run_side(b, B, eq_respond_side(digest(BitVec(8, 3)), 16))
