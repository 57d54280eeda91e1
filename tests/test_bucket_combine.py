"""The bucket combiners: array folds against the per-record reference, and
malformed combiner frames.

The combiners fold uint8 rows, one array XOR per fold. For random buckets
they must give, row for row, what the per-record reference fold in
helpers.py gives for the same permutation, and the opened MACs both sides
return for the flush must be the reference's, round after round.

Whatever bytes the peer puts in COMB_PERM or COMB_D, the checking side of
the aOT and aAND combiners either combines or raises ProtocolError or
ProtocolAbort. The peer's frames are queued before the checking side runs in
the test's own thread, so a side that waits for more than it was sent times
out (a TransportError, which fails the test) instead of hanging.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (AuthBitMac, OracleDealer, closing_pair, fold_receiver, fold_sender,
                     fold_triple_key, fold_triple_mac, reference_combine, run_side, run_two,
                     to_rows)
from macbits.aand_proto import aand_combine_key, aand_combine_mac
from macbits.aot_proto import aot_combine_receiver, aot_combine_sender
from macbits.bitlinalg import random_permutation
from macbits.errors import ProtocolAbort, ProtocolError
from macbits.transport import MsgType, Role, memory_pair

KAPPA = 16
N, BUCKET = 6, 2  # three outputs: a one-byte reveal frame with five pad bits
A, B = Role.ALICE, Role.BOB

_OD = OracleDealer(KAPPA, random.Random(0))
_QUADS = [_OD.quad(A) for _ in range(N)]
_TRIPLE_KEYS = to_rows([_OD.triple(A)[1] for _ in range(N)], KAPPA)


# ---------------------------------------------------------------------------
# array folds against the record reference


def _check_against_reference(pairs, bucket, out, opened, perm_seed, folds, reveal):
    perm = random_permutation(len(pairs), random.Random(perm_seed))
    want, rounds = reference_combine(pairs, perm, bucket, folds, reveal)
    for side, got in enumerate(out):
        ref = to_rows([p[side] for p in want], KAPPA)
        assert np.array_equal(got.macs, ref.macs) and np.array_equal(got.keys, ref.keys)
    for macs in opened:
        assert np.array_equal(macs, np.concatenate(rounds))


def _quad_reveal(a, b):
    return AuthBitMac(a.x0.bit ^ a.x1.bit ^ b.x0.bit ^ b.x1.bit,
                      a.x0.mac ^ a.x1.mac ^ b.x0.mac ^ b.x1.mac)


def _triple_reveal(a, b):
    return a.y ^ b.y


@settings(max_examples=40, deadline=None)
@given(bucket=st.integers(2, 5), n_out=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_array_fold_matches_record_reference(bucket, n_out, seed):
    od = OracleDealer(KAPPA, random.Random(seed))
    n = bucket * n_out

    quads = [od.quad(A) for _ in range(n)]
    (out_s, macs_s), (out_r, macs_r) = run_two(
        lambda a: run_side(a, A, aot_combine_sender(a, to_rows([q[0] for q in quads], KAPPA),
                                                    bucket)),
        lambda b: run_side(b, B, aot_combine_receiver(b, to_rows([q[1] for q in quads], KAPPA),
                                                      bucket, od.delta[A],
                                                      random.Random(seed + 1))),
        timeout=30)
    _check_against_reference(quads, bucket, (out_s, out_r), (macs_s, macs_r), seed + 1,
                             (fold_sender, fold_receiver), _quad_reveal)

    triples = [od.triple(A) for _ in range(n)]
    (out_m, macs_m), (out_k, macs_k) = run_two(
        lambda a: run_side(a, A, aand_combine_mac(a, to_rows([t[0] for t in triples], KAPPA),
                                                  bucket, random.Random(seed + 2))),
        lambda b: run_side(b, B, aand_combine_key(b, to_rows([t[1] for t in triples], KAPPA),
                                                  bucket, od.delta[A])),
        timeout=30)
    _check_against_reference(triples, bucket, (out_m, out_k), (macs_m, macs_k), seed + 2,
                             (fold_triple_mac, fold_triple_key), _triple_reveal)


# ---------------------------------------------------------------------------
# malformed frames


def _pack(indices) -> bytes:
    return b"".join(i.to_bytes(4, "big") for i in indices)


perm_frames = st.one_of(
    st.binary(max_size=4 * N + 5),
    st.permutations(range(N)).map(_pack),
    st.lists(st.integers(0, N - 1), min_size=N, max_size=N).map(_pack),
    st.lists(st.integers(0, 2**32 - 1), min_size=N, max_size=N).map(_pack),
)
d_frames = st.binary(max_size=3)


def _is_perm(raw: bytes) -> bool:
    got = sorted(int.from_bytes(raw[i : i + 4], "big") for i in range(0, len(raw), 4))
    return len(raw) == 4 * N and got == list(range(N))


def _is_reveal(raw: bytes) -> bool:
    """One byte of N // BUCKET reveal bits whose pad bits are zero."""
    return len(raw) == 1 and raw[0] < 1 << N // BUCKET


def _combines(frames, check, where) -> bool:
    """Feed the peer's frames to the combiner side `check` makes; True if it
    combined, False if it rejected them with a protocol error or an abort
    tagged `where`."""
    with closing_pair(memory_pair(timeout=0.5)) as (mine, peer):
        for msg_type, payload in frames:
            peer.send(msg_type, payload)
        try:
            out, macs = run_side(mine, A, check(mine))
        except ProtocolError:
            return False
        except ProtocolAbort as e:
            assert e.phase == where
            return False
    assert len(out) == len(macs) == N // BUCKET
    return True


@settings(max_examples=150, deadline=None)
@given(perm=perm_frames)
def test_aot_sender_checks_permutation(perm):
    senders = to_rows([q[0] for q in _QUADS], KAPPA)
    ok = _combines([(MsgType.COMB_PERM, perm)],
                   lambda ch: aot_combine_sender(ch, senders, BUCKET),
                   "aot-comb")
    assert ok == _is_perm(perm)


@settings(max_examples=150, deadline=None)
@given(d=d_frames)
def test_aot_receiver_checks_reveals(d):
    receivers = to_rows([q[1] for q in _QUADS], KAPPA)
    ok = _combines([(MsgType.COMB_D, d)],
                   lambda ch: aot_combine_receiver(ch, receivers, BUCKET, _OD.delta[A],
                                                   random.Random(1)),
                   "aot-comb")
    assert ok == _is_reveal(d)


@settings(max_examples=200, deadline=None)
@given(perm=perm_frames, d=d_frames)
def test_aand_key_side_checks_permutation_and_reveals(perm, d):
    ok = _combines([(MsgType.COMB_PERM, perm), (MsgType.COMB_D, d)],
                   lambda ch: aand_combine_key(ch, _TRIPLE_KEYS, BUCKET, _OD.delta[A]),
                   "aand-comb")
    assert ok == (_is_perm(perm) and _is_reveal(d))
