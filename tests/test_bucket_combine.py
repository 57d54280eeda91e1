"""Malformed combiner frames.

Whatever bytes the peer puts in COMB_PERM or COMB_D, the checking side of
the aOT and aAND combiners either combines or raises ProtocolError or
ProtocolAbort. The peer's frames are queued before the checking side runs in
the test's own thread, so a side that waits for more than it was sent times
out (a TransportError, which fails the test) instead of hanging.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OracleDealer
from macbits.aand_proto import aand_combine_key
from macbits.aot_proto import aot_combine_receiver, aot_combine_sender
from macbits.errors import ProtocolAbort, ProtocolError
from macbits.ro_suite import MacAccumulator
from macbits.transport import MsgType, Role, memory_pair

N, BUCKET = 6, 2  # three outputs: a one-byte reveal frame with five pad bits
A = Role.ALICE

_OD = OracleDealer(16, random.Random(0))
_QUADS = [_OD.quad(A) for _ in range(N)]
_TRIPLE_KEYS = [_OD.triple(A)[1] for _ in range(N)]


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


def _combines(frames, check, where) -> bool:
    """Feed the peer's frames to `check`; True if it combined, False if it
    rejected them with a protocol error or an abort tagged `where`."""
    mine, peer = memory_pair(timeout=0.5)
    for msg_type, payload in frames:
        peer.send(msg_type, payload)
    try:
        out, acc = check(mine)
    except ProtocolError:
        return False
    except ProtocolAbort as e:
        assert e.phase == where
        return False
    assert len(out) == N // BUCKET and acc.count == N // BUCKET
    return True


@settings(max_examples=150, deadline=None)
@given(perm=perm_frames)
def test_aot_sender_checks_permutation(perm):
    senders = [q[0] for q in _QUADS]
    ok = _combines([(MsgType.COMB_PERM, perm)],
                   lambda ch: aot_combine_sender(ch, senders, BUCKET, MacAccumulator()),
                   "aot-comb")
    assert ok == _is_perm(perm)


@settings(max_examples=150, deadline=None)
@given(d=d_frames)
def test_aot_receiver_checks_reveals(d):
    receivers = [q[1] for q in _QUADS]
    ok = _combines([(MsgType.COMB_D, d)],
                   lambda ch: aot_combine_receiver(ch, receivers, BUCKET, _OD.delta[A],
                                                   random.Random(1), MacAccumulator()),
                   "aot-comb")
    assert ok == (len(d) == 1)


@settings(max_examples=200, deadline=None)
@given(perm=perm_frames, d=d_frames)
def test_aand_key_side_checks_permutation_and_reveals(perm, d):
    ok = _combines([(MsgType.COMB_PERM, perm), (MsgType.COMB_D, d)],
                   lambda ch: aand_combine_key(ch, _TRIPLE_KEYS, BUCKET, _OD.delta[A],
                                               MacAccumulator()),
                   "aand-comb")
    assert ok == (_is_perm(perm) and len(d) == 1)
