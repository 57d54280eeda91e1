"""Random first frames into every protocol step.

Each step is first run honestly against its peer while the peer's frames are
recorded. The fuzz run then queues a random payload in place of the step's
first inbound frame, followed by the rest of the honest frames, and runs the
step alone in the test's thread over a channel with a 0.5 s receive timeout:
a step that waits for more than it was sent fails the test with
TransportError instead of hanging. Only success, ProtocolError or a
ProtocolAbort with the step's own tag may come out, and a payload of the
wrong length must be rejected by the size check, before anything else is
read.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import OracleDealer, bit_rows, run_side
from macbits.aand_proto import laand_key_side, laand_mac_side
from macbits.abit_proto import (labit_receiver, labit_sender, tau_for,
                                wabit_amplify_key_side, wabit_amplify_mac_side)
from macbits.aot_proto import laot_receiver, laot_sender
from macbits.base_ot import DealerOt
from macbits.bitlinalg import random_rows
from macbits.eq_box import eq_commit_side, eq_respond_side, value_digest
from macbits.errors import ProtocolAbort, ProtocolError
from macbits.transport import MsgType, Role, memory_pair, run_pair

KAPPA, ELL = 16, 5
A, B = Role.ALICE, Role.BOB

_OD = OracleDealer(KAPPA, random.Random(0))


def _abits(owner, n):
    return [_OD.abit(owner) for _ in range(n)]


# laOT: Alice sends, Bob chooses; laAND: Alice holds the MACs
_X0, _X1 = _abits(A, ELL), _abits(A, ELL)
_C, _R = _abits(B, ELL), _abits(B, ELL)
_TX, _TY, _TR = _abits(A, ELL), _abits(A, ELL), _abits(A, ELL)
_TAU = tau_for(KAPPA)
_GAMMA = random_rows(1, 40, random.Random(1))[0]
_COLS = random_rows(_TAU, 40, random.Random(2))
_EQ = value_digest(24, random_rows(1, 24, random.Random(3)).tobytes())


def _macs(pairs):
    return bit_rows([m for m, _ in pairs], KAPPA)


def _keys(pairs):
    return bit_rows([k for _, k in pairs], KAPPA)


def _ot_send(ch):
    return DealerOt(ch, random.Random(4)).send(random_rows(2 * ELL, KAPPA, random.Random(11))
                                                .reshape(ELL, 2, KAPPA // 8))


# name -> (step under test, its honest peer, first inbound type, abort tag)
STEPS = {
    "labit_sender": (
        lambda ch: labit_sender(ch, 3, 24, random.Random(5), DealerOt(ch, random.Random(5))),
        lambda ch: labit_receiver(ch, 3, 24, random.Random(6), DealerOt(ch)),
        MsgType.LABIT_PAIRING, "labit"),
    "wabit_amplify_mac_side": (
        lambda ch: wabit_amplify_mac_side(ch, _GAMMA, _COLS, 40, KAPPA),
        lambda ch: wabit_amplify_key_side(ch, np.zeros(_TAU, np.uint8), _COLS, 40, KAPPA, A,
                                          random.Random(7)),
        MsgType.AMPLIFY_MATRIX, None),
    "laot_sender": (
        lambda ch: laot_sender(ch, _macs(_X0), _macs(_X1), _keys(_C), _keys(_R),
                               _OD.delta[B], random.Random(8)),
        lambda ch: laot_receiver(ch, _macs(_C), _macs(_R), _keys(_X0), _keys(_X1),
                                 _OD.delta[A]),
        MsgType.LAOT_D, "laot"),
    "laot_receiver": (
        lambda ch: laot_receiver(ch, _macs(_C), _macs(_R), _keys(_X0), _keys(_X1),
                                 _OD.delta[A]),
        lambda ch: laot_sender(ch, _macs(_X0), _macs(_X1), _keys(_C), _keys(_R),
                               _OD.delta[B], random.Random(8)),
        MsgType.LAOT_X0, "laot"),
    "laand_mac_side": (
        lambda ch: laand_mac_side(ch, _macs(_TX), _macs(_TY), _macs(_TR), random.Random(9)),
        lambda ch: laand_key_side(ch, _keys(_TX), _keys(_TY), _keys(_TR), _OD.delta[A]),
        MsgType.LAAND_U, "laand"),
    "laand_key_side": (
        lambda ch: laand_key_side(ch, _keys(_TX), _keys(_TY), _keys(_TR), _OD.delta[A]),
        lambda ch: laand_mac_side(ch, _macs(_TX), _macs(_TY), _macs(_TR), random.Random(9)),
        MsgType.LAAND_D, "laand"),
    "eq_commit_side": (
        lambda ch: eq_commit_side(ch, _EQ, random.Random(10)),
        lambda ch: eq_respond_side(ch, _EQ),
        MsgType.EQ_VALUE, None),
    "eq_respond_side": (
        lambda ch: eq_respond_side(ch, _EQ),
        lambda ch: eq_commit_side(ch, _EQ, random.Random(10)),
        MsgType.EQ_COMMIT, None),
    "DealerOt.receive": (
        lambda ch: DealerOt(ch).receive([i & 1 for i in range(ELL)], KAPPA),
        _ot_send,
        MsgType.OT_SETUP, None),
}


def _pair(timeout):
    a, b = memory_pair(timeout=timeout)
    a.kappa = b.kappa = KAPPA
    return a, b


@functools.lru_cache(maxsize=None)
def honest_frames(name):
    """The frames the step receives when its peer is honest."""
    step, peer, _, _ = STEPS[name]
    mine, theirs = _pair(30.0)
    frames = []
    send = theirs.send
    theirs.send = lambda t, p: (frames.append((t, p)), send(t, p))
    run_pair(lambda: run_side(mine, A, step(mine)), lambda: run_side(theirs, B, peer(theirs)),
             timeout=30, channels=(mine, theirs))
    return tuple(frames)


def payloads(size):
    sized = lambda n: st.binary(min_size=n, max_size=n)  # noqa: E731
    return st.one_of(st.binary(max_size=8), sized(size), sized(size + 1),
                     sized(max(size - 1, 0)), st.integers(0, 2 * size + 8).flatmap(sized))


@pytest.mark.parametrize("name", list(STEPS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_first_frame(name, data):
    step, _, msg_type, where = STEPS[name]
    honest = honest_frames(name)
    assert honest[0][0] == msg_type
    size = len(honest[0][1])
    payload = data.draw(payloads(size), label="payload")
    mine, peer = _pair(0.5)
    peer.send(msg_type, payload)
    for t, p in honest[1:]:
        peer.send(t, p)
    try:
        run_side(mine, A, step(mine))
    except ProtocolError as e:
        if len(payload) != size:
            assert str(e) == f"{msg_type.name} frame of {len(payload)} bytes, expected {size}"
            assert mine.stats.frames_received == 1
        return
    except ProtocolAbort as e:
        assert where is not None and e.phase == where
    assert len(payload) == size
