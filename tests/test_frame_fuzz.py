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

A frame that packs one bit vector or a batch of rows has one encoding: a
deal or an evaluation in which Alice sets a pad bit of one such frame ends
in a ProtocolError at Bob.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OracleDealer, bit_rows, closing_pair, counting_pair, flip_pair,
                     labit_receive_all, oracle_store_pair, random_circuit, random_inputs,
                     run_side)
from macbits.aand_proto import laand_key_side, laand_mac_side
from macbits.abit_proto import (labit_sender, tau_for, wabit_amplify_key_side,
                                wabit_amplify_mac_side)
from macbits.aot_proto import laot_receiver, laot_sender
from macbits.base_ot import DealerOt
from macbits.bitlinalg import random_rows
from macbits.dealer import DealerConfig, deal
from macbits.eq_box import eq_commit_side, eq_respond_side, value_digest
from macbits.errors import ProtocolAbort, ProtocolError
from macbits.runtime_2pc import Runtime
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


# Both endpoints of a DealerOt step key their pads by one session id, as
# `dealer.deal` does with the id of its hello.
_SID = bytes(range(16))


def _ot_send(ch):
    return DealerOt(_SID, A).send(random_rows(2 * ELL, KAPPA, random.Random(11))
                                  .reshape(ELL, 2, KAPPA // 8))


def _ot_receive(ch):
    return DealerOt(_SID, A).receive([i & 1 for i in range(ELL)], KAPPA)


def _labit_sender(ch):
    return labit_sender(3, 24, KAPPA, random.Random(5), DealerOt(_SID, A))


def _labit_receiver(ch):
    return labit_receive_all(3, 24, KAPPA, random.Random(6), DealerOt(_SID, A))


# name -> (step under test, its honest peer, first inbound type, abort tag)
STEPS = {
    "labit_sender": (_labit_sender, _labit_receiver, MsgType.LABIT_PAIRING, "labit"),
    "wabit_amplify_mac_side": (
        lambda ch: wabit_amplify_mac_side(_GAMMA, _COLS, 40, KAPPA),
        lambda ch: wabit_amplify_key_side(np.zeros(_TAU, np.uint8), _COLS, 40, KAPPA,
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
        lambda ch: eq_commit_side(_EQ, KAPPA, random.Random(10)),
        lambda ch: eq_respond_side(_EQ, KAPPA),
        MsgType.EQ_VALUE, None),
    "eq_respond_side": (
        lambda ch: eq_respond_side(_EQ, KAPPA),
        lambda ch: eq_commit_side(_EQ, KAPPA, random.Random(10)),
        MsgType.EQ_COMMIT, None),
    "DealerOt.receive": (_ot_receive, _ot_send, MsgType.OT_MASKED0, None),
}


@functools.lru_cache(maxsize=None)
def honest_frames(name):
    """The frames the step receives when its peer is honest."""
    step, peer, _, _ = STEPS[name]
    with closing_pair(counting_pair(timeout=30.0)) as (mine, theirs):
        run_pair(lambda: run_side(mine, A, step(mine)), lambda: run_side(theirs, B, peer(theirs)),
                 timeout=30, channels=(mine, theirs))
    return tuple(theirs.sent)


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
    with closing_pair(memory_pair(timeout=0.5)) as (mine, peer):
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


@pytest.mark.parametrize("part", [
    [0, 1, 3, 2, 5, 4],        # fixed points
    [1, 0, 3, 4, 5, 2],        # no fixed point, but not an involution
    [1, 0, 3, 2, 5, 6],        # a partner out of range
    [1, 0, 3, 2, 5, 2**32 - 1],
], ids=["fixed-points", "not-involution", "out-of-range", "max-u32"])
def test_labit_sender_rejects_an_invalid_pairing(part):
    # the honest receiver's frames, with its LABIT_PAIRING (tau = 3, so six
    # partners) replaced by one that is no perfect matching
    honest = honest_frames("labit_sender")
    with closing_pair(memory_pair(timeout=0.5)) as (mine, peer):
        peer.send(MsgType.LABIT_PAIRING, np.array(part, ">u4").tobytes())
        for t, p in honest[1:]:
            peer.send(t, p)
        with pytest.raises(ProtocolAbort, match="peer sent an invalid pairing") as err:
            run_side(mine, A, _labit_sender(mine))
    assert err.value.phase == "labit"


# ---------------------------------------------------------------------------
# canonical packed bits: a frame that packs n bits has one encoding, with
# its pad bits past n zero

PAD_DEAL = DealerConfig.for_gates(3, 2, 2, kappa=KAPPA, psi=8)
# 17 gates: its first AND level has 5 gates, so 10 reveal bits leave pad bits
PAD_CIRCUIT = random_circuit(random.Random(12), 17, inputs_a=3, inputs_b=3, n_outputs=1)
PAD_INPUTS = random_inputs(PAD_CIRCUIT, random.Random(13))


def _deal(a, b):
    return run_pair(lambda: deal(a, A, PAD_DEAL, random.Random(1)),
                    lambda: deal(b, B, PAD_DEAL, random.Random(2)),
                    timeout=30, channels=(a, b))


def _evaluate(a, b):
    sa, sb = oracle_store_pair(PAD_CIRCUIT, random.Random(14))
    xa, xb = PAD_INPUTS
    return run_pair(lambda: Runtime(a, A, sa).evaluate(PAD_CIRCUIT, xa),
                    lambda: Runtime(b, B, sb).evaluate(PAD_CIRCUIT, xb),
                    timeout=30, channels=(a, b))


@pytest.mark.parametrize("msg_type, nth", [pytest.param(t, nth, id=t.name) for t, nth in (
    (MsgType.LABIT_D, 0), (MsgType.LAAND_D, 0), (MsgType.LAOT_D, 0), (MsgType.COMB_D, 0),
    (MsgType.AMPLIFY_MATRIX, 0), (MsgType.OT_MASKED1, 1), (MsgType.BEAVER_OPEN, 0),
    (MsgType.RT_ANNOUNCE_BATCH, 0), (MsgType.RT_REVEAL_BATCH, 0), (MsgType.RT_OUTPUT, 0),
)])
def test_a_set_pad_bit_is_protocol_error(msg_type, nth):
    """Alice sets the top bit of the last byte of her nth msg_type frame
    (counting from 0), a pad bit, since the frame's bits or its last row do
    not fill that byte: Bob refuses it. The matrix has tau = 118 bits per
    row. Alice's first OT_MASKED1 holds the seed OTs' 128-bit rows; her
    second is the aBit correction frame, whose rows of ell = 110 bits Bob
    parses before his choice bits pick any. RT_OUTPUT ends in the digest of
    its output bits' MACs, so there the flipped pad bit is the top bit of
    the byte that packs the circuit's one output bit."""
    run = _evaluate if msg_type.name.startswith("RT_") else _deal
    with closing_pair(counting_pair(timeout=30.0)) as (a, b):
        run(a, b)
    k = [i for i, (t, _) in enumerate(a.sent) if t == msg_type][nth]
    bit = 7 if msg_type is MsgType.RT_OUTPUT else -1
    with closing_pair(flip_pair(A, k, bit, timeout=30.0)) as (a, b):
        with pytest.raises(ProtocolError, match="pad bit"):
            run(a, b)
