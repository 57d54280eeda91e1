import random
import threading

import pytest

from helpers import free_port
from macbits.errors import ProtocolError, TransportError
from macbits.transport import (FRAME_HEADER_BYTES, MsgType, Role, _pack_hello,
                               memory_pair, perform_hello, run_pair,
                               tcp_connect, tcp_listen)


def test_loopback_round_trip():
    a, b = memory_pair()
    a.send(MsgType.EQ_VALUE, b"payload")
    assert b.recv(MsgType.EQ_VALUE) == b"payload"


def test_fifo_order():
    a, b = memory_pair()
    for i in range(10):
        a.send(MsgType.EQ_VALUE, bytes([i]))
    for i in range(10):
        assert b.recv(MsgType.EQ_VALUE) == bytes([i])


def test_mismatched_type_is_protocol_error():
    a, b = memory_pair()
    a.send(MsgType.EQ_COMMIT, b"x")
    with pytest.raises(ProtocolError):
        b.recv(MsgType.EQ_OPEN)


def test_send_after_close():
    a, _ = memory_pair()
    a.close()
    with pytest.raises(TransportError):
        a.send(MsgType.EQ_VALUE, b"")


def test_peer_close_surfaces_in_recv():
    a, b = memory_pair()
    a.close()
    with pytest.raises(TransportError):
        b.recv(MsgType.EQ_VALUE)


def test_recv_timeout():
    _, b = memory_pair(timeout=0.05)
    with pytest.raises(TransportError):
        b.recv(MsgType.EQ_VALUE)


def test_stats_count_frames_and_bytes():
    a, b = memory_pair()
    a.send(MsgType.EQ_VALUE, b"12345")
    b.recv(MsgType.EQ_VALUE)
    assert a.stats.frames_sent == 1
    assert a.stats.bytes_sent == FRAME_HEADER_BYTES + 5
    assert b.stats.frames_received == 1
    assert b.stats.bytes_received == FRAME_HEADER_BYTES + 5


def test_duplex_interleaving_keeps_per_direction_fifo():
    rng = random.Random(0)
    a, b = memory_pair()
    n = 200
    schedule = [rng.getrandbits(1) for _ in range(2 * n)]

    def party(ch, my_turn):
        sent = recvd = 0
        out = []
        for turn in schedule:
            if turn == my_turn and sent < n:
                ch.send(MsgType.EQ_VALUE, sent.to_bytes(2, "big"))
                sent += 1
            elif turn != my_turn and recvd < n:
                out.append(ch.recv(MsgType.EQ_VALUE))
                recvd += 1
        while sent < n:
            ch.send(MsgType.EQ_VALUE, sent.to_bytes(2, "big"))
            sent += 1
        while recvd < n:
            out.append(ch.recv(MsgType.EQ_VALUE))
            recvd += 1
        return out

    got_a, got_b = run_pair(lambda: party(a, 0), lambda: party(b, 1),
                            timeout=30)
    want = [i.to_bytes(2, "big") for i in range(n)]
    assert got_a == want and got_b == want


def test_tcp_round_trip():
    port = free_port()
    results = {}

    def server():
        ch = tcp_listen("127.0.0.1", port, timeout=10)
        results["got"] = ch.recv(MsgType.EQ_VALUE)
        ch.send(MsgType.EQ_OPEN, b"pong")
        ch.close()

    t = threading.Thread(target=server, daemon=True)
    t.start()
    ch = tcp_connect("127.0.0.1", port, timeout=10)
    ch.send(MsgType.EQ_VALUE, b"ping" * 1000)
    assert ch.recv(MsgType.EQ_OPEN) == b"pong"
    ch.close()
    t.join(10)
    assert results["got"] == b"ping" * 1000


def test_tcp_disconnect_mid_protocol():
    port = free_port()

    def server():
        ch = tcp_listen("127.0.0.1", port, timeout=10)
        ch.close()

    t = threading.Thread(target=server, daemon=True)
    t.start()
    ch = tcp_connect("127.0.0.1", port, timeout=10)
    with pytest.raises(TransportError):
        ch.recv(MsgType.EQ_VALUE)
    t.join(10)


def test_hello_agrees():
    a, b = memory_pair()
    rng = random.Random(1)
    (sid_a, _), (sid_b, _) = run_pair(
        lambda: perform_hello(a, Role.ALICE, 128, 40, rng=rng),
        lambda: perform_hello(b, Role.BOB, 128, 40))
    assert sid_a == sid_b
    assert a.kappa == 128 and b.psi == 40


def test_hello_carries_extra():
    a, b = memory_pair()
    rng = random.Random(2)
    (_, ea), (_, eb) = run_pair(
        lambda: perform_hello(a, Role.ALICE, 16, 8, rng=rng, extra=b"A!"),
        lambda: perform_hello(b, Role.BOB, 16, 8, extra=b"B!"))
    assert ea == b"B!" and eb == b"A!"


def test_hello_parameter_mismatch_aborts():
    a, b = memory_pair()
    rng = random.Random(3)
    with pytest.raises(ProtocolError):
        run_pair(lambda: perform_hello(a, Role.ALICE, 128, 40, rng=rng),
                 lambda: perform_hello(b, Role.BOB, 64, 40),
                 channels=(a, b))


def test_hello_same_role_aborts():
    a, b = memory_pair()
    rng = random.Random(4)
    with pytest.raises(ProtocolError):
        run_pair(lambda: perform_hello(a, Role.ALICE, 16, 8, rng=rng),
                 lambda: perform_hello(b, Role.ALICE, 16, 8, rng=rng),
                 channels=(a, b))


GOOD_HELLO = _pack_hello(Role.ALICE, 16, 8, bytes(16), b"extra")


@pytest.mark.parametrize("payload", [
    GOOD_HELLO[:2],                              # shorter than the fixed part
    GOOD_HELLO[:-1],                             # extra cut short
    GOOD_HELLO + b"!",                           # trailing bytes past extra
    GOOD_HELLO[:2] + bytes([7]) + GOOD_HELLO[3:],  # unknown role byte
], ids=["short", "truncated-extra", "trailing", "role-7"])
def test_malformed_hello_is_protocol_error(payload):
    a, b = memory_pair(timeout=5.0)
    a.send(MsgType.HELLO, payload)
    with pytest.raises(ProtocolError):
        perform_hello(b, Role.BOB, 16, 8)


def test_run_pair_propagates_failure():
    def fine():
        return 7

    def broken():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        run_pair(fine, broken, timeout=5)
