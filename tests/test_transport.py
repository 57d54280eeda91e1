import ast
import pathlib
import random
import socket
import threading

import numpy as np
import pytest

from helpers import OracleDealer, bit_rows, free_port, run_side
from macbits.aand_proto import laand_key_side, laand_mac_side
from macbits.aot_proto import laot_receiver, laot_sender
from macbits.eq_box import eq_commit_side, eq_respond_side
from macbits.errors import ProtocolError, TransportError, UsageError
from macbits.transport import (FRAME_HEADER_BYTES, MsgType, Recv, Role, Send, Swap, TcpChannel,
                               _pack_hello, memory_pair, perform_hello,
                               run_pair, run_sides, tcp_connect, tcp_listen)


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
        lambda: run_side(a, Role.ALICE, perform_hello(Role.ALICE, 128, 40, rng=rng)),
        lambda: run_side(b, Role.BOB, perform_hello(Role.BOB, 128, 40)))
    assert sid_a == sid_b


def test_hello_leaves_the_channel_as_it_was():
    # the agreed parameters are the hello's result, not channel state
    a, b = memory_pair()
    before = dict(vars(a)), dict(vars(b))
    rng = random.Random(5)
    run_pair(lambda: run_side(a, Role.ALICE, perform_hello(Role.ALICE, 16, 8, rng=rng)),
             lambda: run_side(b, Role.BOB, perform_hello(Role.BOB, 16, 8)))
    assert (vars(a), vars(b)) == before


def _holds(macs, keys, delta) -> bool:
    """Each MAC row's MAC is its key row ^ bit * delta."""
    return np.array_equal(macs[..., :-1], keys ^ macs[..., -1:] * delta)


def test_sides_take_kappa_from_their_arguments():
    # laOT, laAND and the EQ box at kappa = 8 and then 16, side by side on
    # one channel pair that no hello configured
    a, b = memory_pair(timeout=30.0)
    for kappa in (8, 16):
        od = OracleDealer(kappa, random.Random(kappa))
        quads = [od.quad(Role.ALICE) for _ in range(6)]
        triples = [od.triple(Role.ALICE) for _ in range(6)]

        def rows(records, k, *fields):
            return [bit_rows([getattr(r[k], f) for r in records], kappa) for f in fields]

        got_a, got_b = run_pair(
            lambda: run_sides(
                a, Role.ALICE,
                laot_sender(a, *rows(quads, 0, "x0", "x1", "kc", "kz"), od.delta[Role.BOB],
                            random.Random(1)),
                laand_mac_side(a, *rows(triples, 0, "x", "y", "z"), random.Random(2)),
                eq_commit_side(bytes(32), kappa, random.Random(3))),
            lambda: run_sides(
                b, Role.BOB,
                laot_receiver(b, *rows(quads, 1, "c", "z", "kx0", "kx1"), od.delta[Role.ALICE]),
                laand_key_side(b, *rows(triples, 1, "kx", "ky", "kz"), od.delta[Role.ALICE]),
                eq_respond_side(bytes(32), kappa)),
            timeout=30, channels=(a, b))
        (qs, qr), (tm, tk) = zip(got_a[:2], got_b[:2])
        assert got_a[2] is got_b[2] is True
        assert qs.macs.shape[-1] == tm.macs.shape[-1] == kappa // 8 + 1
        x0, x1, c, z = qs.macs[:, 0, -1], qs.macs[:, 1, -1], qr.macs[:, 0, -1], qr.macs[:, 1, -1]
        assert np.array_equal(z, np.where(c, x1, x0))
        assert _holds(qs.macs, qr.keys, od.delta[Role.ALICE])
        assert _holds(qr.macs, qs.keys, od.delta[Role.BOB])
        x, y, z = (tm.macs[:, i, -1] for i in range(3))
        assert np.array_equal(z, x & y)
        assert _holds(tm.macs, tk.keys, od.delta[Role.ALICE])


def test_protocol_code_touches_only_the_pipe():
    """src/macbits uses no attribute of a channel but the pipe's own: send,
    recv, close and stats. Session parameters travel as arguments."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "macbits"
    used = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("ch", "self.ch"):
                used.setdefault(node.attr, f"{path.name}:{node.lineno}")
    # the walk sees the flight helpers' calls, so it finds channels at all
    assert {"send", "recv", "close"} <= set(used)
    assert set(used) <= {"send", "recv", "close", "stats"}, used


def test_hello_carries_extra():
    a, b = memory_pair()
    rng = random.Random(2)
    (_, ea), (_, eb) = run_pair(
        lambda: run_side(a, Role.ALICE, perform_hello(Role.ALICE, 16, 8, rng=rng, extra=b"A!")),
        lambda: run_side(b, Role.BOB, perform_hello(Role.BOB, 16, 8, extra=b"B!")))
    assert ea == b"B!" and eb == b"A!"


def test_hello_parameter_mismatch_aborts():
    a, b = memory_pair()
    rng = random.Random(3)
    with pytest.raises(ProtocolError):
        run_pair(lambda: run_side(a, Role.ALICE, perform_hello(Role.ALICE, 128, 40, rng=rng)),
                 lambda: run_side(b, Role.BOB, perform_hello(Role.BOB, 64, 40)),
                 channels=(a, b))


def test_hello_same_role_aborts():
    a, b = memory_pair()
    rng = random.Random(4)
    with pytest.raises(ProtocolError):
        run_pair(lambda: run_side(a, Role.ALICE, perform_hello(Role.ALICE, 16, 8, rng=rng)),
                 lambda: run_side(b, Role.ALICE, perform_hello(Role.ALICE, 16, 8, rng=rng)),
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
        run_side(b, Role.BOB, perform_hello(Role.BOB, 16, 8))


def test_run_pair_propagates_failure():
    def fine():
        return 7

    def broken():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        run_pair(fine, broken, timeout=5)


def test_run_pair_reports_the_protocol_error_not_the_closed_channel():
    # Bob rejects a short frame; run_pair closes both channels, so Alice's
    # recv fails too, with a plain TransportError that must not win
    s1, s2 = socket.socketpair()
    a, b = TcpChannel(s1, 5.0), TcpChannel(s2, 5.0)

    def alice():
        a.send(MsgType.LAOT_D, b"abc")
        a.recv(MsgType.LAOT_D)

    with pytest.raises(ProtocolError, match="LAOT_D frame of 3 bytes, expected 4"):
        run_pair(alice, lambda: b.recv(MsgType.LAOT_D, 4), timeout=30, channels=(a, b))


# ---------------------------------------------------------------------------
# the frame-size contract


def _socket_pair():
    s1, s2 = socket.socketpair()
    return TcpChannel(s1, 5.0), TcpChannel(s2, 5.0)


@pytest.fixture(params=["memory", "tcp"])
def channel_pair(request):
    a, b = memory_pair(timeout=5.0) if request.param == "memory" else _socket_pair()
    yield a, b
    a.close()
    b.close()


def test_recv_exact_size_returns_payload(channel_pair):
    a, b = channel_pair
    a.send(MsgType.LAOT_D, b"abc")
    assert b.recv(MsgType.LAOT_D, 3) == b"abc"
    a.send(MsgType.LAOT_D, b"")
    assert b.recv(MsgType.LAOT_D, 0) == b""


@pytest.mark.parametrize("size", [2, 4])
def test_recv_wrong_size_is_protocol_error(channel_pair, size):
    a, b = channel_pair
    a.send(MsgType.LAOT_D, bytes(size))
    with pytest.raises(ProtocolError, match=f"LAOT_D frame of {size} bytes, expected 3"):
        b.recv(MsgType.LAOT_D, 3)


def test_recv_wrong_type_is_protocol_error_before_size(channel_pair):
    a, b = channel_pair
    a.send(MsgType.LAOT_X0, b"abc")
    with pytest.raises(ProtocolError, match="expected LAOT_D, got LAOT_X0"):
        b.recv(MsgType.LAOT_D, 3)


def test_recv_without_size_accepts_any_length(channel_pair):
    a, b = channel_pair
    for n in (0, 1, 1000):
        a.send(MsgType.HELLO, bytes(n))
        assert b.recv(MsgType.HELLO) == bytes(n)


def test_every_protocol_recv_passes_its_size():
    """Protocol code talks to the peer only through `run_sides`: outside
    transport.py's flight helpers no call sends or reads a frame. Every frame
    but HELLO has a size the receiver knows, so every Recv or Swap names it
    and Channel.recv checks it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "macbits"
    # the other calls named send: resuming a side, and the seed-OT side
    not_channels = {"sides[i]", "backend"}
    flight_calls, sized = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        helpers = {node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and path.name == "transport.py" and fn.name in ("_send_flight", "_read_flight")
                   for node in ast.walk(fn)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            where = f"{path.name}:{call.lineno}"
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in ("send", "recv"):
                if call in helpers:
                    flight_calls.append(ast.unparse(call))
                else:
                    assert ast.unparse(func.value) in not_channels, where
                continue
            if isinstance(func, ast.Name) and func.id == "Recv":
                wants = call.args
            elif isinstance(func, ast.Name) and func.id == "Swap":
                wants = call.args[1].elts
            else:
                continue
            # one (MsgType.X, nbytes) pair per frame
            for want in wants:
                assert isinstance(want, ast.Tuple) and len(want.elts) == 2, where
                msg_type, size = want.elts
                assert isinstance(msg_type, ast.Attribute) and msg_type.value.id == "MsgType", where
                unsized = isinstance(size, ast.Constant) and size.value is None
                assert unsized == (msg_type.attr == "HELLO"), where
                if not unsized:
                    sized.add(msg_type.attr)
    assert sorted(flight_calls) == ["ch.recv(msg_type, nbytes)", "ch.send(msg_type, payload)"]
    # and the walk saw every frame type the protocol reads
    assert sized == {t.name for t in MsgType} - {"HELLO"}


# ---------------------------------------------------------------------------
# protocol sides side by side

BIG = 8 << 20  # far more than a socket buffer holds


def echo_side(msg_type, payload=None, n=BIG):
    """Send payload and receive it back, or receive n bytes and send them back."""
    if payload is not None:
        yield Send((msg_type, payload))
        (back,) = yield Recv((msg_type, len(payload)))
        return bytes(back)
    (got,) = yield Recv((msg_type, n))
    yield Send((msg_type, got))
    return bytes(got)


def swap_side(msg_type, payload):
    """Send payload and receive the peer's frame of the same type and size,
    in one Swap."""
    (got,) = yield Swap([(msg_type, payload)], [(msg_type, len(payload))])
    return bytes(got)


@pytest.mark.parametrize("swap", [False, True], ids=["send-recv", "swap"])
def test_sides_exchange_big_frames_both_ways_in_one_flight(swap):
    # in round 0 each party sends 8 MiB and reads 8 MiB, on two sides or in
    # one swap; it finishes only because Alice sends before she reads and
    # Bob reads before he sends
    a, b = _socket_pair()
    pa, pb = random.randbytes(BIG), random.randbytes(BIG)
    if swap:
        sides_a, sides_b = [swap_side(MsgType.LAOT_X0, pa)], [swap_side(MsgType.LAOT_X0, pb)]
        want_a, want_b = [pb], [pa]
    else:
        sides_a = [echo_side(MsgType.LAOT_X0, pa), echo_side(MsgType.LAOT_X1)]
        sides_b = [echo_side(MsgType.LAOT_X0), echo_side(MsgType.LAOT_X1, pb)]
        want_a = want_b = [pa, pb]
    try:
        got_a, got_b = run_pair(lambda: run_sides(a, Role.ALICE, *sides_a),
                                lambda: run_sides(b, Role.BOB, *sides_b),
                                timeout=60, channels=(a, b))
    finally:
        a.close()
        b.close()
    assert got_a == want_a and got_b == want_b


def test_sides_deadlock_when_both_send_first():
    # the same flights with both parties sending first: both block in send
    # until the socket timeout, which is what the send-order rule prevents
    s1, s2 = socket.socketpair()
    a, b = TcpChannel(s1, 1.0), TcpChannel(s2, 1.0)
    pa, pb = bytes(BIG), bytes(BIG)
    try:
        with pytest.raises(TransportError):
            run_pair(lambda: run_sides(a, Role.ALICE, echo_side(MsgType.LAOT_X0, pa),
                                       echo_side(MsgType.LAOT_X1)),
                     lambda: run_sides(b, Role.ALICE, echo_side(MsgType.LAOT_X0),
                                       echo_side(MsgType.LAOT_X1, pb)),
                     timeout=30, channels=(a, b))
    finally:
        a.close()
        b.close()


def steps(*flights):
    """A side that yields the given flights and returns what it received."""
    got = []
    for flight in flights:
        reply = yield flight
        if reply is not None:
            got.extend(reply)
    return got


@pytest.mark.parametrize("alice, bob", [
    # the peer expects another frame type
    ((steps(Send((MsgType.LAOT_X0, bytes(BIG))), Recv((MsgType.LAOT_D, 1))),),
     (steps(Recv((MsgType.LAOT_X1, BIG)), Send((MsgType.LAOT_D, b"\x01"))),)),
    # the peer expects another size
    ((steps(Send((MsgType.LAOT_D, b"abc")), Recv((MsgType.LAOT_D, 1))),),
     (steps(Recv((MsgType.LAOT_D, 4)), Send((MsgType.LAOT_D, b"\x01"))),)),
    # the second sides agree on their first flight and part on the next
    ((steps(Send((MsgType.LAOT_X0, b"x"))),
      steps(Recv((MsgType.LAOT_I0, 2)), Send((MsgType.LAOT_I1, b"y")))),
     (steps(Recv((MsgType.LAOT_X0, 1))),
      steps(Send((MsgType.LAOT_I0, b"zz")), Recv((MsgType.LAOT_D, 1))))),
    # both parties swap, but each wants a frame type the other does not send
    ((steps(Swap([(MsgType.LAOT_X0, bytes(BIG))], [(MsgType.LAOT_D, 1)])),),
     (steps(Swap([(MsgType.LAOT_D, b"\x01")], [(MsgType.LAOT_X1, BIG)])),)),
], ids=["type", "size", "second-flight", "swap"])
def test_sides_whose_flights_do_not_line_up_raise(alice, bob):
    # the party that reads the stray frame raises ProtocolError and closes
    # its end, which ends the peer's wait; run_pair would time out on a hang
    a, b = _socket_pair()

    def party(ch, role, sides):
        try:
            run_sides(ch, role, *sides)
        except TransportError as e:
            ch.close()
            return e

    try:
        errors = run_pair(lambda: party(a, Role.ALICE, alice),
                          lambda: party(b, Role.BOB, bob), timeout=30)
    finally:
        a.close()
        b.close()
    assert any(isinstance(e, ProtocolError) for e in errors), errors


def test_side_must_yield_send_or_recv():
    a, _ = memory_pair(timeout=1.0)
    with pytest.raises(UsageError):
        run_sides(a, Role.ALICE, steps(b"frame"))


def test_sides_return_in_order_and_finish_apart():
    a, b = memory_pair(timeout=5.0)
    got_a, got_b = run_pair(
        lambda: run_sides(a, Role.ALICE, steps(), steps(Send((MsgType.LAOT_D, b"1")),
                                                        Recv((MsgType.LAOT_D, 1)))),
        lambda: run_sides(b, Role.BOB, steps(), steps(Recv((MsgType.LAOT_D, 1)),
                                                      Send((MsgType.LAOT_D, b"2")))),
        timeout=10, channels=(a, b))
    assert got_a == [[], [b"2"]] and got_b == [[], [b"1"]]
