import ast
import pathlib
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest

from helpers import OracleDealer, bit_rows, closing_pair, counting_pair, free_port, run_side
from macbits import transport
from macbits.aand_proto import laand_key_side, laand_mac_side
from macbits.aot_proto import laot_receiver, laot_sender
from macbits.eq_box import eq_commit_side, eq_respond_side
from macbits.errors import ProtocolError, TransportError, UsageError
from macbits.transport import (FRAME_HEADER_BYTES, SEND_FIRST_MAX, MsgType, Recv, Role, Send,
                               Swap, TcpChannel, hello, memory_pair, run_pair, run_sides,
                               tcp_connect, tcp_listen)


@pytest.fixture
def pair():
    """An in-process channel pair, closed after the test."""
    with closing_pair(memory_pair(timeout=5.0)) as chs:
        yield chs


def test_loopback_round_trip(pair):
    a, b = pair
    a.send(MsgType.EQ_VALUE, b"payload")
    assert b.recv(MsgType.EQ_VALUE) == b"payload"


def test_memory_pair_is_a_socket_pair(pair):
    # in-process pairs run the framing and the blocking sends of TCP
    assert all(type(ch) is TcpChannel for ch in pair)


def test_fifo_order(pair):
    a, b = pair
    for i in range(10):
        a.send(MsgType.EQ_VALUE, bytes([i]))
    for i in range(10):
        assert b.recv(MsgType.EQ_VALUE) == bytes([i])


def test_mismatched_type_is_protocol_error(pair):
    a, b = pair
    a.send(MsgType.EQ_COMMIT, b"x")
    with pytest.raises(ProtocolError):
        b.recv(MsgType.EQ_OPEN)


@pytest.mark.parametrize("t", [0, 5, 11, 12, 22, 28, 255])
def test_unknown_message_type_is_protocol_error(t):
    """A raw frame whose type byte names no MsgType is refused with the type
    it carried. 5, 11, 12 and 22 are retired wire values and stay
    unassigned."""
    assert t not in {m.value for m in MsgType}
    s1, s2 = socket.socketpair()
    with closing_pair((TcpChannel(s1, 5.0), TcpChannel(s2, 5.0))) as (reader, _):
        s2.sendall(struct.pack(">BI", t, 2) + b"xy")
        with pytest.raises(ProtocolError, match=f"^unknown message type {t}$"):
            reader.recv(MsgType.EQ_VALUE)


def test_send_after_close(pair):
    a, _ = pair
    a.close()
    with pytest.raises(TransportError):
        a.send(MsgType.EQ_VALUE, b"")


def test_peer_close_surfaces_in_recv(pair):
    a, b = pair
    a.close()
    with pytest.raises(TransportError):
        b.recv(MsgType.EQ_VALUE)


def test_recv_timeout():
    with closing_pair(memory_pair(timeout=0.05)) as (_, b):
        with pytest.raises(TransportError, match="timed out"):
            b.recv(MsgType.EQ_VALUE)


def _send_frame_slowly(sock, payload, pieces, gap_s, stop, give_up_s):
    """Send a frame's header at once, then its payload in `pieces` equal
    parts gap_s apart; hang up once stop is set or give_up_s have passed."""
    end = time.monotonic() + give_up_s
    try:
        sock.sendall(struct.pack(">BI", MsgType.EQ_VALUE, len(payload)))
        step = len(payload) // pieces
        for k in range(pieces):
            if stop.wait(gap_s) or time.monotonic() > end:
                break
            sock.sendall(payload[k * step:(k + 1) * step])
    except OSError:
        pass
    finally:
        sock.close()


def test_trickled_frame_fails_at_its_deadline():
    """A peer announces a 1,000-byte frame, then sends one byte every 0.15 s,
    each within the 0.2 s timeout. The reader gives up at the frame's
    deadline, 0.2 s plus 1,000 bytes at MIN_FRAME_RATE, not 150 s later. The
    peer hangs up after 3 s in any case, which the reader would see as a
    closed connection."""
    s1, s2 = socket.socketpair()
    reader, stop = TcpChannel(s1, 0.2), threading.Event()
    t = threading.Thread(target=_send_frame_slowly,
                         args=(s2, bytes(1000), 1000, 0.15, stop, 3.0))
    t0 = time.monotonic()
    t.start()
    try:
        with pytest.raises(TransportError, match="deadline"):
            reader.recv(MsgType.EQ_VALUE, 1000)
        assert time.monotonic() - t0 < 2
    finally:
        stop.set()
        reader.close()
        t.join(5)
    assert not t.is_alive()


def test_steady_frame_slower_than_the_timeout_arrives_whole():
    """A 64 KiB frame sent in 16 pieces 20 ms apart takes longer than the
    0.2 s timeout, but at about 200 KiB/s it keeps above MIN_FRAME_RATE, so
    its deadline does not cut it."""
    s1, s2 = socket.socketpair()
    reader, stop = TcpChannel(s1, 0.2), threading.Event()
    payload = bytes(range(256)) * 256
    t = threading.Thread(target=_send_frame_slowly, args=(s2, payload, 16, 0.02, stop, 10.0))
    t0 = time.monotonic()
    t.start()
    try:
        assert reader.recv(MsgType.EQ_VALUE, len(payload)) == payload
        assert time.monotonic() - t0 > 0.2
    finally:
        stop.set()
        reader.close()
        t.join(5)
    assert not t.is_alive()


def test_stats_count_frames_and_bytes(pair):
    a, b = pair
    a.send(MsgType.EQ_VALUE, b"12345")
    b.recv(MsgType.EQ_VALUE)
    assert a.stats.frames_sent == 1
    assert a.stats.bytes_sent == FRAME_HEADER_BYTES + 5
    assert b.stats.frames_received == 1
    assert b.stats.bytes_received == FRAME_HEADER_BYTES + 5


def test_duplex_interleaving_keeps_per_direction_fifo(pair):
    rng = random.Random(0)
    a, b = pair
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
    try:
        with pytest.raises(TransportError):
            ch.recv(MsgType.EQ_VALUE)
    finally:
        ch.close()
    t.join(10)


SID = bytes(range(16))


def test_hello_agrees(pair):
    # one round: each party learns the session id the peer named
    a, b = pair
    (sid_a, _), (sid_b, _) = run_pair(
        lambda: run_side(a, Role.ALICE, hello(Role.ALICE, 128, 40, SID)),
        lambda: run_side(b, Role.BOB, hello(Role.BOB, 128, 40, bytes(16))))
    assert (sid_a, sid_b) == (bytes(16), SID)
    assert (a.stats.frames_sent, b.stats.frames_sent) == (1, 1)


def test_hello_leaves_the_channel_as_it_was(pair):
    # the agreed parameters are the hello's result, not channel state
    a, b = pair
    before = dict(vars(a)), dict(vars(b))
    run_pair(lambda: run_side(a, Role.ALICE, hello(Role.ALICE, 16, 8, SID)),
             lambda: run_side(b, Role.BOB, hello(Role.BOB, 16, 8, SID)))
    assert (vars(a), vars(b)) == before


def _holds(macs, keys, delta) -> bool:
    """Each MAC row's MAC is its key row ^ bit * delta."""
    return np.array_equal(macs[..., :-1], keys ^ macs[..., -1:] * delta)


def test_sides_take_kappa_from_their_arguments(pair):
    # laOT, laAND and the EQ box at kappa = 8 and then 16, side by side on
    # one channel pair that no hello configured
    a, b = pair
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


def test_protocol_code_has_no_tamper_hooks():
    """No function in src/macbits takes a `tamper` or `*_tamper` parameter,
    and no TamperPlan is defined there: a cheating peer rewrites the frames
    it sends (`helpers.rewrite_sends` offline, `helpers.TamperChannel`
    online), so every side only ever plays the honest party."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "macbits"
    params, names = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params += [(path.name, node.name, arg.arg)
                           for arg in a.posonlyargs + a.args + a.kwonlyargs]
    # the walk sees real signatures, the online runtime's among them
    assert ("runtime_2pc.py", "__init__", "store") in params
    assert [p for p in params if p[2] == "tamper" or p[2].endswith("_tamper")] == []
    assert "TamperPlan" not in names


def test_hello_carries_extra(pair):
    a, b = pair
    (_, ea), (_, eb) = run_pair(
        lambda: run_side(a, Role.ALICE, hello(Role.ALICE, 16, 8, SID, extra=b"A!")),
        lambda: run_side(b, Role.BOB, hello(Role.BOB, 16, 8, SID, extra=b"B!")))
    assert ea == b"B!" and eb == b"A!"


def test_hello_parameter_mismatch_aborts(pair):
    a, b = pair
    with pytest.raises(ProtocolError, match="parameter mismatch"):
        run_pair(lambda: run_side(a, Role.ALICE, hello(Role.ALICE, 128, 40, SID)),
                 lambda: run_side(b, Role.BOB, hello(Role.BOB, 64, 40, SID)),
                 channels=(a, b))


def test_hello_same_role_aborts(pair):
    a, b = pair
    with pytest.raises(ProtocolError, match="same role"):
        run_pair(lambda: run_side(a, Role.ALICE, hello(Role.ALICE, 16, 8, SID)),
                 lambda: run_side(b, Role.ALICE, hello(Role.ALICE, 16, 8, SID)),
                 channels=(a, b))


# the payload of Alice's HELLO, as her hello side's one flight builds it
((_, GOOD_HELLO),) = next(hello(Role.ALICE, 16, 8, bytes(16), b"extra")).frames


@pytest.mark.parametrize("payload", [
    GOOD_HELLO[:2],                              # shorter than the fixed part
    GOOD_HELLO[:-1],                             # extra cut short
    GOOD_HELLO + b"!",                           # trailing bytes past extra
    GOOD_HELLO[:2] + bytes([7]) + GOOD_HELLO[3:],  # unknown role byte
], ids=["short", "truncated-extra", "trailing", "role-7"])
def test_malformed_hello_is_protocol_error(pair, payload):
    a, b = pair
    a.send(MsgType.HELLO, payload)
    with pytest.raises(ProtocolError):
        run_side(b, Role.BOB, hello(Role.BOB, 16, 8, bytes(16)))


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
    a, b = memory_pair(timeout=5.0)

    def alice():
        a.send(MsgType.LAOT_D, b"abc")
        a.recv(MsgType.LAOT_D)

    with pytest.raises(ProtocolError, match="LAOT_D frame of 3 bytes, expected 4"):
        run_pair(alice, lambda: b.recv(MsgType.LAOT_D, 4), timeout=30, channels=(a, b))


def test_run_pair_reports_a_deadlock_after_one_timeout():
    # both endpoints wait for a frame; the timeout is one deadline for the
    # pair, not one per thread
    with closing_pair(memory_pair(timeout=30.0)) as (a, b):
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="deadlocked"):
            run_pair(lambda: a.recv(MsgType.LAOT_D), lambda: b.recv(MsgType.LAOT_D),
                     timeout=1.0, channels=(a, b))
        assert time.monotonic() - t0 < 1.8


# ---------------------------------------------------------------------------
# the frame-size contract


def _tcp_pair(timeout: float = 5.0):
    """Both ends of a loopback TCP connection."""
    port = free_port()
    listened = []
    t = threading.Thread(target=lambda: listened.append(tcp_listen("127.0.0.1", port, timeout)))
    t.start()
    ch = tcp_connect("127.0.0.1", port, timeout=timeout)
    t.join(timeout)
    return ch, listened[0]


@pytest.fixture(params=["memory", "tcp"])
def channel_pair(request):
    """An in-process pair, or both ends of a loopback TCP connection."""
    with closing_pair(memory_pair(timeout=5.0) if request.param == "memory"
                      else _tcp_pair()) as chs:
        yield chs


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
    and Channel.recv checks it. HELLO is named in transport.py alone, whose
    `hello` is the one handshake of both phases."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "macbits"
    # the other calls named send: resuming a side, and the seed-OT side
    not_channels = {"sides[i]", "backend"}
    flight_calls, sized, hellos = [], set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        hellos += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and ast.unparse(node) == "MsgType.HELLO"]
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
    assert hellos and all(h.startswith("transport.py:") for h in hellos), hellos


# ---------------------------------------------------------------------------
# protocol sides side by side

BIG = 8 << 20  # far more than a socket buffer holds, and above DUPLEX_MIN
MID = 2 << 20  # more than a socket buffer holds, below DUPLEX_MIN


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
    # one swap; it finishes only because each party, with more than
    # DUPLEX_MIN to send, sends on a second thread while it reads
    a, b = memory_pair(timeout=5.0)
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
    # mid-size flights with both parties sending first: both block in send
    # until the socket timeout, which is what the send-order rule prevents
    a, b = memory_pair(timeout=1.0)
    pa, pb = bytes(MID), bytes(MID)
    try:
        with pytest.raises(TransportError):
            run_pair(lambda: run_sides(a, Role.ALICE, echo_side(MsgType.LAOT_X0, pa),
                                       echo_side(MsgType.LAOT_X1, n=MID)),
                     lambda: run_sides(b, Role.ALICE, echo_side(MsgType.LAOT_X0, n=MID),
                                       echo_side(MsgType.LAOT_X1, pb)),
                     timeout=30, channels=(a, b))
    finally:
        a.close()
        b.close()


def test_two_alices_complete_a_duplex_round(monkeypatch):
    # the same flights above DUPLEX_MIN: each party reads while it sends, so
    # the round completes whatever the roles say
    monkeypatch.setattr(transport, "DUPLEX_MIN", SEND_FIRST_MAX)
    pa, pb = random.randbytes(MID), random.randbytes(MID)
    with closing_pair(memory_pair(timeout=5.0)) as (a, b):
        got_a, got_b = run_pair(
            lambda: run_sides(a, Role.ALICE, echo_side(MsgType.LAOT_X0, pa),
                              echo_side(MsgType.LAOT_X1, n=MID)),
            lambda: run_sides(b, Role.ALICE, echo_side(MsgType.LAOT_X0, n=MID),
                              echo_side(MsgType.LAOT_X1, pb)),
            timeout=30, channels=(a, b))
    assert got_a == got_b == [pa, pb]


def _duplex_failure(monkeypatch, peer, wants):
    """Alice's duplex round of MID bytes out, against a peer that never reads
    them: the error it raises and the seconds it took."""
    monkeypatch.setattr(transport, "DUPLEX_MIN", SEND_FIRST_MAX)
    threads = threading.active_count()
    with closing_pair(memory_pair(timeout=30.0)) as (a, b):
        peer(b)
        t0 = time.monotonic()
        with pytest.raises(TransportError) as err:
            run_sides(a, Role.ALICE, steps(Swap([(MsgType.LAOT_X0, bytes(MID))], wants)))
        elapsed = time.monotonic() - t0
    assert threading.active_count() == threads
    return err.value, elapsed


def test_duplex_read_error_ends_the_blocked_send(monkeypatch):
    # the read fails while the send is blocked on a peer that is not reading:
    # closing the channel ends the send, and the read's error is raised
    err, elapsed = _duplex_failure(monkeypatch,
                                   lambda b: b.send(MsgType.LAOT_D, b"\x01"),
                                   [(MsgType.LAOT_X1, 10)])
    assert type(err) is ProtocolError and "expected LAOT_X1, got LAOT_D" in str(err)
    assert elapsed < 5.0


def test_duplex_peer_closing_mid_round_raises(monkeypatch):
    # the peer sends one of the two frames wanted, then closes
    def peer(b):
        b.send(MsgType.LAOT_X1, bytes(10))
        b.close()

    err, elapsed = _duplex_failure(monkeypatch, peer,
                                   [(MsgType.LAOT_X1, 10), (MsgType.LAOT_D, 1)])
    assert type(err) is TransportError
    assert elapsed < 5.0


@pytest.mark.parametrize("size, bob_order", [(SEND_FIRST_MAX, ["send", "recv"]),
                                             (SEND_FIRST_MAX + 1, ["recv", "send"])])
def test_small_rounds_send_before_they_read(size, bob_order):
    # up to the bound both parties send first and their flights cross;
    # above it Bob reads first, as with large frames
    pa, pb = bytes([1]) * size, bytes([2]) * size
    with closing_pair(counting_pair(timeout=5.0)) as (a, b):
        got_a, got_b = run_pair(lambda: run_sides(a, Role.ALICE, swap_side(MsgType.LAOT_X0, pa)),
                                lambda: run_sides(b, Role.BOB, swap_side(MsgType.LAOT_X0, pb)),
                                timeout=10, channels=(a, b))
    assert got_a == [pb] and got_b == [pa]
    assert [op for op, _ in a.log] == ["send", "recv"]
    assert [op for op, _ in b.log] == bob_order


@pytest.mark.parametrize("link", ["socketpair", "tcp"])
def test_swap_of_the_send_first_bound_completes_on_a_socket(link):
    # both parties send SEND_FIRST_MAX bytes before either reads; the
    # sockets' buffers hold them, so neither send blocks until the timeout
    if link == "socketpair":
        a, b = memory_pair(timeout=5.0)
        open_a, open_b = lambda: a, lambda: b
    else:
        port = free_port()
        open_a = lambda: tcp_connect("127.0.0.1", port, timeout=5.0)  # noqa: E731
        open_b = lambda: tcp_listen("127.0.0.1", port, timeout=5.0)  # noqa: E731
    pa, pb = random.randbytes(SEND_FIRST_MAX), random.randbytes(SEND_FIRST_MAX)
    opened = []

    def party(open_ch, role, payload):
        ch = open_ch()
        opened.append(ch)
        return run_sides(ch, role, swap_side(MsgType.LAOT_X0, payload))

    try:
        got_a, got_b = run_pair(lambda: party(open_a, Role.ALICE, pa),
                                lambda: party(open_b, Role.BOB, pb), timeout=30)
    finally:
        for ch in opened:
            ch.close()
    assert got_a == [pb] and got_b == [pa]


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
    a, b = memory_pair(timeout=5.0)

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


def test_side_must_yield_send_or_recv(pair):
    a, _ = pair
    with pytest.raises(UsageError):
        run_sides(a, Role.ALICE, steps(b"frame"))


def test_sides_return_in_order_and_finish_apart(pair):
    a, b = pair
    got_a, got_b = run_pair(
        lambda: run_sides(a, Role.ALICE, steps(), steps(Send((MsgType.LAOT_D, b"1")),
                                                        Recv((MsgType.LAOT_D, 1)))),
        lambda: run_sides(b, Role.BOB, steps(), steps(Recv((MsgType.LAOT_D, 1)),
                                                      Send((MsgType.LAOT_D, b"2")))),
        timeout=10, channels=(a, b))
    assert got_a == [[], [b"2"]] and got_b == [[], [b"1"]]
