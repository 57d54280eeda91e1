"""Message framing, the duplex channel over a socket (TCP, or a socketpair
within one process), and the driver that runs protocol sides.

Frame layout on the wire: 1 byte message type, 4 bytes big-endian payload
length, payload. `Channel.recv` checks each frame's type and size, so
protocol code parses only payloads of the length it expects. A channel
counts frames and bytes per direction; the online phase asserts its exact
communication footprint from these counters. A channel is only that
pipe and holds no session state: `hello`, the one session handshake of
both phases, takes the role, kappa, psi and session id as arguments, swaps
HELLOs in one round and returns the peer's session id for its caller to
check, and protocol sides take kappa and each global key as plain
arguments.

Every exchange with the peer, offline and online, is a protocol side: a
generator that yields once per flight, `Send(frames)` to send, `Recv(wants)`
to be resumed with the payloads it wants, or `Swap(frames, wants)` to do both
in one round. `run_sides` runs several such sides over one channel, one
flight of each per round, so each party computes its own sides' payloads
while the peer computes its own. It is the only code that sends or reads a
frame, and it alone decides who goes first. A round takes one of three
modes, chosen by its outgoing payload bytes: up to SEND_FIRST_MAX a party
sends before it reads, so two small flights cross the link at the same
time; above DUPLEX_MIN, in a round that also wants frames, it sends on a
second thread while it reads, so two large flights cross at once too; in
between Alice sends first and Bob reads first.
"""

from __future__ import annotations

import enum
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .errors import ProtocolError, TransportError, UsageError

PROTOCOL_VERSION = 1
SESSION_ID_BYTES = 16
FRAME_HEADER_BYTES = 5
MAX_PAYLOAD = (1 << 32) - 1


class Role(enum.Enum):
    ALICE = 0
    BOB = 1

    @property
    def other(self) -> "Role":
        return Role.BOB if self is Role.ALICE else Role.ALICE

    def __str__(self):
        return "alice" if self is Role.ALICE else "bob"


class MsgType(enum.IntEnum):
    HELLO = 1
    EQ_COMMIT = 2
    EQ_VALUE = 3
    EQ_OPEN = 4
    # 5 is a retired wire value; leave it unassigned
    OT_MASKED0 = 6
    OT_MASKED1 = 7
    LABIT_PAIRING = 8
    LABIT_D = 9
    AMPLIFY_MATRIX = 10
    # 11 and 12 are retired wire values too
    LAOT_X0 = 13
    LAOT_X1 = 14
    LAOT_D = 15
    LAOT_I0 = 16
    LAOT_I1 = 17
    COMB_PERM = 18
    COMB_D = 19
    LAAND_D = 20
    LAAND_U = 21
    GK_COMMIT = 22
    RT_ANNOUNCE_BATCH = 23
    RT_REVEAL_BATCH = 24
    RT_ACC_FLUSH = 25
    RT_OUTPUT = 26


@dataclass(frozen=True)
class Message:
    msg_type: MsgType
    payload: bytes  # or a bytearray: TcpChannel reads frames in place


@dataclass
class ChannelStats:
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class Channel:
    """Reliable ordered duplex message channel."""

    def __init__(self):
        self.stats = ChannelStats()

    # subclasses implement _send_frame / _recv_frame / close

    def send(self, msg_type: MsgType, payload: bytes) -> None:
        """Send one frame."""
        if not isinstance(payload, (bytes, bytearray)):
            payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise UsageError("payload too large for frame")
        self._send_frame(MsgType(msg_type), payload)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += FRAME_HEADER_BYTES + len(payload)

    def recv(self, expected: MsgType, nbytes: int = None) -> bytes:
        """The next frame's payload; it must be of type `expected` and, unless
        nbytes is None, exactly nbytes long."""
        msg = self._recv_frame()
        self.stats.frames_received += 1
        self.stats.bytes_received += FRAME_HEADER_BYTES + len(msg.payload)
        if msg.msg_type != expected:
            raise ProtocolError(
                f"expected {MsgType(expected).name}, got {msg.msg_type.name}"
            )
        if nbytes is not None and len(msg.payload) != nbytes:
            raise ProtocolError(
                f"{msg.msg_type.name} frame of {len(msg.payload)} bytes, expected {nbytes}"
            )
        return msg.payload

    def close(self) -> None:
        raise NotImplementedError


_FRAME_HEADER = struct.Struct(">BI")
# Frames up to this size go out in one send call, header and payload joined.
_JOIN_BELOW = 1 << 16
# Once its header has come, a frame's payload must arrive within the channel
# timeout plus its size at this rate, in bytes per second, so a peer that
# trickles a frame cannot keep it open without bound.
MIN_FRAME_RATE = 64 << 10


class TcpChannel(Channel):
    def __init__(self, sock: socket.socket, timeout: float):
        super().__init__()
        self._sock = sock
        self._sock.settimeout(timeout)
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    def _send_frame(self, msg_type: MsgType, payload: bytes) -> None:
        """The header, then the payload; a large payload is not copied into
        one frame buffer first."""
        hdr = _FRAME_HEADER.pack(int(msg_type), len(payload))
        try:
            with self._send_lock:
                if len(payload) <= _JOIN_BELOW:
                    self._sock.sendall(hdr + payload)
                else:
                    self._sock.sendall(hdr)
                    self._sock.sendall(payload)
        except OSError as e:
            raise TransportError(f"send failed: {e}") from None

    def _recv_exact(self, n: int, deadline: float = None) -> bytearray:
        """n bytes read straight into one buffer; a TransportError if a read
        returns past deadline, a `time.monotonic()` value, with bytes still
        to come."""
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                k = self._sock.recv_into(view[got:])
            except socket.timeout:
                raise TransportError("recv timed out") from None
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from None
            if not k:
                raise TransportError("peer closed the connection")
            got += k
            if deadline is not None and got < n and time.monotonic() > deadline:
                raise TransportError(f"a {n}-byte frame ran past its deadline")
        view.release()
        return buf

    def _recv_frame(self) -> Message:
        with self._recv_lock:
            t, n = _FRAME_HEADER.unpack(self._recv_exact(FRAME_HEADER_BYTES))
            timeout = self._sock.gettimeout()
            deadline = (None if timeout is None
                        else time.monotonic() + timeout + n / MIN_FRAME_RATE)
            payload = self._recv_exact(n, deadline) if n else b""
        try:
            mt = MsgType(t)
        except ValueError:
            raise ProtocolError(f"unknown message type {t}") from None
        return Message(mt, payload)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


def memory_pair(timeout: float = 120.0):
    """Two connected endpoints in one process: TcpChannels on a socketpair,
    so their sends block on a full buffer as over TCP."""
    s1, s2 = socket.socketpair()
    return TcpChannel(s1, timeout), TcpChannel(s2, timeout)


def tcp_listen(host: str, port: int, timeout: float = 120.0) -> TcpChannel:
    """Accept one peer connection and wrap it."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    srv.settimeout(timeout)
    try:
        conn, _ = srv.accept()
    except socket.timeout:
        raise TransportError("no peer connected before timeout") from None
    finally:
        srv.close()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(conn, timeout)


def tcp_connect(host: str, port: int, timeout: float = 120.0, retry_for: float = 10.0) -> TcpChannel:
    """Connect to a listening peer, retrying briefly so start order is free."""
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return TcpChannel(sock, timeout)
        except OSError as e:
            if time.monotonic() >= deadline:
                raise TransportError(f"connect failed: {e}") from None
            time.sleep(0.05)


_HELLO = struct.Struct(f">HBHH{SESSION_ID_BYTES}sH")


def hello(role: Role, kappa: int, psi: int, session_id: bytes, extra: bytes = b""):
    """The session hello, as a protocol side of one round: both parties'
    HELLOs cross, and each party checks that the peer's names the other
    role, this protocol version, kappa and psi. Any disagreement is a
    ProtocolError, raised before the side's caller builds another frame.
    Returns the peer's (session_id, extra), which the caller checks, as
    only it knows what to expect."""
    if len(session_id) != SESSION_ID_BYTES:
        raise UsageError("session id must be 16 bytes")
    if len(extra) > 0xFFFF:
        raise UsageError("hello extra too large")
    mine = _HELLO.pack(PROTOCOL_VERSION, role.value, kappa, psi, session_id, len(extra)) + extra
    (payload,) = yield Swap([(MsgType.HELLO, mine)], [(MsgType.HELLO, None)])
    if len(payload) < _HELLO.size:
        raise ProtocolError(f"hello too short: {len(payload)} bytes")
    version, prole, pk, pp, psid, elen = _HELLO.unpack_from(payload)
    if len(payload) != _HELLO.size + elen:
        raise ProtocolError(f"hello length {len(payload)} does not match its extra length {elen}")
    if prole not in (r.value for r in Role):
        raise ProtocolError(f"hello names unknown role {prole}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {version}")
    if prole == role.value:
        raise ProtocolError("both endpoints claim the same role")
    if (pk, pp) != (kappa, psi):
        raise ProtocolError(f"parameter mismatch: peer has kappa={pk}, psi={pp}")
    return psid, payload[_HELLO.size:]


class Swap:
    """A side's flight that sends and receives in one round: (MsgType,
    payload) frames to send, in order, and (MsgType, nbytes) per frame it
    wants. The side is resumed with the list of the wanted payloads."""

    __slots__ = ("frames", "wants")

    def __init__(self, frames, wants):
        self.frames = frames
        self.wants = wants


class Send(Swap):
    """A side's outbound flight: (MsgType, payload) frames, in order."""

    __slots__ = ()

    def __init__(self, *frames):
        self.frames, self.wants = frames, ()


class Recv(Swap):
    """A side's inbound flight: (MsgType, nbytes) per frame it wants. The
    side is resumed with the list of their payloads."""

    __slots__ = ()

    def __init__(self, *wants):
        self.frames, self.wants = (), wants


# A party whose frames in a round total at most this many payload bytes
# sends them before it reads, whatever its role. The socket buffers on both
# ends of a connection hold far more, so such a send returns before the peer
# reads anything.
SEND_FIRST_MAX = 16 << 10
# A party whose frames in a round total more than this, and that also wants
# frames in it, sends them on a second thread while it reads. Below it the
# overlap gains nothing, and a second thread costs a switch of the
# interpreter lock at each handoff.
DUPLEX_MIN = 4 << 20


def run_sides(ch: Channel, role: Role, *sides) -> list:
    """Run protocol sides side by side; returns each side's result, in order.

    A side is a generator that yields `Send`, `Recv` or `Swap` once per
    flight and returns its result. Round k pairs the k-th yield of each side
    with the k-th yield of the peer's side at the same position, so one
    party's frames meet the other's wants. In each round every live side
    first computes up to its next yield; then the frames go out in side
    order. A party whose round's frames total at most SEND_FIRST_MAX bytes
    sends them all before it reads, so a round in which both parties swap
    small frames is one flight each way, at the same time. With more than
    DUPLEX_MIN, a party that also wants frames sends them on a second
    thread while it reads, so two large flights cross the link at once. In
    between, Alice sends all of hers before she reads and Bob reads before
    he sends. In every mode the two are never both blocked sending a frame
    the other has not started to read: a small flight fits in the socket
    buffers, a duplex party is always reading, and of two mid-size flights
    only Alice's goes out before its sender reads. A side that yields
    anything else is a UsageError; a peer whose flights do not line up
    shows as a frame of the wrong type or size (ProtocolError).

    Within a round, the sides that were handed frames resume first, in side
    order, so what they read is dropped before the other sides build their
    frames, and a side may rely on the sides before it having taken their
    frames in.
    """
    results = [None] * len(sides)
    replies = [None] * len(sides)
    live = list(range(len(sides)))
    while live:
        steps = {}
        for i in sorted(live, key=lambda i: replies[i] is None):
            try:
                steps[i] = sides[i].send(replies[i])
            except StopIteration as done:
                results[i] = done.value
            replies[i] = None
        frames, wanted, still = [], [], []
        for i in live:
            if i not in steps:
                continue
            step = steps[i]
            if not isinstance(step, Swap):
                raise UsageError(f"a side yielded {type(step).__name__}, not Send, Recv or Swap")
            still.append(i)
            if step.frames:
                frames += step.frames
            if step.wants:
                wanted.append((i, step.wants))
        live, steps, step = still, None, None
        out = sum(len(payload) for _, payload in frames)
        if wanted and out > DUPLEX_MIN:
            _duplex_flight(ch, frames, wanted, replies)
            continue
        send_first = role is Role.ALICE or out <= SEND_FIRST_MAX
        if wanted and not send_first:
            _read_flight(ch, wanted, replies)
        if frames:
            _send_flight(ch, frames)
        if wanted and send_first:
            _read_flight(ch, wanted, replies)
    return results


def _send_flight(ch: Channel, frames: list) -> None:
    """Send and drop the frames: no reference to a payload outlives its
    send, so a large one is freed once it is sent."""
    for msg_type, payload in frames:
        ch.send(msg_type, payload)
    frames.clear()


def _read_flight(ch: Channel, wanted, replies) -> None:
    for i, wants in wanted:
        replies[i] = [ch.recv(msg_type, nbytes) for msg_type, nbytes in wants]


def _duplex_flight(ch: Channel, frames: list, wanted, replies) -> None:
    """Send the frames on a second thread while this one reads. A failed
    read closes the channel, which ends a send blocked on a peer that has
    stopped reading, and is the error raised; a failed send is raised once
    the read is done."""
    failed = []

    def send():
        try:
            _send_flight(ch, frames)
        except BaseException as e:  # noqa: BLE001 - raised by the reader
            failed.append(e)

    sender = threading.Thread(target=send, name="macbits-send", daemon=True)
    sender.start()
    try:
        _read_flight(ch, wanted, replies)
    except BaseException:
        ch.close()
        raise
    finally:
        sender.join()
    if failed:
        raise failed[0]


def run_pair(fn_alice, fn_bob, timeout: float = 300.0, channels=()):
    """Run both protocol endpoints in threads; re-raise the first failure.

    Passing the underlying channels lets the runner close them as soon as one
    side fails, which unblocks a peer waiting in recv. Any other failure,
    such as a security abort or a ProtocolError, is reported in preference to
    the plain TransportErrors it causes on the closed channels.
    """
    results = [None, None]
    errors = [None, None]

    def wrap(i, fn):
        try:
            results[i] = fn()
        except BaseException as e:  # noqa: BLE001 - propagated below
            errors[i] = e
            for ch in channels:
                try:
                    ch.close()
                except Exception:
                    pass

    ta = threading.Thread(target=wrap, args=(0, fn_alice), daemon=True)
    tb = threading.Thread(target=wrap, args=(1, fn_bob), daemon=True)
    ta.start()
    tb.start()
    deadline = time.monotonic() + timeout
    ta.join(timeout)
    tb.join(max(0.0, deadline - time.monotonic()))
    if ta.is_alive() or tb.is_alive():
        for ch in channels:
            try:
                ch.close()
            except Exception:
                pass
        ta.join(5.0)
        tb.join(5.0)
        raise TransportError("protocol pair deadlocked or timed out")
    real = [e for e in errors if e is not None and type(e) is not TransportError]
    if real:
        raise real[0]
    for e in errors:
        if e is not None:
            raise e
    return results[0], results[1]
