"""Time one party's online evaluation against a replay of its peer's frames.

    PYTHONPATH=src python3 scripts/online_replay.py [--circuit FILE] [--runs N]

Deals material for the circuit (Bristol format; the generated AES-128
netlist when no file is given) at kappa = 128 and psi = 40 between two
in-process parties, and runs one two-party evaluation with seeded inputs,
recording every frame Alice reads and sends. Then it runs Alice's
`Runtime.evaluate` N more times in this one process, each on a fresh copy of
her store, over a channel that serves Bob's recorded frames in order, and
checks that each run sends the recorded frames and returns the recorded
outputs. So the timings hold no peer and no link: only Alice's own work.
It prints the bytes each party sent in the recorded evaluation, frame
headers included, and its flights (runs of sends, each begun by its first
send or by a send after a read): their sums are the benchmark's
online_bytes and online_flights. Then it prints the median and fastest
evaluation and the median per-evaluation totals of `Runtime._and_open` and
`Runtime._and_close`.
"""

import argparse
import random
import socket
import statistics
import sys
import time

from macbits.aescircuit import generate_aes_circuit
from macbits.bitlinalg import BitVec
from macbits.circuit import Circuit
from macbits.dealer import DealerConfig, MaterialStore, deal
from macbits.runtime_2pc import Runtime
from macbits.transport import FRAME_HEADER_BYTES, Channel, Role, TcpChannel, run_pair

A, B = Role.ALICE, Role.BOB


class RecordingChannel(TcpChannel):
    """A TcpChannel that keeps every frame it sends and reads, in order, and
    whether each frame was sent or read, in `ops`."""

    def __init__(self, sock, timeout):
        super().__init__(sock, timeout)
        self.sent = []
        self.read = []
        self.ops = []

    def _send_frame(self, msg_type, payload):
        self.sent.append((msg_type, bytes(payload)))
        self.ops.append("send")
        super()._send_frame(msg_type, payload)

    def _recv_frame(self):
        msg = super()._recv_frame()
        self.read.append(msg)
        self.ops.append("recv")
        return msg

    def flights(self) -> int:
        """The runs of sends in `ops`."""
        return sum(op == "send" and (i == 0 or self.ops[i - 1] == "recv")
                   for i, op in enumerate(self.ops))


class ReplayChannel(Channel):
    """Serves recorded frames in order and keeps what is sent."""

    def __init__(self, frames):
        super().__init__()
        self._frames = iter(frames)
        self.sent = []

    def _send_frame(self, msg_type, payload):
        self.sent.append((msg_type, bytes(payload)))

    def _recv_frame(self):
        return next(self._frames)

    def close(self):
        pass


def fresh(store: MaterialStore) -> MaterialStore:
    """A copy of a store with the same records and every cursor at the start."""
    return MaterialStore(store.role, store.kappa, store.psi, store.session_id,
                         store.gk_commit, store.delta,
                         *(getattr(store, name) for name in MaterialStore.STREAMS))


def timed(totals: dict, name: str, fn):
    def wrapper(*args, **kw):
        t = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            totals[name] += time.perf_counter() - t
    return wrapper


def random_bits(n: int, rng: random.Random) -> BitVec:
    return BitVec(n, rng.getrandbits(n) if n else 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--circuit", help="Bristol circuit file (default: AES-128)")
    ap.add_argument("--runs", type=int, default=20, help="timed evaluations (N)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.circuit:
        circuit, name = Circuit.from_file(args.circuit), args.circuit
    else:
        circuit, name = generate_aes_circuit(), "AES-128"
    h = circuit.header
    rng = random.Random(1)
    xa, xb = random_bits(h.inputs_a, rng), random_bits(h.inputs_b, rng)

    cfg = DealerConfig.for_gates(circuit.n_and, h.inputs_a, h.inputs_b)
    chs = [RecordingChannel(s, 600.0) for s in socket.socketpair()]
    try:
        sa, sb = run_pair(lambda: deal(chs[0], A, cfg, random.Random(2)),
                          lambda: deal(chs[1], B, cfg, random.Random(3)),
                          timeout=600.0, channels=chs)
        for ch in chs:
            ch.sent.clear()
            ch.read.clear()
            ch.ops.clear()
        rt_a, rt_b = Runtime(chs[0], A, fresh(sa)), Runtime(chs[1], B, fresh(sb))
        want, _ = run_pair(lambda: rt_a.evaluate(circuit, xa),
                           lambda: rt_b.evaluate(circuit, xb),
                           timeout=600.0, channels=chs)
    finally:
        for ch in chs:
            ch.close()
    peer, sent = chs[0].read, chs[0].sent
    print(f"{name}: {circuit.n_and} AND gates in {len(rt_a.stats.levels)} levels; "
          f"Alice reads {len(peer)} frames, sends {len(sent)}")
    for who, ch in (("Alice", chs[0]), ("Bob", chs[1])):
        print(f"{who} sends {sum(FRAME_HEADER_BYTES + len(p) for _, p in ch.sent)} bytes "
              f"in {ch.flights()} flights")

    totals = {"_and_open": 0.0, "_and_close": 0.0}
    per_run = {k: [] for k in totals}
    for k in totals:
        setattr(Runtime, k, timed(totals, k, getattr(Runtime, k)))
    evals = []
    for _ in range(args.runs):
        ch = ReplayChannel(peer)
        rt = Runtime(ch, A, fresh(sa))
        for k in totals:
            totals[k] = 0.0
        t = time.perf_counter()
        out = rt.evaluate(circuit, xa)
        evals.append(time.perf_counter() - t)
        for k in totals:
            per_run[k].append(totals[k])
        if out != want or ch.sent != sent:
            print("replay diverged from the recorded evaluation", file=sys.stderr)
            return 1
    ms = lambda xs: f"{1e3 * statistics.median(xs):.2f} ms"
    print(f"evaluate: median {ms(evals)}, fastest {1e3 * min(evals):.2f} ms "
          f"over {args.runs} runs")
    for k, xs in per_run.items():
        print(f"{k}: median {ms(xs)} per evaluation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
