"""A `Channel` wrapper that counts what crosses the link and can shape it.

The wrapper sits between the protocol code and a real channel (a
`TcpChannel` in the benchmark). Payloads pass through unchanged. It counts
frames and bytes per message type, flights, the largest frame, and the time
spent waiting in `recv`.

A flight starts when a party sends after having received (or sends first).
With a one-way delay set, the sender waits that delay at the start of each
flight; with a rate set, it waits bytes / rate for every frame, header
included. In a lockstep protocol the receiver is already waiting, so the
waits add about flights x delay + bytes / rate to the wall time.

The wrapper waits by spinning, not by sleeping, and, given the socket under
the channel, it polls the socket for up to _MAX_POLL_S before it blocks in
`recv`. On a virtual machine a party that sleeps or blocks for more than a
few hundred microseconds has its CPU halted, and the host must wake it up.
On a two-vCPU KVM guest that wake-up added 100 to 450 us to every round
trip of two processes that each work 300 us before replying (polled: about
40 us), and it grows with the host's load: with the delay slept, the online
phase of maxchain-wan (2,055 flights of 5 ms) took from 11.2 to 18.7 s from
run to run. The CPU time spent spinning is counted apart (`spin_cpu_s`), so
that CPU time can be reported without it.
"""

from __future__ import annotations

import select
import time
from collections import Counter

from macbits.transport import FRAME_HEADER_BYTES, Channel

# The rest of a longer wait for a frame is spent blocked in `recv`.
_MAX_POLL_S = 0.01


class LinkChannel(Channel):
    def __init__(self, inner: Channel, delay_s: float = 0.0, mbit_s: float = None,
                 poll_sock=None):
        super().__init__()
        self.inner = inner
        self.poll_sock = poll_sock
        self.delay_s = delay_s
        self.s_per_byte = 8.0 / (mbit_s * 1e6) if mbit_s else 0.0
        self.flights = 0
        self.bytes_by_type = Counter()
        self.max_frame = 0
        self.recv_wait_s = 0.0
        self.spin_cpu_s = 0.0
        self._sending = False

    def _send_frame(self, msg_type, payload: bytes) -> None:
        nbytes = FRAME_HEADER_BYTES + len(payload)
        pause_s = nbytes * self.s_per_byte
        if not self._sending:
            self._sending = True
            self.flights += 1
            pause_s += self.delay_s
        if pause_s:
            end = time.perf_counter() + pause_s
            self._spin(lambda: time.perf_counter() >= end)
        self.inner._send_frame(msg_type, payload)
        self.bytes_by_type[msg_type.name] += nbytes
        self.max_frame = max(self.max_frame, nbytes)

    def _recv_frame(self):
        t0 = time.perf_counter()
        try:
            if self.poll_sock is not None:
                rlist = [self.poll_sock]
                self._spin(lambda: select.select(rlist, [], [], 0)[0]
                           or time.perf_counter() - t0 >= _MAX_POLL_S)
            return self.inner._recv_frame()
        finally:
            self.recv_wait_s += time.perf_counter() - t0
            self._sending = False

    def _spin(self, done) -> None:
        """Busy-wait until done() is true; its CPU time goes to spin_cpu_s."""
        c0 = time.process_time()
        while not done():
            pass
        self.spin_cpu_s += time.process_time() - c0

    def close(self) -> None:
        self.inner.close()

    def snapshot(self) -> dict:
        """Cumulative counters; the benchmark differences two snapshots."""
        s = self.stats
        return {"frames_sent": s.frames_sent, "bytes_sent": s.bytes_sent,
                "flights": self.flights, "recv_wait_s": self.recv_wait_s,
                "bytes_by_type": dict(self.bytes_by_type)}


def diff(after: dict, before: dict) -> dict:
    out = {k: after[k] - before[k] for k in after if k != "bytes_by_type"}
    out["bytes_by_type"] = dict(Counter(after["bytes_by_type"])
                                - Counter(before["bytes_by_type"]))
    return out
