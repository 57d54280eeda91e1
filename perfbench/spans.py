"""In-memory span recorder for the traced benchmark run.

`install` replaces public functions of the `macbits` modules with timing
wrappers at the names their callers look up (for example
`macbits.dealer.produce_abits`, which `deal` calls, or
`macbits.abit_proto.extend_ot_send`). The program itself is unchanged; a
party that never calls `install` runs untraced.

Each span keeps its name, start, end, parent and phase in flat arrays, so
half a million spans cost a few megabytes. A span's self time is its
duration minus the durations of its child spans; calls never overlap
within one party process, so the children tile part of the parent.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import Counter

import numpy as np

PHASES = ("setup", "offline", "store", "online")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.phase = 0
        self.counts = Counter()
        self.bitvec_new = 0

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit(i)

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span per call; `count(args)` may return counter
        increments, taken before the call."""
        nid = self._name_id(name)
        enter, leave = self._enter, self._exit
        counts = self.counts

        def traced(*args, **kwargs):
            if count is not None:
                counts.update(count(args))
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i)

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def _self_times(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def summary(self) -> dict:
        """{span name: {phase: [calls, inclusive s, self s]}}."""
        dur, self_t = self._self_times()
        out = {}
        for i, (nid, ph) in enumerate(zip(self.name, self.phase_of)):
            row = out.setdefault(self.names[nid], {}).setdefault(PHASES[ph], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += float(dur[i])
            row[2] += float(self_t[i])
        return out

    def tree(self) -> list:
        """Spans merged by call path: one node per distinct path, with its
        phase, call count, inclusive and self seconds, and children."""
        dur, self_t = self._self_times()
        roots, nodes = [], []
        node_of = [0] * len(self.start)
        index = {}
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            key = (node_of[p] if p >= 0 else -1, nid, self.phase_of[i])
            k = index.get(key)
            if k is None:
                k = index[key] = len(nodes)
                nodes.append({"name": self.names[nid], "phase": PHASES[key[2]],
                              "calls": 0, "total_s": 0.0, "self_s": 0.0,
                              "children": []})
                (nodes[key[0]]["children"] if p >= 0 else roots).append(nodes[k])
            node_of[i] = k
            nodes[k]["calls"] += 1
            nodes[k]["total_s"] += float(dur[i])
            nodes[k]["self_s"] += float(self_t[i])
        return roots

    def write_tree(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": len(self.start), "counts": dict(self.counts),
                       "bitvec_new": self.bitvec_new, "tree": self.tree()},
                      fh, indent=1)


def install(tracer: Tracer, link_cls) -> None:
    """Wrap the layer boundaries of `macbits` and of the benchmark's link."""
    from macbits import (aand_proto, abit_proto, aot_proto, base_ot,
                         bitlinalg, dealer, ro_suite, runtime_2pc)

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    patch(link_cls, "_send_frame", "transport.send")
    patch(link_cls, "_recv_frame", "transport.recv")
    patch(base_ot.DealerOt, "send", "base_ot.seed",
          lambda a: {"base_ot.seed_ots": len(a[1])})
    patch(base_ot.DealerOt, "receive", "base_ot.seed")
    for fn in ("extend_ot_send", "extend_ot_receive"):
        patch(abit_proto, fn, "base_ot.extend")
    patch(ro_suite, "expand", "ro_suite.expand")
    patch(base_ot, "expand", "ro_suite.expand")
    patch(ro_suite.MacAccumulator, "absorb", "ro_suite.acc")
    patch(abit_proto, "transpose_bits", "bitlinalg.transpose")
    for fn in ("mat_vec_mul_batch", "mat_vec_mul"):
        patch(abit_proto, fn, "bitlinalg.matmul")
    for mod in (abit_proto, aot_proto, aand_proto):
        patch(mod, "eq_commit_side", "eq_box", lambda a: {"eq_box.checks": 1})
        patch(mod, "eq_respond_side", "eq_box")
    # produce_abits(ch, role, owner, count, ...): count once, on the owner
    patch(dealer, "produce_abits", "abit_proto.produce",
          lambda a: {f"abit_proto.bits.{a[2]}": a[3]} if a[1] is a[2] else {})
    for fn in ("labit_sender", "labit_receiver"):
        patch(abit_proto, fn, "abit_proto.labit")
    for fn in ("labit_to_wabit_macs", "labit_to_wabit_keys"):
        patch(abit_proto, fn, "abit_proto.wabit")
    for fn in ("wabit_amplify_mac_side", "wabit_amplify_key_side"):
        patch(abit_proto, fn, "abit_proto.amplify")
    # leaky and combined counts are taken on one side only (sender, MAC side)
    patch(dealer, "laot_sender", "aot_proto.laot",
          lambda a: {"aot_proto.leaky": len(a[1])})
    patch(dealer, "laot_receiver", "aot_proto.laot")
    patch(dealer, "aot_combine_sender", "aot_proto.combine",
          lambda a: {"aot_proto.outputs": len(a[1]) // a[2]})
    patch(dealer, "aot_combine_receiver", "aot_proto.combine")
    patch(dealer, "laand_mac_side", "aand_proto.laand",
          lambda a: {"aand_proto.leaky": len(a[1])})
    patch(dealer, "laand_key_side", "aand_proto.laand")
    patch(dealer, "aand_combine_mac", "aand_proto.combine",
          lambda a: {"aand_proto.outputs": len(a[1]) // a[2]})
    patch(dealer, "aand_combine_key", "aand_proto.combine")
    patch(dealer, "flush_accumulators", "dealer.flush")
    patch(runtime_2pc, "flush_accumulators", "runtime_2pc.flush")

    init = bitlinalg.BitVec.__init__

    def counted_init(self, n, v=0):
        tracer.bitvec_new += 1
        init(self, n, v)

    bitlinalg.BitVec.__init__ = counted_init
