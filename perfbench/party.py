"""One party of the benchmark, run by `run.py` as its own OS process.

    party.py ROLE FD CIRCUIT BUCKET DELAY_S MBIT_S WORK_DIR [TRACE_OUT]

ROLE is A or B; FD is this party's end of a `socket.socketpair()`,
inherited from the parent, which the party wraps in a `TcpChannel` and then
in the benchmark's `LinkChannel`, which polls it briefly before blocking
in `recv` (see link.py). CIRCUIT is a Bristol file, parsed with
`Circuit.from_file` as `macbits eval` does. BUCKET is the bucket size, or 0
to let the dealer derive it; MBIT_S is 0 for an unlimited rate. With
TRACE_OUT the layer boundaries are traced and the span tree written there.

Talks to the parent in JSON lines: it prints {"ready": true} once set up,
then reads one job per line from stdin, {"sessions": [{"input": hex,
"seed": n}, ...], "replays": r}, and answers each with one line holding a
record per session. Every session deals fresh material, saves and reloads
the store, and evaluates. It then evaluates r more times on the same
inputs and the same material, each time from a fresh copy of the loaded
store, to time the online phase more than once per deal; reusing material
is for timing only, as it would leak inputs. The replays are left out of
the session's byte counts, spans and CPU time. An empty line or end of
input ends the process.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import socket
import sys
import time

HASH_TAGS = ("", "prg", "acc/", "laot", "laand")


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def replay_store(store):
    """The loaded store again, with its cursors at the start."""
    from macbits.dealer import MaterialStore

    return MaterialStore(store.role, store.kappa, store.psi, store.session_id,
                         store.gk_commit, store.delta,
                         *(getattr(store, name) for name in MaterialStore.STREAMS))


def main(argv) -> int:
    role_s, fd, circuit_path, bucket, delay_s, mbit_s, work_dir = argv[:7]
    trace_out = argv[7] if len(argv) > 7 else None

    from macbits import ro_suite
    from macbits.bitlinalg import BitVec
    from macbits.circuit import Circuit
    from macbits.dealer import DealerConfig, MaterialStore, deal
    from macbits.runtime_2pc import Runtime
    from macbits.transport import MsgType, Role, TcpChannel

    import link

    tracer = None
    if trace_out:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, link.LinkChannel)

    role = Role.ALICE if role_s == "A" else Role.BOB
    # Each party keeps to its own CPU. Left to the scheduler, or sharing one
    # CPU, the parties' online phase (thousands of short flights) varied by
    # about 13% from session to session on a two-CPU virtual machine; kept
    # apart, by about 4%.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[role.value % len(cpus)]})
    t0 = time.perf_counter()
    circuit = Circuit.from_file(circuit_path)
    parse_s = time.perf_counter() - t0
    h = circuit.header
    n_mine = h.inputs_a if role is Role.ALICE else h.inputs_b
    cfg = DealerConfig.for_gates(circuit.n_and, h.inputs_a, h.inputs_b,
                                 kappa=128, psi=40,
                                 bucket_B=int(bucket) or None)
    sock = socket.socket(fileno=int(fd))
    raw = TcpChannel(sock, timeout=150.0)
    ch = link.LinkChannel(raw, delay_s=float(delay_s), mbit_s=float(mbit_s) or None,
                          poll_sock=sock)

    def barrier():
        """Start a phase together, so that neither party's time includes
        waiting for the other to finish the previous step. Uses the raw
        channel: it is neither counted nor shaped."""
        if role is Role.ALICE:
            raw.send(MsgType.HELLO, b"")
            raw.recv(MsgType.HELLO)
        else:
            raw.recv(MsgType.HELLO)
            raw.send(MsgType.HELLO, b"")

    def hashes():
        return {tag: ro_suite.hash_calls(tag) for tag in HASH_TAGS}

    def region(phase, span):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.set_phase(phase)
        return tracer.span(span)

    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            if not line.strip():
                break
            job = json.loads(line)
            cpu0, spin0 = _rusage_cpu(), ch.spin_cpu_s
            replay_cpu = 0.0
            records = []
            for k, sess in enumerate(job["sessions"]):
                rec = {}
                records.append(rec)
                try:
                    store_path = os.path.join(work_dir, f"{role_s}-{k}.store")
                    my_inputs = BitVec(n_mine, int(sess["input"], 16))
                    rng = random.Random(sess["seed"])
                    barrier()
                    l0, c0 = ch.snapshot(), hashes()
                    rec["t_deal"] = time.monotonic()
                    with region("offline", "dealer.deal"):
                        store = deal(ch, role, cfg, rng)
                    rec["deal_s"] = time.monotonic() - rec["t_deal"]
                    l1, c1 = ch.snapshot(), hashes()
                    t = time.perf_counter()
                    with region("store", "dealer.save"):
                        store.save(store_path)
                    rec["save_s"] = time.perf_counter() - t
                    rec["store_bytes"] = os.path.getsize(store_path)
                    t = time.perf_counter()
                    with region("store", "dealer.load"):
                        store = MaterialStore.load(store_path)
                    rec["load_s"] = time.perf_counter() - t
                    os.remove(store_path)
                    rt = Runtime(ch, role, store)
                    l2, c2 = ch.snapshot(), hashes()
                    barrier()
                    rec["t_eval"] = time.monotonic()
                    with region("online", "runtime_2pc.evaluate"):
                        out = rt.evaluate(circuit, my_inputs)
                    rec["t_end"] = time.monotonic()
                    rec["eval_s"] = rec["t_end"] - rec["t_eval"]
                    l3, c3 = ch.snapshot(), hashes()
                    rec.update(
                        output=format(out.v, "x"),
                        offline=link.diff(l1, l0), online=link.diff(l3, l2),
                        hash_offline={tag: c1[tag] - c0[tag] for tag in HASH_TAGS},
                        hash_online={tag: c3[tag] - c2[tag] for tag in HASH_TAGS},
                        batches=len(rt.stats.levels),
                        bits_revealed=rt.stats.bits_revealed,
                        replay_s=[], replay_outputs=[])
                    cpu_r, spin_r = _rusage_cpu(), ch.spin_cpu_s
                    for _ in range(job.get("replays", 0)):
                        rt = Runtime(ch, role, replay_store(store))
                        barrier()
                        t = time.monotonic()
                        out = rt.evaluate(circuit, my_inputs)
                        rec["replay_s"].append(time.monotonic() - t)
                        rec["replay_outputs"].append(format(out.v, "x"))
                    # without the replays' spinning, which spin_cpu_s counts
                    replay_cpu += (_rusage_cpu() - cpu_r) - (ch.spin_cpu_s - spin_r)
                except Exception as e:  # reported to the parent as a failure
                    rec["error"] = f"{type(e).__name__}: {e}"
                    break
            # CPU time of the measured sessions, without spinning or replays
            cpu_s = _rusage_cpu() - cpu0 - replay_cpu - (ch.spin_cpu_s - spin0)
            result = {"sessions": records, "cpu_s": cpu_s,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "max_frame": ch.max_frame, "parse_s": parse_s}
            if tracer is not None:
                result["spans"] = tracer.summary()
                result["counts"] = dict(tracer.counts)
                result["bitvec_new"] = tracer.bitvec_new
                tracer.write_tree(trace_out)
            print(json.dumps(result), flush=True)
            if "error" in records[-1]:
                break
    finally:
        ch.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
