"""Two-process benchmark of macbits: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The parent process generates every input from --seed, spawns the
two parties as OS processes joined by a `socket.socketpair()`, collects
their results and checks every output. Each session deals fresh material,
saves and reloads the store, and evaluates the circuit. Sessions run one
after another (a closed loop); a workload's unit of work is its fixed list
of sessions, repeated until --seconds have been measured, and the metrics
are medians over units. On aes128, where a deal takes ten times as long as
the online phase, each session also replays its evaluation four times on
the same material (see party.py), and online_s is the median of the five
evaluations: the host's load changes over a few seconds, so one slow
stretch spoils at most two of them. The parties meet at a barrier before
`deal` and before `evaluate`, so a phase's time does not include waiting
for the other party to finish the previous step. Each party keeps to its
own CPU (see party.py), and waits by spinning rather than sleeping (see
link.py).

Set-up (`setup_s`, median of SETUP_REPEATS) runs from the start of the
parent's set-up until both parties are ready to send the first HELLO: the
output gate (the AES netlist regenerated and checked against FIPS-197), the
workload circuit written as a Bristol file, process start, imports, parse
and channel.

With --trace 0 the last line carries the end-to-end metrics. With --trace 1
the run measures one unit untraced and then the same unit with the layer
boundaries traced (see spans.py), checks that tracing changed no output and
no byte count, and reports the per-layer metrics of the traced unit, per
session, with the tracing overhead (traced over untraced total_s of the
unit). The last line of stdout is always the JSON result; the lines before
it print every metric with its unit. A run whose outputs were wrong still
prints its result, with "correct": false, and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_BUDGET_S = 165.0
UNTRACED_KEY = "untraced_end_to_end"

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class Workload(NamedTuple):
    circuit: str
    bucket: int  # 0: derived by the dealer
    sessions: int  # per unit of work
    delay_s: float  # one-way link delay per flight
    mbit_s: float  # link rate per direction, 0 for unlimited
    replays: int  # timed re-evaluations per session, untraced runs only


WORKLOADS = {
    "aes128": Workload("aes128", 4, 1, 0.0, 0.0, 4),
    "maxchain-wan": Workload("maxchain", 0, 1, 0.005, 100.0, 0),
    "cmp32-burst": Workload("cmp32", 0, 40, 0.0, 0.0, 0),
}

class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


# ---------------------------------------------------------------------------
# set-up: the output gate, the circuit, the two party processes


def prepare(wl: Workload, work: Path):
    """Regenerate and check the AES netlist, write the workload circuit.
    Returns (circuit, path, aes_generate_s). A netlist that fails the
    FIPS-197 vector stops the run: every reference would be wrong too."""
    from macbits.aescircuit import (bits_to_block, block_to_bits,
                                    generate_aes_circuit, to_bristol)
    from macbits.circuit import Circuit, plain_eval

    import circuits

    t = time.perf_counter()
    generate_aes_circuit.cache_clear()
    aes_text = to_bristol(generate_aes_circuit())
    generate_s = time.perf_counter() - t
    aes = Circuit.from_text(aes_text)
    ct = plain_eval(aes, block_to_bits(FIPS_KEY), block_to_bits(FIPS_PT))
    if bits_to_block(ct) != FIPS_CT:
        raise BenchError("the AES netlist fails the FIPS-197 vector")
    if wl.circuit == "aes128":
        text, circuit = aes_text, aes
    else:
        gen = {"maxchain": circuits.maxchain_bristol, "cmp32": circuits.cmp_bristol}
        text = gen[wl.circuit]()
        circuit = Circuit.from_text(text)
    path = work / "circuit.txt"
    path.write_text(text)
    return circuit, path, generate_s


class Party:
    """One party process and the JSON-line pipe to it."""

    def __init__(self, role: str, sock: socket.socket, argv_tail):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        fd = sock.fileno()
        self.role = role
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "party.py"), role, str(fd),
             *map(str, argv_tail)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, pass_fds=(fd,),
            env=env, cwd=ROOT)
        self._buf = b""

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def readline(self, deadline: float) -> dict:
        out = self.proc.stdout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"party {self.role} did not answer in time")
            if select.select([out], [], [], left)[0]:
                chunk = os.read(out.fileno(), 1 << 20)
                if not chunk:
                    raise EOFError(f"party {self.role} exited")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Pair:
    def __init__(self, wl: Workload, circuit_path: Path, work: Path,
                 trace_out: Path = None):
        sa, sb = socket.socketpair()
        self.parties = []
        try:
            for role, sock in (("A", sa), ("B", sb)):
                tail = [circuit_path, wl.bucket, wl.delay_s, wl.mbit_s, work]
                if trace_out is not None:
                    tail.append(f"{trace_out}-{role}.json")
                self.parties.append(Party(role, sock, tail))
        except BaseException:
            self.stop()
            raise
        finally:
            sa.close()
            sb.close()

    def wait_ready(self, deadline: float) -> None:
        for p in self.parties:
            if not p.readline(deadline).get("ready"):
                raise BenchError(f"party {p.role} failed to start")

    def stop(self) -> None:
        for p in self.parties:
            p.stop()


def start_pair(wl, work, deadline, trace_out=None):
    """One timed set-up. Returns (pair, circuit, generate_s, setup_s)."""
    t0 = time.monotonic()
    circuit, path, generate_s = prepare(wl, work)
    pair = Pair(wl, path, work, trace_out)
    try:
        pair.wait_ready(deadline)
    except (TimeoutError, EOFError) as e:
        pair.stop()
        raise BenchError(f"set-up failed: {e}") from None
    except BaseException:
        pair.stop()
        raise
    return pair, circuit, generate_s, time.monotonic() - t0


# ---------------------------------------------------------------------------
# sessions


def make_sessions(rng: random.Random, circuit, n: int) -> list:
    h = circuit.header
    return [{"a": rng.getrandbits(h.inputs_a), "b": rng.getrandbits(h.inputs_b),
             "seed_a": rng.getrandbits(63), "seed_b": rng.getrandbits(63)}
            for _ in range(n)]


def reference(circuit, sess) -> int:
    from macbits.bitlinalg import BitVec
    from macbits.circuit import plain_eval

    h = circuit.header
    return plain_eval(circuit, BitVec(h.inputs_a, sess["a"]),
                      BitVec(h.inputs_b, sess["b"])).v


def run_unit(pair: Pair, circuit, sessions, deadline, replays=0):
    """Run one unit of sessions; returns (per-party results, ok flags)."""
    for p, key in zip(pair.parties, ("a", "b")):
        p.send({"sessions": [{"input": format(s[key], "x"), "seed": s["seed_" + key]}
                             for s in sessions], "replays": replays})
    try:
        results = [p.readline(deadline) for p in pair.parties]
    except (TimeoutError, EOFError) as e:
        print(f"unit failed: {e}", file=sys.stderr)
        return None, [False] * len(sessions)
    ok = []
    for i, sess in enumerate(sessions):
        recs = [r["sessions"][i] if i < len(r["sessions"]) else {"error": "not run"}
                for r in results]
        errors = [r["error"] for r in recs if "error" in r]
        want = reference(circuit, sess)
        outs = [int(out, 16) for r in recs if "output" in r
                for out in (r["output"], *r["replay_outputs"])]
        good = not errors and len(outs) == 2 * (1 + replays) and set(outs) == {want}
        if not good:
            print(f"session {i} failed: {errors or 'output differs from reference'}",
                  file=sys.stderr)
        ok.append(good)
    return results, ok


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def online_times(results) -> list:
    """Each evaluation's wall time, replays included, the larger of the two
    parties'."""
    def times(rec):
        return [rec["eval_s"], *rec["replay_s"]]
    a, b = (r["sessions"] for r in results)
    return [max(tx, ty) for x, y in zip(a, b) for tx, ty in zip(times(x), times(y))]


def unit_metrics(results, circuit) -> dict:
    """End-to-end metrics of one completed unit."""
    a, b = (r["sessions"] for r in results)
    pairs = list(zip(a, b))
    totals = [max(x["t_end"], y["t_end"]) - min(x["t_deal"], y["t_deal"])
              for x, y in pairs]
    total_s = (max(max(x["t_end"], y["t_end"]) for x, y in pairs)
               - min(min(x["t_deal"], y["t_deal"]) for x, y in pairs))
    return {
        "offline_s": statistics.median(max(x["deal_s"], y["deal_s"]) for x, y in pairs),
        "online_s": statistics.median(online_times(results)),
        "total_s": total_s,
        "and_gates_per_s": circuit.n_and * len(pairs) / total_s,
        "session_p50_s": statistics.median(totals),
        "session_p75_s": nearest_rank(totals, 0.75),
        "offline_bytes": statistics.median(
            x["offline"]["bytes_sent"] + y["offline"]["bytes_sent"] for x, y in pairs),
        "online_bytes": statistics.median(
            x["online"]["bytes_sent"] + y["online"]["bytes_sent"] for x, y in pairs),
        "online_flights": statistics.median(
            x["online"]["flights"] + y["online"]["flights"] for x, y in pairs),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced unit


def layer_metrics(results, circuit, generate_s) -> dict:
    import circuits

    a, b = (r["sessions"] for r in results)
    n = len(a)
    recs = a + b
    by_party = {"alice": a, "bob": b}

    def total(fn):
        return sum(fn(r) for r in recs) / n

    def self_s(span, phase=None):
        return sum(row[2] for r in results
                   for ph, row in r["spans"].get(span, {}).items()
                   if phase in (None, ph)) / n

    def count(key):
        return sum(r["counts"].get(key, 0) for r in results) / n

    def type_bytes(prefix):
        return total(lambda r: sum(v for ph in ("offline", "online")
                                   for k, v in r[ph]["bytes_by_type"].items()
                                   if k.startswith(prefix)))

    families = ("OT_", "EQ_", "LAOT_", "COMB_", "RT_")
    all_bytes = total(lambda r: r["offline"]["bytes_sent"] + r["online"]["bytes_sent"])
    m = {
        "transport.offline_frames": total(lambda r: r["offline"]["frames_sent"]),
        "transport.offline_flights": total(lambda r: r["offline"]["flights"]),
        "transport.online_frames": total(lambda r: r["online"]["frames_sent"]),
    }
    for party, rs in by_party.items():
        m[f"transport.offline_wait_s.{party}"] = sum(r["offline"]["recv_wait_s"] for r in rs) / n
        m[f"transport.online_wait_s.{party}"] = sum(r["online"]["recv_wait_s"] for r in rs) / n
    for fam in families:
        m[f"transport.{fam[:-1].lower()}_bytes"] = type_bytes(fam)
    m["transport.other_bytes"] = all_bytes - sum(type_bytes(f) for f in families)
    m["transport.max_frame_mb"] = max(r["max_frame"] for r in results) / 2 ** 20

    leaky_aot, leaky_aand = count("aot_proto.leaky"), count("aand_proto.leaky")
    batches = sum(r["batches"] for r in a) / n
    m.update({
        "base_ot.seed_ots": count("base_ot.seed_ots"),
        "base_ot.seed_s": self_s("base_ot.seed"),
        "base_ot.extend_s": self_s("base_ot.extend"),
        "ro_suite.prg_blocks": total(lambda r: r["hash_offline"]["prg"] + r["hash_online"]["prg"]),
        "ro_suite.expand_s": self_s("ro_suite.expand"),
        "ro_suite.hash_calls": total(lambda r: r["hash_offline"][""] + r["hash_online"][""]),
        "ro_suite.acc_hashes_online": total(lambda r: r["hash_online"]["acc/"]),
        "ro_suite.acc_s": self_s("ro_suite.acc", "online"),
        "bitlinalg.transpose_s": self_s("bitlinalg.transpose"),
        "bitlinalg.matmul_s": self_s("bitlinalg.matmul"),
        "bitlinalg.bitvec_new": sum(r["bitvec_new"] for r in results) / n,
        "eq_box.checks": count("eq_box.checks"),
        "eq_box.s": self_s("eq_box"),
        "abit_proto.bits.alice": count("abit_proto.bits.alice"),
        "abit_proto.bits.bob": count("abit_proto.bits.bob"),
        "abit_proto.produce_s": max(
            sum(row[1] for row in r["spans"].get("abit_proto.produce", {}).values())
            for r in results) / n,
        "abit_proto.labit_s": self_s("abit_proto.labit"),
        "abit_proto.wabit_s": self_s("abit_proto.wabit"),
        "abit_proto.amplify_s": self_s("abit_proto.amplify"),
        "aot_proto.laot_s": self_s("aot_proto.laot"),
        "aot_proto.combine_s": self_s("aot_proto.combine"),
        "aot_proto.leaky": leaky_aot,
        "aot_proto.yield": count("aot_proto.outputs") / leaky_aot,
        "aot_proto.hashes_per_leaky": total(lambda r: r["hash_offline"]["laot"]) / leaky_aot,
        "aand_proto.laand_s": self_s("aand_proto.laand"),
        "aand_proto.combine_s": self_s("aand_proto.combine"),
        "aand_proto.leaky": leaky_aand,
        "aand_proto.yield": count("aand_proto.outputs") / leaky_aand,
        "aand_proto.hashes_per_leaky": total(lambda r: r["hash_offline"]["laand"]) / leaky_aand,
        "dealer.save_s": total(lambda r: r["save_s"]),
        "dealer.load_s": total(lambda r: r["load_s"]),
        "dealer.store_mb": total(lambda r: r["store_bytes"]) / 2 ** 20,
        "dealer.flush_s": self_s("dealer.flush"),
        "aescircuit.generate_s": generate_s,
        "circuit.parse_s": sum(r["parse_s"] for r in results),
        "circuit.n_and": circuit.n_and,
        "circuit.and_depth": circuits.and_depth(circuit),
        "runtime_2pc.batches": batches,
        "runtime_2pc.and_per_batch": circuit.n_and / batches,
        "runtime_2pc.compute_s": total(lambda r: r["eval_s"] - r["online"]["recv_wait_s"]),
        "runtime_2pc.flush_s": self_s("runtime_2pc.flush"),
        "runtime_2pc.bits_revealed": total(lambda r: r["bits_revealed"]),
    })
    return m


def transcript_sizes(results) -> list:
    """Per session and party: the outputs and every byte count."""
    return [[(r.get("output"), r["offline"]["bytes_sent"], r["online"]["bytes_sent"],
              r["offline"]["bytes_by_type"], r["online"]["bytes_by_type"])
             for r in res["sessions"]] for res in results]


# ---------------------------------------------------------------------------
# entry point


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(result: dict, metrics: dict, units: dict, extra_lines=()) -> dict:
    for line in extra_lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(result))
    return result


def run_untraced(args, wl, rng, work, deadline) -> dict:
    setups, pair = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if pair is not None:
                pair.stop()
                pair = None
            pair, circuit, _, setup_s = start_pair(wl, work, deadline)
            setups.append(setup_s)
        units, oks, online = [], [], []
        t_meas = time.monotonic()
        while True:
            t_unit = time.monotonic()
            results, ok = run_unit(pair, circuit, make_sessions(rng, circuit, wl.sessions),
                                   deadline, wl.replays)
            oks += ok
            if results is None or not all(ok):
                break
            units.append(unit_metrics(results, circuit))
            online += online_times(results)
            now = time.monotonic()
            if now - t_meas >= args.seconds or now + (now - t_unit) > deadline - 10:
                break
    finally:
        if pair is not None:
            pair.stop()
    failed = oks.count(False)
    metrics = {"setup_s": statistics.median(setups)}
    if units:
        for k in units[0]:
            metrics[k] = statistics.median(u[k] for u in units)
    lines = [f"workload {args.workload}: {len(units)} unit(s), {len(oks)} session(s), "
             f"{SETUP_REPEATS} set-ups; AES netlist checked against FIPS-197",
             f"online phase timed {len(online)} time(s): min {min(online, default=0):.4f}, "
             f"median {statistics.median(online or [0]):.4f}, "
             f"max {max(online, default=0):.4f} s",
             f"{'failed_frac':32s} {failed / len(oks):16.6f} ratio"]
    result = {"correct": failed == 0 and bool(units),
              "attempted": len(oks), "failed": failed}
    return emit(result, metrics, metric_units("end_to_end"), lines)


def run_traced(args, wl, rng, work, deadline) -> dict:
    trace_dir = WORK_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    sessions = None
    for trace_out in (None, trace_dir / f"{args.workload}-seed{args.seed}"):
        pair, circuit, generate_s, _ = start_pair(wl, work, deadline, trace_out)
        try:
            if sessions is None:
                sessions = make_sessions(rng, circuit, wl.sessions)
            results, ok = run_unit(pair, circuit, sessions, deadline)
        finally:
            pair.stop()
        runs.append((results, ok, generate_s))
    (plain, ok_plain, _), (traced, ok_traced, generate_s) = runs
    oks = ok_plain + ok_traced
    failed = oks.count(False)
    same = failed == 0 and transcript_sizes(plain) == transcript_sizes(traced)
    metrics = {}
    lines = [f"workload {args.workload}: traced and untraced unit of {len(sessions)} "
             f"session(s); outputs and byte counts "
             f"{'identical' if same else 'DIFFER'} with tracing",
             f"span trees: {trace_dir}/{args.workload}-seed{args.seed}-[AB].json"]
    if same:
        untraced = unit_metrics(plain, circuit)
        metrics = layer_metrics(traced, circuit, generate_s)
        metrics["trace.overhead_ratio"] = (unit_metrics(traced, circuit)["total_s"]
                                           / untraced["total_s"])
        # the untraced unit's end-to-end metrics, one JSON line for report.py
        lines.append(json.dumps({UNTRACED_KEY: untraced}))
    result = {"correct": same, "attempted": len(oks), "failed": failed}
    return emit(result, metrics, metric_units("per_layer"), lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and reaps its party processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "macbits" / "__init__.py").is_file():
        print(f"no macbits source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args, wl, rng, work, deadline)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
