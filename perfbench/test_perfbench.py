"""Self-tests of the benchmark's own parts.

    python3 -m pytest perfbench/test_perfbench.py -q

They cover the circuit generators, the link shaper, the span recorder, the
output gate and the shape of BENCHMARK.json. The repository's own suite
(`tests/`) does not collect them.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import circuits  # noqa: E402
import link  # noqa: E402
import spans  # noqa: E402
from macbits.bitlinalg import BitVec  # noqa: E402
from macbits.circuit import Circuit, plain_eval  # noqa: E402
from macbits.dealer import DealerConfig, deal  # noqa: E402
from macbits.runtime_2pc import Runtime  # noqa: E402
from macbits.transport import Role, memory_pair, run_pair  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


# -- circuit generators ------------------------------------------------------


def test_maxchain_matches_python_reference():
    c = Circuit.from_text(circuits.maxchain_bristol())
    assert (c.n_and, circuits.and_depth(c), circuits.greedy_batches(c)) == (1024, 544, 1024)
    rng = random.Random(7)
    for trial in range(20):
        a = rng.getrandbits(16)
        words = [rng.getrandbits(16) for _ in range(32)]
        if trial == 0:
            words = [a] * 32  # ties keep the running value
        bob = BitVec.join([BitVec(16, w) for w in words])
        assert plain_eval(c, BitVec(16, a), bob).v == circuits.maxchain_reference(a, words)


def test_cmp_matches_python_reference():
    c = Circuit.from_text(circuits.cmp_bristol())
    assert (c.n_and, circuits.and_depth(c), circuits.greedy_batches(c)) == (32, 32, 32)
    rng = random.Random(8)
    cases = [(0, 0), (1, 0), (0, 1), (2 ** 32 - 1, 2 ** 32 - 2), (5, 5)]
    cases += [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(200)]
    for x, y in cases:
        got = plain_eval(c, BitVec(32, x), BitVec(32, y)).v
        assert got == circuits.cmp_reference(x, y), (x, y)


def test_aes_counts():
    from macbits.aescircuit import generate_aes_circuit
    c = generate_aes_circuit()
    assert (c.n_and, circuits.and_depth(c), circuits.greedy_batches(c)) == (7200, 40, 2403)


# -- link shaper -------------------------------------------------------------


def _session(delay_s, mbit_s):
    """One cmp32 session in-process over shaped memory channels."""
    circuit = Circuit.from_text(circuits.cmp_bristol())
    cfg = DealerConfig.for_gates(32, 32, 32)
    raw_a, raw_b = memory_pair(timeout=60.0)
    ca = link.LinkChannel(raw_a, delay_s, mbit_s)
    cb = link.LinkChannel(raw_b, delay_s, mbit_s)

    def party(ch, role, seed, x):
        store = deal(ch, role, cfg, random.Random(seed))
        return Runtime(ch, role, store).evaluate(circuit, BitVec(32, x))

    t0 = time.perf_counter()
    out = run_pair(lambda: party(ca, Role.ALICE, 1, 123456789),
                   lambda: party(cb, Role.BOB, 2, 987654321),
                   timeout=60.0, channels=(ca, cb))
    wall = time.perf_counter() - t0
    return out, wall, [ca.snapshot(), cb.snapshot()]


def test_shaper_passes_payloads_and_adds_expected_time():
    delay_s, mbit_s = 0.004, 40.0
    out_plain, wall_plain, snap_plain = _session(0.0, None)
    out_shaped, wall_shaped, snap_shaped = _session(delay_s, mbit_s)
    assert out_plain == out_shaped
    assert out_plain[0].v == circuits.cmp_reference(123456789, 987654321)
    for p, s in zip(snap_plain, snap_shaped):
        for key in ("frames_sent", "bytes_sent", "flights", "bytes_by_type"):
            assert p[key] == s[key]
    flights = sum(s["flights"] for s in snap_shaped)
    sent = sum(s["bytes_sent"] for s in snap_shaped)
    expected = flights * delay_s + sent * 8 / (mbit_s * 1e6)
    added = wall_shaped - wall_plain
    assert 0.8 * expected - 0.1 < added < 1.2 * expected + 0.3, (added, expected)


def test_flights_count_direction_changes():
    raw_a, raw_b = memory_pair(timeout=5.0)
    ca, cb = link.LinkChannel(raw_a), link.LinkChannel(raw_b)
    from macbits.transport import MsgType
    ca.send(MsgType.HELLO, b"x")
    ca.send(MsgType.HELLO, b"y")  # same flight
    cb.recv(MsgType.HELLO)
    cb.recv(MsgType.HELLO)
    cb.send(MsgType.HELLO, b"z")
    ca.recv(MsgType.HELLO)
    ca.send(MsgType.HELLO, b"w")
    assert (ca.flights, cb.flights) == (2, 1)
    assert ca.snapshot()["bytes_by_type"] == {"HELLO": 3 * 6}


def test_polling_falls_back_to_recv_and_counts_its_cpu():
    import socket
    import threading
    from macbits.transport import MsgType, TcpChannel
    sa, sb = socket.socketpair()
    ca = link.LinkChannel(TcpChannel(sa, timeout=5.0), poll_sock=sa)
    cb = TcpChannel(sb, timeout=5.0)
    late = threading.Timer(0.05, lambda: cb.send(MsgType.HELLO, b"late"))
    late.start()
    assert ca.recv(MsgType.HELLO) == b"late"
    late.join()
    cb.send(MsgType.HELLO, b"now")
    assert ca.recv(MsgType.HELLO) == b"now"
    assert ca.recv_wait_s >= 0.04 and 0 < ca.spin_cpu_s < 0.04
    ca.close()
    cb.close()


# -- span recorder -----------------------------------------------------------


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    inner = tr.wrap(lambda: time.sleep(0.02), "inner")
    outer = tr.wrap(lambda: (time.sleep(0.01), inner(), inner()), "outer")
    tr.set_phase("offline")
    outer()
    s = tr.summary()
    calls, total, self_s = s["outer"]["offline"]
    assert calls == 1 and total >= 0.05
    assert 0.009 < self_s < 0.03
    assert s["inner"]["offline"][0] == 2
    (root,) = tr.tree()
    assert root["name"] == "outer" and root["children"][0]["calls"] == 2


# -- the benchmark command ---------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_wrong_reference_fails_every_session(monkeypatch, capsys):
    import run
    right = run.reference
    monkeypatch.setattr(run, "reference", lambda c, sess: right(c, sess) ^ 1)
    rc = run.main(["--workload", "cmp32-burst", "--seed", "3", "--seconds", "1",
                   "--trace", "0"])
    out = capsys.readouterr().out
    res = json.loads(out.strip().splitlines()[-1])
    assert rc != 0 and res["correct"] is False
    assert res["attempted"] == 40 and res["failed"] == 40
    assert re.search(r"^failed_frac\s+1\.0+ ratio$", out, re.M)


def test_wrong_aes_netlist_stops_the_run(monkeypatch, capsys):
    import run
    monkeypatch.setattr(run, "FIPS_CT", bytes(16))
    rc = run.main(["--workload", "cmp32-burst", "--seed", "3", "--seconds", "1",
                   "--trace", "0"])
    captured = capsys.readouterr()
    assert rc != 0 and not captured.out.strip()
    assert "FIPS-197" in captured.err


def test_replays_time_the_same_evaluation_again(tmp_path):
    import run
    wl = run.WORKLOADS["cmp32-burst"]
    pair, circuit, _, _ = run.start_pair(wl, tmp_path, time.monotonic() + 60)
    try:
        sessions = run.make_sessions(random.Random(7), circuit, 2)
        results, ok = run.run_unit(pair, circuit, sessions, time.monotonic() + 60,
                                   replays=2)
    finally:
        pair.stop()
    assert ok == [True, True]
    for res in results:
        for rec in res["sessions"]:
            assert rec["replay_outputs"] == [rec["output"]] * 2
    assert len(run.online_times(results)) == 2 * 3
    assert run.unit_metrics(results, circuit)["online_s"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = _result(_run_bench("--workload", "cmp32-burst", "--seed", "4",
                             "--seconds", "1", "--trace", "0"))
    assert res["correct"] is True and res["failed"] == 0
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = _result(_run_bench("--workload", "cmp32-burst", "--seed", "5",
                             "--seconds", "1", "--trace", "1"))
    assert res["correct"] is True
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(res["metrics"]) == sorted(names)
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert got["aot_proto.hashes_per_leaky"] == 6
    assert got["aand_proto.hashes_per_leaky"] == 3
    assert got["runtime_2pc.batches"] == 32


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "aes128", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert 2 <= len(names) <= 8
    assert len(set(names + [m["name"] for m in metrics])) == len(names) + len(metrics)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in metrics:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    from run import WORKLOADS
    assert sorted(WORKLOADS) == sorted(names)
