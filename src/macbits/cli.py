"""Command-line entry points: deal, eval, verify-bounds.

Two-process use pairs `deal --role A --listen HOST:PORT` with
`deal --role B --connect HOST:PORT`, and likewise `eval` where role A
listens at --peer and role B connects to it. The benchmark is
`perfbench/run.py`, not a subcommand. Exit codes: 0 success, 2 protocol
abort, 3 usage error, 4 out of preprocessed material.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import secrets
import sys
import time

from .bitlinalg import BitVec
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit
from .dealer import DealerConfig, MaterialStore, deal
from .errors import (OutOfMaterial, ParseError, ProtocolAbort, ProtocolError,
                     TransportError, UsageError)
from .leakage_lab import (alpha_prime, bucket_fail_mc, bucket_fail_prob,
                          span_fail_rate)
from .runtime_2pc import Runtime
from .transport import Role, tcp_connect, tcp_listen

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_USAGE = 3
EXIT_MATERIAL = 4


def _parse_role(s: str) -> Role:
    if s.upper() == "A":
        return Role.ALICE
    if s.upper() == "B":
        return Role.BOB
    raise UsageError("role must be A or B")


def _parse_addr(s: str):
    host, sep, port = s.rpartition(":")
    if not sep or not re.fullmatch(r"[0-9]{1,5}", port) or int(port) > 65535:
        raise UsageError(f"bad address {s!r}, want HOST:PORT with a port in 0-65535")
    return host or "127.0.0.1", int(port)


_OUTPUT_RUN = re.compile(rf"({DEST_A}|{DEST_B}|{DEST_BOTH}):([0-9]{{1,18}})")


def _parse_outputs(spec: str, n_outputs: int) -> tuple:
    """--outputs SPEC: comma-separated DEST:COUNT runs over the output wires
    in order, DEST being A, B or both, with counts summing to n_outputs."""
    runs = []
    for item in spec.split(","):
        m = _OUTPUT_RUN.fullmatch(item)
        if m is None:
            raise UsageError(f"bad --outputs run {item!r}, want A:N, B:N or both:N")
        runs.append((m[1], int(m[2])))
    total = sum(n for _, n in runs)
    if total != n_outputs:
        raise UsageError(f"--outputs covers {total} output wires, the circuit has {n_outputs}")
    return tuple(d for d, n in runs for _ in range(n))


def _make_rng(seed):
    return random.Random(seed if seed is not None else secrets.randbits(64))


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_deal(args) -> int:
    role = _parse_role(args.role)
    if os.path.exists(args.out) and not args.force:
        raise UsageError(f"{args.out} exists; pass --force to overwrite")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise UsageError(f"{out_dir} is not a directory")
    cfg = DealerConfig.for_gates(args.gates, args.inputs, args.inputs,
                                 kappa=args.kappa, psi=args.psi)
    rng = _make_rng(args.seed)
    if args.listen:
        ch = tcp_listen(*_parse_addr(args.listen))
    else:
        ch = tcp_connect(*_parse_addr(args.connect))
    try:
        t0 = time.time()
        store = deal(ch, role, cfg, rng)
        elapsed = time.time() - t0
    finally:
        ch.close()
    store.save(args.out)
    _emit(args, {
        "out": args.out,
        "role": str(role),
        "gates": args.gates,
        "abits": store.remaining("abits_mine"),
        "triples": store.remaining("triples"),
        "seconds": round(elapsed, 3),
    }, f"dealt material for {args.gates} AND gates -> {args.out} "
       f"({elapsed:.1f}s)")
    return EXIT_OK


def _read(load, what: str, path: str):
    """load(path); a file that cannot be read is a usage error naming it."""
    try:
        return load(path)
    except OSError as e:
        raise UsageError(f"cannot read {what} {path}: {e.strerror or e}") from None


def cmd_eval(args) -> int:
    role = _parse_role(args.role)
    store = _read(MaterialStore.load, "material", args.material)
    if store.role is not role:
        raise UsageError("material store was dealt for the other role")
    circuit = _read(Circuit.from_file, "circuit", args.circuit)
    if args.outputs is not None:
        circuit = circuit.with_output_dest(
            _parse_outputs(args.outputs, circuit.header.n_outputs))
    n_mine = (circuit.header.inputs_a if role is Role.ALICE
              else circuit.header.inputs_b)
    try:
        blob = bytes.fromhex(args.input)
    except ValueError:
        raise UsageError("--input must be hex") from None
    if len(blob) != (n_mine + 7) // 8:
        raise UsageError(f"this party supplies {n_mine} input bits "
                         f"({(n_mine + 7) // 8} hex-encoded bytes)")
    if int.from_bytes(blob, "little") >> n_mine:
        raise UsageError(f"--input sets a bit past this party's {n_mine} input bits")
    my_inputs = BitVec.from_bytes(n_mine, blob)
    host, port = _parse_addr(args.peer)
    ch = tcp_listen(host, port) if role is Role.ALICE else tcp_connect(host, port)
    try:
        rt = Runtime(ch, role, store)
        t0 = time.time()
        out = rt.evaluate(circuit, my_inputs)
        elapsed = time.time() - t0
    finally:
        ch.close()
    gps = circuit.header.n_gates / elapsed if elapsed > 0 else math.inf
    _emit(args, {
        "output_hex": out.to_bytes().hex(),
        "output_bits": out.n,
        "seconds": round(elapsed, 3),
        "gates_per_second": round(gps, 1),
    }, f"output: {out.to_bytes().hex()}\n"
       f"online {elapsed:.2f}s, {gps:,.0f} gates/s")
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    rng = _make_rng(args.seed)
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    for bucket in (2, 3, 4):
        for ell in (4, 8, 16):
            for gamma in range(bucket, 2 * bucket + 1):
                a = bucket_fail_prob(gamma, ell, bucket)
                # scale trials so low-probability cells see ~50 hits;
                # the hit rate per trial is alpha * 2^gamma
                hit = min(1.0, a * 2.0 ** gamma)
                trials = min(max(args.trials, int(50 / hit) + 1),
                             100 * args.trials)
                mc, se = bucket_fail_mc(gamma, ell, bucket, trials, rng,
                                        return_stderr=True)
                if se > 0:
                    ok = abs(mc - a) <= 3 * se
                else:
                    # zero hits observed: consistent iff rare enough
                    ok = hit * trials <= 9
                check(f"bucket B={bucket} l={ell} g={gamma}", ok,
                      f"alpha={a:.3e} mc={mc:.3e} se={se:.1e} n={trials}")
    grid_ok = True
    for bucket in range(2, 7):
        for ell in (2 ** 4, 2 ** 8, 2 ** 12, 2 ** 20):
            if alpha_prime(bucket, ell) > (2 * ell) ** (1 - bucket):
                grid_ok = False
    check("alpha' <= (2l)^(1-B) grid", grid_ok, "B in 2..6, l up to 2^20")
    check("alpha'(6, 2^20) <= 2^-100",
          alpha_prime(6, 2 ** 20) <= 2.0 ** -100,
          f"{alpha_prime(6, 2 ** 20):.3e}")
    rate = span_fail_rate(8, trials=args.trials, rng=rng)
    check("span psi=8 <= 2^-7", rate <= 2.0 ** -7, f"rate={rate:.2e}")

    failed = [c for c in checks if not c["ok"]]
    if args.json:
        print(json.dumps({"checks": checks, "failed": len(failed)},
                         sort_keys=True))
    else:
        for c in checks:
            print(f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
        print(f"{len(checks) - len(failed)}/{len(checks)} bounds verified")
    return EXIT_OK if not failed else EXIT_ABORT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macbits",
        description="two-party secure computation on MAC-authenticated bits")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("deal", help="run the offline phase, write a store")
    d.add_argument("--role", required=True, help="A or B")
    g = d.add_mutually_exclusive_group(required=True)
    g.add_argument("--listen", metavar="HOST:PORT")
    g.add_argument("--connect", metavar="HOST:PORT")
    d.add_argument("--gates", type=int, required=True,
                   help="AND gates to provision for")
    d.add_argument("--inputs", type=int, default=128,
                   help="input wires per party to provision (default 128)")
    d.add_argument("--psi", type=int, default=40)
    d.add_argument("--kappa", type=int, default=128)
    d.add_argument("--out", required=True)
    d.add_argument("--force", action="store_true")
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=cmd_deal)

    e = sub.add_parser("eval", help="evaluate a circuit online")
    e.add_argument("--role", required=True)
    e.add_argument("--circuit", required=True)
    e.add_argument("--material", required=True)
    e.add_argument("--input", required=True, help="this party's input, hex")
    e.add_argument("--peer", required=True, metavar="HOST:PORT",
                   help="role A listens here, role B connects")
    e.add_argument("--outputs", metavar="SPEC",
                   help="who learns each output wire, as runs over the wires in order: "
                        "DEST:COUNT,... with DEST one of A, B, both (default: both for all)")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_eval)

    v = sub.add_parser("verify-bounds", help="Monte-Carlo bound verification")
    v.add_argument("--trials", type=int, default=20000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify_bounds)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage; map everything nonzero to 3
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except OutOfMaterial as e:
        print(f"out of material: {e}", file=sys.stderr)
        return EXIT_MATERIAL
    except (UsageError, ParseError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolAbort as e:
        print(f"protocol abort [{e.phase}]: {e.detail}", file=sys.stderr)
        return EXIT_ABORT
    except (ProtocolError, TransportError) as e:
        print(f"protocol failure: {e}", file=sys.stderr)
        return EXIT_ABORT
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
