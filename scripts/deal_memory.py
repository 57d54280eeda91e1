"""Time one AES-shaped deal and read each party's peak memory.

    PYTHONPATH=src python3 scripts/deal_memory.py --blocks N [--seed S]

Deals the material of N oblivious AES-128 blocks,
`DealerConfig.for_gates(7200 N, 128 N, 128 N, bucket_B=4)` at kappa = 128
and psi = 40, between two forked processes joined by a socketpair, each
pinned to its own CPU when there are two. Per party it prints the deal's
wall seconds and the process's peak resident set (`ru_maxrss`) before and
after the deal: the first is the interpreter, numpy and macbits, which the
parties share with this process through the fork; the second is what a
deal of N blocks needs on top of it, and what its store holds: the aBits
that mask its input wires and one Beaver triple per AND gate.
"""

import argparse
import json
import os
import random
import resource
import socket
import sys
import time
import traceback

from macbits.dealer import DealerConfig, deal
from macbits.transport import Role, TcpChannel

AES_AND, AES_INPUTS = 7200, 128


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def party(role: Role, sock: socket.socket, cfg: DealerConfig, seed: int) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[role.value % len(cpus)]})
    before = maxrss_mib()
    ch = TcpChannel(sock, timeout=600.0)
    try:
        t0 = time.perf_counter()
        store = deal(ch, role, cfg, random.Random(2 * seed + role.value))
        deal_s = time.perf_counter() - t0
    finally:
        ch.close()
    return {"deal_s": deal_s, "rss_before_mib": before, "maxrss_mib": maxrss_mib(),
            "abits": store.remaining("abits_mine"), "triples": store.remaining("triples")}


def fork_party(role: Role, mine: socket.socket, theirs: socket.socket, cfg, seed):
    """Run party(role) in a child process; returns (pid, the read end of the
    pipe its JSON result comes back on)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            theirs.close()
            os.write(w, json.dumps(party(role, mine, cfg, seed)).encode())
            code = 0
        except BaseException:  # noqa: BLE001 - reported, then the child exits
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--blocks", type=int, default=1, help="AES blocks of material (N)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.blocks < 1:
        ap.error("--blocks must be at least 1")
    n = args.blocks
    cfg = DealerConfig.for_gates(AES_AND * n, AES_INPUTS * n, AES_INPUTS * n, bucket_B=4)

    socks = socket.socketpair()
    children = [fork_party(role, socks[role.value], socks[1 - role.value], cfg, args.seed)
                for role in Role]
    for s in socks:
        s.close()
    failed = False
    print(f"{n} AES block(s): {cfg.n_and} ANDs, {cfg.abit_demand(Role.ALICE)} aBits "
          f"per owner, B={cfg.bucket}")
    for role, (pid, r) in zip(Role, children):
        with os.fdopen(r, "rb") as fh:
            raw = fh.read()
        _, status = os.waitpid(pid, 0)
        if status or not raw:
            print(f"{role.name.lower()}: failed (wait status {status})", file=sys.stderr)
            failed = True
            continue
        got = json.loads(raw)
        print(f"{role.name.lower()}: deal {got['deal_s']:.3f} s, ru_maxrss "
              f"{got['rss_before_mib']:.1f} MiB before the deal, "
              f"{got['maxrss_mib']:.1f} MiB after; {got['abits']} aBits, "
              f"{got['triples']} triples")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
