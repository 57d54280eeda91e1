"""Traced-run report: per-layer metrics of every workload, side by side.

    python3 perfbench/report.py --seed 1 [--workloads aes128,...] [--json FILE]

For each workload it runs `run.py --trace 1` once. That run measures one
unit untraced and the same unit traced, checks that tracing changed no
output and no byte count, and reports the tracing overhead
(`trace.overhead_ratio`, traced over untraced total_s of the unit) with the
untraced unit's end-to-end metrics. The report prints both metric sets as
one table, with the overhead in seconds, and then checks the traced counts
against costs known for this code:

- `runtime_2pc.batches` is the greedy batch count of the seed evaluator:
  2,403 on aes128, 1,024 on maxchain-wan and 32 on cmp32-burst;
- `aot_proto.hashes_per_leaky` is 6 and `aand_proto.hashes_per_leaky` is 3,
  that is 6B hash calls per aOT and 3B per aAND output;
- on aes128, `offline_bytes` is within 2% of 310 MB for both directions.

It exits with 1 if a run was incorrect or a check failed. Takes about three
minutes for all three workloads on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, UNTRACED_KEY, WORKLOADS

GREEDY_BATCHES = {"aes128": 2403, "maxchain-wan": 1024, "cmp32-burst": 32}
AES_OFFLINE_BYTES = 310e6


def run_traced(workload: str, seed: int):
    """(end-to-end metrics of the untraced unit, per-layer result)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace 1 exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prefix = '{"%s"' % UNTRACED_KEY
    e2e = next(json.loads(l)[UNTRACED_KEY] for l in lines if l.startswith(prefix))
    return e2e, json.loads(lines[-1])


def checks(workload: str, e2e: dict, layer: dict) -> list:
    out = [("runtime_2pc.batches", layer["runtime_2pc.batches"], GREEDY_BATCHES[workload]),
           ("aot_proto.hashes_per_leaky", layer["aot_proto.hashes_per_leaky"], 6),
           ("aand_proto.hashes_per_leaky", layer["aand_proto.hashes_per_leaky"], 3)]
    rows = [(name, got, want, got == want) for name, got, want in out]
    if workload == "aes128":
        got = e2e["offline_bytes"]
        rows.append(("offline_bytes", got, AES_OFFLINE_BYTES,
                     abs(got / AES_OFFLINE_BYTES - 1) <= 0.02))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--json", help="also write the results to this file")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")

    results, ok = {}, True
    for w in names:
        e2e, layer = run_traced(w, args.seed)
        per_layer = {k: v["value"] for k, v in layer["metrics"].items()}
        per_layer["trace.overhead_s"] = (per_layer["trace.overhead_ratio"] - 1) * e2e["total_s"]
        results[w] = {"correct": layer["correct"], "end_to_end": e2e, "per_layer": per_layer}
        print(f"{w}: done", file=sys.stderr)

    first = results[names[0]]
    print(f"{'metric':34s}" + "".join(f"{w:>18s}" for w in names))
    for kind in ("end_to_end", "per_layer"):
        for k in first[kind]:
            print(f"{k:34s}" + "".join(f"{results[w][kind].get(k, float('nan')):18.6g}"
                                      for w in names))
    print()
    for w in names:
        rows = checks(w, results[w]["end_to_end"], results[w]["per_layer"])
        results[w]["checks"] = [dict(zip(("name", "got", "want", "ok"), r)) for r in rows]
        print(f"{w}: outputs and byte counts unchanged by tracing: "
              f"{'yes' if results[w]['correct'] else 'NO'}")
        for name, got, want, passed in rows:
            print(f"  [{'PASS' if passed else 'FAIL'}] {name} = {got:g} (want {want:g})")
            ok &= passed
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
