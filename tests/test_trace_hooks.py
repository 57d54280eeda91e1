"""The benchmark's trace hooks still find what they wrap.

`perfbench/spans.install` wraps `macbits` functions by module and name, and
`perfbench/report.py` reads the spans and counters they record. This test
runs `install` and then a small traced in-process `deal` in a subprocess (the
wrapping is process-global), so a rename or a changed argument position that
would break `--trace 1` fails here instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, random, sys
import link, spans
from macbits.abit_proto import tau_for
from macbits.dealer import DealerConfig, deal
from macbits.transport import Role, memory_pair, run_pair

tracer = spans.Tracer()
spans.install(tracer, link.LinkChannel)
tracer.set_phase("offline")
cfg = DealerConfig.for_gates(40, 4, 4, kappa=16, psi=8)
a, b = memory_pair(timeout=60.0)
run_pair(lambda: deal(a, Role.ALICE, cfg, random.Random(1)),
         lambda: deal(b, Role.BOB, cfg, random.Random(2)),
         timeout=60.0, channels=(a, b))
json.dump({"spans": {k: v["offline"][0] for k, v in tracer.summary().items()},
           "counts": dict(tracer.counts), "bitvec_new": tracer.bitvec_new,
           "bucket": cfg.bucket_for(40), "tau": tau_for(cfg.kappa),
           "demand": {str(r): cfg.abit_demand(r) for r in Role}}, sys.stdout)
"""

SPANS = ("aot_proto.laot", "aot_proto.combine", "aand_proto.laand",
         "aand_proto.combine", "bitlinalg.transpose", "bitlinalg.matmul")


def test_spans_install_and_record_a_deal():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    # install looks every wrapped name up, so a missing one fails the run
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name in SPANS:
        assert got["spans"].get(name, 0) >= 1, name
    # argument 1 is the leaky batch and argument 2 the bucket size: two
    # directions (or owners) of 40 outputs each
    bkt = got["bucket"]
    assert got["counts"]["aot_proto.leaky"] == got["counts"]["aand_proto.leaky"] == 2 * 40 * bkt
    assert got["counts"]["aot_proto.outputs"] == got["counts"]["aand_proto.outputs"] == 2 * 40
    # produce_abits(ch, role, owner, count, ...) counts each owner's bits once
    for owner in ("alice", "bob"):
        assert got["counts"][f"abit_proto.bits.{owner}"] == got["demand"][owner], owner
    # DealerOt.send(self, pairs) counts len(pairs): 2*tau seed OTs per owner
    assert got["counts"]["base_ot.seed_ots"] == 4 * got["tau"] == 472
    # the offline path runs on uint8 rows, the global keys included: a deal
    # builds no BitVec at all
    assert got["bitvec_new"] == 0, got["bitvec_new"]
