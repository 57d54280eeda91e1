"""Write the generated AES-128 netlist to a Bristol-format circuit file.

The optional self-check evaluates the freshly written netlist in the clear
against the standard FIPS-197 vector before anything downstream trusts it.
"""

import argparse
import sys

import numpy as np

from macbits.aescircuit import (bits_to_block, block_to_bits,
                                generate_aes_circuit, to_bristol)
from macbits.circuit import GATE_KINDS, Circuit, plain_eval

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="aes128.txt")
    ap.add_argument("--check", action="store_true",
                    help="re-parse the written file and verify the FIPS vector")
    args = ap.parse_args()

    circuit = generate_aes_circuit()
    with open(args.out, "w") as f:
        f.write(to_bristol(circuit))
    counts = np.bincount(circuit.table[:, 0], minlength=len(GATE_KINDS))
    kinds = sorted((k, n) for k, n in zip(GATE_KINDS, counts.tolist()) if n)
    print(f"{args.out}: {circuit.header.n_gates} gates "
          f"({', '.join(f'{k} {n}' for k, n in kinds)}), "
          f"{circuit.header.n_wires} wires")

    if args.check:
        back = Circuit.from_file(args.out)
        out = plain_eval(back, block_to_bits(FIPS_KEY), block_to_bits(FIPS_PT))
        if bits_to_block(out) != FIPS_CT:
            print("self-check FAILED: FIPS-197 vector mismatch", file=sys.stderr)
            return 2
        print("self-check ok: FIPS-197 vector matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
