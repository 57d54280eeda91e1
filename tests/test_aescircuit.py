import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aes_oracle import KNOWN_VECTORS, aes128_encrypt
from macbits.aescircuit import (bits_to_block, block_to_bits,
                                generate_aes_circuit, to_bristol)
from macbits.bitlinalg import BitVec
from macbits.circuit import Circuit, plain_eval

ROOT = Path(__file__).resolve().parents[1]


def encrypt_via_circuit(circuit, key: bytes, pt: bytes) -> bytes:
    out = plain_eval(circuit, block_to_bits(key), block_to_bits(pt))
    return bits_to_block(out)


def test_shape():
    c = generate_aes_circuit()
    h = c.header
    assert (h.inputs_a, h.inputs_b, h.n_outputs) == (128, 128, 128)
    assert h.n_gates == 42_784
    assert c.n_and == 7200  # 36 ANDs per S-box, 200 S-boxes


def test_and_levels():
    c = generate_aes_circuit()
    widths = [len(ands[1]) for ands, _ in c.level_indices if ands is not None]
    assert len(widths) == 40
    assert max(widths) == 360
    assert sum(widths) == c.n_and == 7200


@pytest.mark.parametrize("key,pt,ct", KNOWN_VECTORS)
def test_known_vectors(key, pt, ct):
    c = generate_aes_circuit()
    assert encrypt_via_circuit(c, key, pt) == ct


def test_agrees_with_table_oracle_on_random_blocks():
    c = generate_aes_circuit()
    rng = random.Random(0)
    for _ in range(20):
        key = rng.randbytes(16)
        pt = rng.randbytes(16)
        assert encrypt_via_circuit(c, key, pt) == aes128_encrypt(key, pt)


def test_bristol_round_trip():
    c = generate_aes_circuit()
    back = Circuit.from_text(to_bristol(c))
    assert back.header == c.header
    assert back.gates == c.gates
    key, pt, ct = KNOWN_VECTORS[0]
    assert encrypt_via_circuit(back, key, pt) == ct


def test_block_packing():
    block = bytes(range(16))
    assert bits_to_block(block_to_bits(block)) == block
    with pytest.raises(ValueError):
        block_to_bits(bytes(15))
    with pytest.raises(ValueError):
        bits_to_block(BitVec(64, 0))


def test_gen_aes_circuit_script_self_check(tmp_path):
    """scripts/gen_aes_circuit.py --check writes the netlist, parses the file
    back and checks the FIPS-197 vector."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "aes128.txt"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gen_aes_circuit.py"),
         "--out", str(out), "--check"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "self-check ok" in proc.stdout
    assert Circuit.from_file(out).header.n_gates == 42_784
