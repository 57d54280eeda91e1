import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aes_oracle import KNOWN_VECTORS, SBOX, aes128_encrypt
from macbits.aescircuit import (_Net, _sbox_gates, bits_to_block, block_to_bits,
                                generate_aes_circuit, to_bristol)
from macbits.bitlinalg import BitVec
from macbits.circuit import Circuit, CircuitHeader, plain_eval

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of the netlist's Bristol text (1,073,162 bytes), and of its parsed
# schedule: every array of `row_schedule`'s levels in order, mapped back from
# rows to wires, as little-endian int64 (per level the ANDs' input pairs and
# outputs, then per step its two inputs and its outputs).
NETLIST_SHA256 = "40ee99184d3609ec37a28da86d21bad6b9da0525d2115a868df47133df541cd6"
SCHEDULE_SHA256 = "38eb7f04e20e4051384c6883a6e706681d2ff6c0ea3c6d609e2240009508ad97"


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
    widths = [len(ands[0]) for ands, _ in c.row_schedule[1] if ands is not None]
    assert len(widths) == 40
    assert max(widths) == 360
    assert sum(widths) == c.n_and == 7200


def test_sbox_matches_the_table():
    """The S-box alone, built on 8 input wires, against FIPS-197's table on
    all 256 bytes."""
    net = _Net(8)
    for w in _sbox_gates(net, tuple(range(8))):
        net.eqw(w)
    c = Circuit(CircuitHeader(len(net.table) // 4, net.next, 8, 0, 8, ("both",) * 8),
                net.table)
    assert c.n_and == 36
    for x in range(256):
        assert plain_eval(c, BitVec(8, x), BitVec(0)).to_bytes() == bytes([SBOX[x]])


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


def test_netlist_bytes_are_pinned():
    """The same bytes on a build and on a rebuild after the cache is
    cleared: nothing a build keeps outlives it."""
    digests = []
    for _ in range(2):
        text = to_bristol(generate_aes_circuit())
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        generate_aes_circuit.cache_clear()
    assert digests == [NETLIST_SHA256] * 2


def test_schedule_of_the_parsed_netlist_is_pinned():
    c = Circuit.from_text(to_bristol(generate_aes_circuit()))
    rows, levels = c.row_schedule
    wire = np.argsort(rows)
    digest = hashlib.sha256()
    for ands, steps in levels:
        arrays = [wire[x] for step in steps for x in step]
        if ands is not None:
            ins, o0 = ands
            arrays[:0] = [wire[ins], wire[o0:o0 + len(ins)]]
        for arr in arrays:
            digest.update(np.asarray(arr, dtype="<i8").tobytes())
    assert len(levels) == 41
    assert digest.hexdigest() == SCHEDULE_SHA256


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
