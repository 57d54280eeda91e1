import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aes_oracle import KNOWN_VECTORS
from helpers import free_port
from macbits.aescircuit import generate_aes_circuit, to_bristol
from macbits.cli import main as cli_main
from macbits.dealer import MaterialStore
from macbits.transport import run_pair

TOY = """\
3 7
2 2 1
2 1 0 1 4 XOR
2 1 2 3 5 AND
2 1 4 5 6 XOR
"""

# a chain of 20 AND gates; far more than the tiny stores below can feed
DEEP = "20 24\n2 2 1\n" + "2 1 0 2 4 AND\n" + "".join(
    f"2 1 {w - 1} 1 {w} AND\n" for w in range(5, 24))

TINY_DEAL = ["--gates", "1", "--inputs", "2", "--kappa", "16",
             "--psi", "3"]


def deal_pair(out_a, out_b, seed_a, seed_b):
    port = free_port()
    return run_pair(
        lambda: cli_main(["deal", "--role", "A",
                          "--listen", f"127.0.0.1:{port}",
                          "--out", out_a, "--seed", str(seed_a), *TINY_DEAL]),
        lambda: cli_main(["deal", "--role", "B",
                          "--connect", f"127.0.0.1:{port}",
                          "--out", out_b, "--seed", str(seed_b), *TINY_DEAL]))


@pytest.fixture(scope="module")
def dealt(tmp_path_factory):
    d = tmp_path_factory.mktemp("stores")
    pa, pb = str(d / "a.store"), str(d / "b.store")
    assert deal_pair(pa, pb, 7, 8) == (0, 0)
    return pa, pb


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("circ") / "toy.txt"
    p.write_text(TOY)
    return str(p)


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "deal" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 3


def test_deal_rejects_bad_role(tmp_path):
    rc = cli_main(["deal", "--role", "C", "--listen", "127.0.0.1:1",
                   "--gates", "1", "--out", str(tmp_path / "x")])
    assert rc == 3


@pytest.mark.parametrize("addr", [("--listen", "nowhere"), ("--listen", "127.0.0.1:70000"),
                                  ("--connect", "127.0.0.1:70000")],
                         ids=["no-port", "listen-port-70000", "connect-port-70000"])
def test_deal_rejects_bad_address(tmp_path, addr):
    rc = cli_main(["deal", "--role", "A", *addr, "--gates", "1", "--out", str(tmp_path / "x")])
    assert rc == 3


@pytest.mark.parametrize("flag", [("--psi", "70000")], ids=["psi-70000"])
def test_deal_rejects_bad_bucket(tmp_path, flag):
    rc = cli_main(["deal", "--role", "A", "--listen", "127.0.0.1:1",
                   "--gates", "1", *flag, "--out", str(tmp_path / "x")])
    assert rc == 3


def test_deal_refuses_overwrite(tmp_path, capsys):
    target = tmp_path / "have.store"
    target.write_bytes(b"precious")
    rc = cli_main(["deal", "--role", "A", "--listen", "127.0.0.1:1",
                   "--gates", "1", "--out", str(target)])
    assert rc == 3
    assert "--force" in capsys.readouterr().err
    assert target.read_bytes() == b"precious"


def test_deal_refuses_missing_out_directory(tmp_path, capsys):
    # refused before it connects, so no peer deals a store without its pair
    target = tmp_path / "missing" / "a.store"
    rc = cli_main(["deal", "--role", "B", "--connect", f"127.0.0.1:{free_port()}",
                   "--gates", "1", "--out", str(target)])
    assert rc == 3
    assert "is not a directory" in capsys.readouterr().err
    assert not target.parent.exists()


def test_deal_is_deterministic(dealt, tmp_path):
    pa, pb = dealt
    qa, qb = str(tmp_path / "a2"), str(tmp_path / "b2")
    assert deal_pair(qa, qb, 7, 8) == (0, 0)
    with open(pa, "rb") as f1, open(qa, "rb") as f2:
        assert f1.read() == f2.read()
    with open(pb, "rb") as f1, open(qb, "rb") as f2:
        assert f1.read() == f2.read()


def _spawn(args):
    # the child imports macbits from this checkout's src/, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-m", "macbits.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def test_deal_and_eval_over_tcp(tmp_path):
    circ = tmp_path / "toy.txt"
    circ.write_text(TOY)
    pa, pb = str(tmp_path / "a.store"), str(tmp_path / "b.store")
    port = free_port()
    procs = [
        _spawn(["deal", "--role", "A", "--listen", f"127.0.0.1:{port}",
                "--out", pa, "--seed", "1", "--json", *TINY_DEAL]),
        _spawn(["deal", "--role", "B", "--connect", f"127.0.0.1:{port}",
                "--out", pb, "--seed", "2", "--json", *TINY_DEAL]),
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    for out, _ in outs:
        row = json.loads(out)
        assert row["abits"] > 0
        assert row["triples"] >= 1
    assert MaterialStore.load(pa).session_id == MaterialStore.load(pb).session_id

    # both inputs 11: output (a0^a1)^(b0&b1) = 0^1 = 1
    port = free_port()
    procs = [
        _spawn(["eval", "--role", "A", "--circuit", str(circ),
                "--material", pa, "--input", "03",
                "--peer", f"127.0.0.1:{port}", "--json"]),
        _spawn(["eval", "--role", "B", "--circuit", str(circ),
                "--material", pb, "--input", "03",
                "--peer", f"127.0.0.1:{port}", "--json"]),
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    for out, _ in outs:
        row = json.loads(out)
        assert row["output_hex"] == "01"
        assert row["output_bits"] == 1


def test_eval_routes_aes_outputs_to_bob(tmp_path):
    """`eval --outputs B:128` on both sides: Bob prints the FIPS-197
    ciphertext of Alice's key and his plaintext, and Alice prints no bits."""
    key, pt, ct = KNOWN_VECTORS[0]
    circ = tmp_path / "aes.txt"
    circ.write_text(to_bristol(generate_aes_circuit()))
    pa, pb = str(tmp_path / "a.store"), str(tmp_path / "b.store")
    deal_args = ["--gates", "7200", "--inputs", "128", "--kappa", "32", "--psi", "8"]
    port = free_port()
    procs = [_spawn(["deal", "--role", "A", "--listen", f"127.0.0.1:{port}",
                     "--out", pa, "--seed", "1", *deal_args]),
             _spawn(["deal", "--role", "B", "--connect", f"127.0.0.1:{port}",
                     "--out", pb, "--seed", "2", *deal_args])]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    port = free_port()
    procs = [_spawn(["eval", "--role", role, "--circuit", str(circ), "--material", path,
                     "--input", block.hex(), "--peer", f"127.0.0.1:{port}",
                     "--outputs", "B:128", "--json"])
             for role, path, block in (("A", pa, key), ("B", pb, pt))]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    alice, bob = (json.loads(out) for out, _ in outs)
    assert (alice["output_bits"], alice["output_hex"]) == (0, "")
    assert (bob["output_bits"], bob["output_hex"]) == (128, ct.hex())


@pytest.mark.parametrize("spec", ["B:2", "A:0", "B", "X:1", "B:1,", "b:1", "B:-1", "B:\u00b9"])
def test_eval_rejects_bad_output_spec(dealt, toy_file, capsys, spec):
    # the toy circuit has one output wire; refused before any connection
    pa, _ = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", toy_file, "--material", pa,
                   "--input", "03", "--peer", "127.0.0.1:1", "--outputs", spec])
    assert rc == 3
    assert capsys.readouterr().err.startswith("usage error: ")


def test_eval_rejects_wrong_role_store(dealt):
    _, pb = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", "unused.txt",
                   "--material", pb, "--input", "00",
                   "--peer", "127.0.0.1:1"])
    assert rc == 3


def test_eval_rejects_garbage_store(tmp_path):
    junk = tmp_path / "junk.store"
    junk.write_bytes(b"this is not a material store")
    rc = cli_main(["eval", "--role", "A", "--circuit", "unused.txt",
                   "--material", str(junk), "--input", "00",
                   "--peer", "127.0.0.1:1"])
    assert rc == 3


def test_eval_rejects_truncated_or_relabelled_store(dealt, tmp_path, capsys):
    pa, _ = dealt
    blob = Path(pa).read_bytes()
    bad = tmp_path / "bad.store"
    for data in (blob[:2], blob[:70], blob[:-1], blob[:10] + b"\x07" + blob[11:]):
        bad.write_bytes(data)
        rc = cli_main(["eval", "--role", "A", "--circuit", "unused.txt",
                       "--material", str(bad), "--input", "00",
                       "--peer", "127.0.0.1:1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("which", ["material", "circuit"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_eval_unreadable_file_is_a_usage_error(dealt, toy_file, tmp_path, capsys,
                                               which, kind):
    bad = tmp_path / "nothing-here" if kind == "missing" else tmp_path
    files = {"material": dealt[0], "circuit": toy_file, which: str(bad)}
    rc = cli_main(["eval", "--role", "A", "--circuit", files["circuit"],
                   "--material", files["material"], "--input", "03",
                   "--peer", "127.0.0.1:1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read {which} {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad_input", ["zz", "0102", "", "ff"])
def test_eval_rejects_bad_input(dealt, toy_file, bad_input):
    pa, _ = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", toy_file,
                   "--material", pa, "--input", bad_input,
                   "--peer", "127.0.0.1:1"])
    assert rc == 3


def test_eval_rejects_non_ascii_circuit(dealt, tmp_path, capsys):
    circ = tmp_path / "bad.txt"
    circ.write_bytes(TOY.replace("AND", "A\xffD").encode("latin-1"))
    pa, _ = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", str(circ),
                   "--material", pa, "--input", "03",
                   "--peer", "127.0.0.1:1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "usage error: line 4: non-ASCII byte 0xff\n"


def test_eval_rejects_bad_peer_address(dealt, toy_file):
    pa, _ = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", toy_file,
                   "--material", pa, "--input", "03", "--peer", "nohost"])
    assert rc == 3


def test_eval_rejects_a_port_of_non_ascii_digits(dealt, toy_file, capsys):
    # "\u00b2".isdigit() holds, but int() refuses it
    pa, _ = dealt
    rc = cli_main(["eval", "--role", "A", "--circuit", toy_file,
                   "--material", pa, "--input", "03", "--peer", "127.0.0.1:\u00b2"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("usage error: bad address")


def test_eval_mismatched_stores_abort(dealt, toy_file, tmp_path):
    pa, _ = dealt
    qa, qb = str(tmp_path / "a2"), str(tmp_path / "b2")
    assert deal_pair(qa, qb, 11, 12) == (0, 0)
    port = free_port()
    codes = run_pair(
        lambda: cli_main(["eval", "--role", "A", "--circuit", toy_file,
                          "--material", pa, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]),
        lambda: cli_main(["eval", "--role", "B", "--circuit", toy_file,
                          "--material", qb, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]))
    assert codes == (2, 2)


def test_eval_tampered_store_aborts(dealt, toy_file, tmp_path, capsys):
    # flip one record bit but keep the header, so the handshake passes and
    # the MAC check trips mid-protocol
    pa, pb = dealt
    sa = MaterialStore.load(pa)
    macs = sa.abits_mine[0].copy()
    macs[0, 0, -1] ^= 1  # the first bit, its MAC kept
    sa.abits_mine = (macs, sa.abits_mine[1])
    bad = str(tmp_path / "bad_a.store")
    sa.save(bad)
    port = free_port()
    codes = run_pair(
        lambda: cli_main(["eval", "--role", "A", "--circuit", toy_file,
                          "--material", bad, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]),
        lambda: cli_main(["eval", "--role", "B", "--circuit", toy_file,
                          "--material", pb, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]))
    # no fairness: the tamperer may finish before the honest side's
    # verdict, but the honest side must abort
    assert codes[1] == 2
    assert codes[0] in (0, 2)
    assert "protocol abort [" in capsys.readouterr().err


def test_eval_out_of_material(dealt, tmp_path):
    pa, pb = dealt
    circ = tmp_path / "deep.txt"
    circ.write_text(DEEP)
    port = free_port()
    codes = run_pair(
        lambda: cli_main(["eval", "--role", "A", "--circuit", str(circ),
                          "--material", pa, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]),
        lambda: cli_main(["eval", "--role", "B", "--circuit", str(circ),
                          "--material", pb, "--input", "03",
                          "--peer", f"127.0.0.1:{port}"]))
    # both stores are too small, and each side sees it before the hello
    assert codes == (4, 4)


def test_verify_bounds_smoke(capsys):
    rc = cli_main(["verify-bounds", "--trials", "400", "--seed", "0",
                   "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0
    assert len(report["checks"]) > 10
