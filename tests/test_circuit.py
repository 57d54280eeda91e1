import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, random_inputs
from macbits.bitlinalg import BitVec
from macbits.circuit import DEST_A, DEST_B, DEST_BOTH, Circuit, plain_eval
from macbits.errors import ParseError, UsageError

OLD_STYLE = """\
3 7
2 2 1
2 1 0 1 4 XOR
2 1 2 3 5 AND
2 1 4 5 6 XOR
"""

NEW_STYLE = """\
3 7
2 2 2
1 1
2 1 0 1 4 XOR
2 1 2 3 5 AND
2 1 4 5 6 XOR
"""


def ref(a0, a1, b0, b1):
    return (a0 ^ a1) ^ (b0 & b1)


@pytest.mark.parametrize("text", [OLD_STYLE, NEW_STYLE])
def test_parse_both_header_styles(text):
    c = Circuit.from_text(text)
    h = c.header
    assert (h.n_gates, h.n_wires) == (3, 7)
    assert (h.inputs_a, h.inputs_b, h.n_outputs) == (2, 2, 1)
    assert h.output_dest == (DEST_BOTH,)
    assert c.n_and == 1
    assert list(c.output_wires) == [6]
    assert [g.kind for g in c.gates] == ["XOR", "AND", "XOR"]


def test_plain_eval_truth_table():
    c = Circuit.from_text(OLD_STYLE)
    for v in range(16):
        a = BitVec(2, v & 3)
        b = BitVec(2, v >> 2)
        out = plain_eval(c, a, b)
        assert out.n == 1
        assert out[0] == ref(a[0], a[1], b[0], b[1])


def test_plain_eval_checks_widths():
    c = Circuit.from_text(OLD_STYLE)
    with pytest.raises(UsageError):
        plain_eval(c, BitVec(3, 0), BitVec(2, 0))


def test_single_party_value_list():
    text = "1 3\n1 2\n1 1\n2 1 0 1 2 AND\n"
    c = Circuit.from_text(text)
    assert (c.header.inputs_a, c.header.inputs_b) == (2, 0)
    assert c.header.n_outputs == 1


def test_inv_eqw_and_eq_alias():
    text = "2 4\n1 1 2\n1 1 0 2 INV\n1 1 1 3 EQ\n"
    c = Circuit.from_text(text)
    assert [g.kind for g in c.gates] == ["INV", "EQW"]
    assert plain_eval(c, BitVec(1, 1), BitVec(1, 1)).bits() == [0, 1]
    assert plain_eval(c, BitVec(1, 0), BitVec(1, 0)).bits() == [1, 0]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("x 7\n2 2 1\n", "line 1"),
    ("1 3\n2 2\n", "malformed input value list"),
    ("1 4\n1 2\n", "missing output"),
    ("1 3\n1 2\n1 x\n2 1 0 1 2 AND\n", "line 3"),
    ("1 7\n2 2 1\n2 1 0 1 4 NAND\n", "unsupported gate"),
    ("1 7\n2 2 1\n2 1 XOR\n", "truncated gate"),
    ("1 7\n2 2 1\n1 1 0 4 XOR\n", "XOR takes 2 inputs"),
    ("1 7\n2 2 1\n2 2 0 1 4 XOR\n", "bad gate wire counts"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as e:
        Circuit.from_text(text)
    assert fragment in str(e.value)


@pytest.mark.parametrize("text,fragment", [
    ("2 7\n2 2 1\n2 1 0 1 4 XOR\n", "expected 2 gates"),
    ("1 7\n2 2 1\n2 1 0 1 4 XOR\n2 1 4 4 5 XOR\n", "more gates"),
    ("1 6\n2 2 1\n2 1 0 5 4 XOR\n", "used before assignment"),
    ("2 7\n2 2 1\n2 1 0 1 4 XOR\n2 1 0 1 4 XOR\n", "assigned twice"),
    ("1 6\n2 2 2\n2 1 0 1 4 XOR\n", "never assigned"),
    ("1 3\n2 2 2\n2 1 0 1 2 XOR\n", "below inputs plus outputs"),
])
def test_structural_errors(text, fragment):
    with pytest.raises(ParseError) as e:
        Circuit.from_text(text)
    assert fragment in str(e.value)


def test_from_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(OLD_STYLE)
    c = Circuit.from_file(p)
    assert c.header.n_gates == 3


def test_output_destinations():
    c = Circuit.from_text(OLD_STYLE)
    routed = c.with_output_dest([DEST_A])
    assert routed.header.output_dest == (DEST_A,)
    assert c.header.output_dest == (DEST_BOTH,)  # original untouched
    with pytest.raises(UsageError):
        c.with_output_dest([DEST_A, DEST_B])
    with pytest.raises(UsageError):
        c.with_output_dest(["C"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 150))
def test_levels_schedule_each_gate_once_after_its_inputs(seed, n_gates):
    c = random_circuit(random.Random(seed), n_gates)
    pos = {g: i for i, g in enumerate(c.gates)}
    made = dict.fromkeys(range(c.header.n_inputs), 0)  # wire -> its level
    scheduled = []
    for k, (ands, frees) in enumerate(c.levels):
        for part in (ands, frees):
            assert [pos[g] for g in part] == sorted(pos[g] for g in part)
        for g in ands:
            assert g.kind == "AND" and all(w in made for w in g.ins)
            assert max(made[w] for w in g.ins) == k - 1
        made.update((g.out, k) for g in ands)
        for g in frees:
            assert g.kind != "AND" and all(w in made for w in g.ins)
            assert max(made[w] for w in g.ins) == k
            made[g.out] = k
        scheduled += ands + frees
    assert len(scheduled) == len(c.gates) and set(scheduled) == set(c.gates)
    assert c.n_and == sum(g.kind == "AND" for g in c.gates)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 150))
def test_level_indices_evaluate_like_plain_eval(seed, n_gates):
    """Running the index arrays with free gates as XORs against the two
    constant wires, one array operation per AND level and per step,
    computes what plain_eval computes; no step reads its own outputs."""
    rng = random.Random(seed)
    c = random_circuit(rng, n_gates)
    xa, xb = random_inputs(c, rng)
    h = c.header
    w = np.zeros(h.n_wires + 2, np.uint8)
    w[h.n_wires + 1] = 1
    w[:h.n_inputs] = xa.bits() + xb.bits()
    assert len(c.level_indices) == len(c.levels)
    for (ands, steps), (gates, frees) in zip(c.level_indices, c.levels):
        assert (ands is None) == (not gates)
        if ands is not None:
            ins, outs = ands
            w[outs] = w[ins[:, 0]] & w[ins[:, 1]]
        assert sum(len(out) for _, _, out in steps) == len(frees)
        for a, b, out in steps:
            assert not set(out) & (set(a) | set(b))
            w[out] = w[a] ^ w[b]
    assert w[list(c.output_wires)].tolist() == plain_eval(c, xa, xb).bits()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_random_circuits_parse_and_evaluate(seed, n_gates):
    rng = random.Random(seed)
    c = random_circuit(rng, n_gates)
    xa, xb = random_inputs(c, rng)
    out = plain_eval(c, xa, xb)
    assert out.n == c.header.n_outputs
