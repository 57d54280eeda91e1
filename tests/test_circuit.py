import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, random_inputs
from macbits.aescircuit import to_bristol
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
    ("1 4\n2 -1 3\n1 1\n2 1 0 1 3 XOR\n", "line 2: negative"),
    ("1 3\n2 1 1\n1 -5\n2 1 0 1 2 AND\n", "line 3: negative"),
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
    ("1 99999999999999\n1 1\n1 1\n2 1 0 0 2 AND\n", "never assigned"),
    ("1 3\n2 1 1\n1 99999999999999\n2 1 0 1 2 AND\n", "below inputs plus outputs"),
    ("1 5\n1 2\n1 1\n2 1 0 1 4 AND\n", "inputs and gates make 3"),
    # wired consistently, but past the runtime's one array row per wire
    ("1 100000000000001\n2 50000000000000 50000000000000\n1 1\n"
     "2 1 0 1 100000000000000 AND\n", "the limit is 2147483647"),
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
    h = c.header
    gate_of = {g.out: g for g in c.gates}
    pos = {g.out: i for i, g in enumerate(c.gates)}
    second = {"EQW": h.n_wires, "INV": h.n_wires + 1}
    level = dict.fromkeys(range(h.n_inputs), 0)  # wire made so far -> its level
    step = {}  # wire made by a free gate -> its step within its level
    scheduled = []
    for k, (ands, steps) in enumerate(c.level_indices):
        assert (ands is None) == (k == 0)
        if ands is not None:
            ins, outs = ands
            for (a, b), out in zip(ins.tolist(), outs.tolist()):
                g = gate_of[out]
                assert g.kind == "AND" and g.ins == (a, b)
                assert all(w in level for w in g.ins)
                assert max(level[w] for w in g.ins) == k - 1
            level.update(dict.fromkeys(outs.tolist(), k))
            scheduled.append(outs.tolist())
        for s, (a, b, outs) in enumerate(steps):
            for a_w, b_w, out in zip(a.tolist(), b.tolist(), outs.tolist()):
                g = gate_of[out]
                assert g.kind != "AND"
                assert (a_w, b_w) == (g.ins[0], second.get(g.kind, g.ins[-1]))
                assert all(w in level for w in g.ins)
                assert max(level[w] for w in g.ins) == k
                assert 1 + max(step[w] if w in step and level[w] == k else -1
                               for w in g.ins) == s
            level.update(dict.fromkeys(outs.tolist(), k))
            step.update(dict.fromkeys(outs.tolist(), s))
            scheduled.append(outs.tolist())
    for group in scheduled:
        assert [pos[w] for w in group] == sorted(pos[w] for w in group)
    assert sorted(w for group in scheduled for w in group) == sorted(gate_of)
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
    for ands, steps in c.level_indices:
        if ands is not None:
            ins, outs = ands
            w[outs] = w[ins[:, 0]] & w[ins[:, 1]]
        for a, b, out in steps:
            assert not set(out) & (set(a) | set(b))
            w[out] = w[a] ^ w[b]
    assert w[list(c.output_wires)].tolist() == plain_eval(c, xa, xb).bits()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 150), st.integers(1, 6),
       st.integers(0, 6))
def test_bristol_text_round_trips(seed, n_gates, inputs_a, inputs_b):
    c = random_circuit(random.Random(seed), n_gates, inputs_a, inputs_b)
    back = Circuit.from_text(to_bristol(c))
    assert back.gates == c.gates and back.header == c.header
    assert len(back.level_indices) == len(c.level_indices)
    for (ands1, steps1), (ands2, steps2) in zip(back.level_indices, c.level_indices):
        assert (ands1 is None) == (ands2 is None)
        for x, y in zip(ands1 or (), ands2 or ()):
            assert np.array_equal(x, y)
        assert len(steps1) == len(steps2)
        for st1, st2 in zip(steps1, steps2):
            assert all(np.array_equal(x, y) for x, y in zip(st1, st2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_random_circuits_parse_and_evaluate(seed, n_gates):
    rng = random.Random(seed)
    c = random_circuit(rng, n_gates)
    xa, xb = random_inputs(c, rng)
    out = plain_eval(c, xa, xb)
    assert out.n == c.header.n_outputs
