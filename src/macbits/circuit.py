"""Boolean circuit model, Bristol-format parsing, and the AND-level schedule.

Supports both Bristol layouts: the classic three-number header line and the
newer value-list form (input value widths on line two, output widths on line
three). Gate kinds are XOR, AND, INV, and EQW; outputs occupy the last wires
of the file in declaration order, per the format convention, and the wire
count is the inputs plus the gates.

The one schedule is `Circuit.level_indices`: per AND level, the level's ANDs
and then its free gates in dependency steps, as numpy index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .bitlinalg import BitVec
from .errors import ParseError, UsageError

GATE_KINDS = ("XOR", "AND", "INV", "EQW")
_ARITY = {"XOR": 2, "AND": 2, "INV": 1, "EQW": 1}

# The runtime keeps one array row per wire, so a circuit has fewer wires than
# this.
MAX_WIRES = 1 << 31

DEST_A = "A"
DEST_B = "B"
DEST_BOTH = "both"


@dataclass(frozen=True)
class Gate:
    kind: str
    ins: tuple
    out: int


@dataclass(frozen=True)
class CircuitHeader:
    n_gates: int
    n_wires: int
    inputs_a: int
    inputs_b: int
    n_outputs: int
    output_dest: tuple

    @property
    def n_inputs(self) -> int:
        return self.inputs_a + self.inputs_b


class Circuit:
    """Materialized circuit; gates are in topological file order."""

    def __init__(self, header: CircuitHeader, gates):
        self.header = header
        self.gates = tuple(gates)
        _validate(header, self.gates)

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        return cls(*parse_bristol(text))

    @classmethod
    def from_file(cls, path) -> "Circuit":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as e:
            lineno = raw.count(b"\n", 0, e.start) + 1
            raise ParseError(f"line {lineno}: non-ASCII byte 0x{raw[e.start]:02x}") from None
        return cls.from_text(text)

    @cached_property
    def level_indices(self) -> tuple:
        """The online schedule as numpy index arrays, for an evaluator that
        keeps its wires as array rows: one entry per AND depth k = 0..D.

        An AND sits one level above its deepest input; XOR, INV and EQW stay
        at their deepest input's level, one step after their latest input
        made by a free gate of that level, so no step reads a wire written in
        the same step. Per level: the ANDs' (inputs as an (n, 2) array,
        outputs), or None for a level without ANDs, then the free gates' steps
        as (first inputs, second inputs, outputs), each in file order. Every
        free gate is an XOR of two wires: EQW's second input is the
        constant-0 wire `n_wires` and INV's the constant-1 wire
        `n_wires + 1`."""
        h = self.header
        # A wire's key is level * big for an input or an AND output, and
        # level * big + 1 + step for a free gate's output (big exceeds any
        # step). A gate is ready after the larger of its inputs' keys, and the
        # sorted keys list the groups in schedule order: per level its ANDs,
        # then its free steps. Only the wires gates make are keyed (an input's
        # key is 0), so the pass costs O(gates) whatever the input widths.
        big = h.n_gates + 1
        second = {"EQW": h.n_wires, "INV": h.n_wires + 1}
        key = {}
        get = key.get
        groups = {}  # key -> (first inputs, second inputs, outputs)
        for g in self.gates:
            a, b = g.ins[0], g.ins[-1]
            k = max(get(a, 0), get(b, 0))
            k = (k // big + 1) * big if g.kind == "AND" else k + 1
            key[g.out] = k
            if k not in groups:
                groups[k] = ([], [], [])
            ins0, ins1, outs = groups[k]
            ins0.append(a)
            ins1.append(second.get(g.kind, b))
            outs.append(g.out)
        levels = [[None, []] for _ in range(max(groups, default=0) // big + 1)]
        for k in sorted(groups):
            level, step = divmod(k, big)
            ins0, ins1, outs = (np.array(c, dtype=np.intp) for c in groups[k])
            if step == 0:
                levels[level][0] = (np.column_stack((ins0, ins1)), outs)
            else:
                levels[level][1].append((ins0, ins1, outs))
        return tuple((ands, tuple(steps)) for ands, steps in levels)

    @property
    def n_and(self) -> int:
        return sum(len(ands[1]) for ands, _ in self.level_indices if ands is not None)

    @property
    def output_wires(self) -> range:
        h = self.header
        return range(h.n_wires - h.n_outputs, h.n_wires)

    def with_output_dest(self, dests) -> "Circuit":
        dests = tuple(dests)
        if len(dests) != self.header.n_outputs:
            raise UsageError("one destination per output wire")
        if any(d not in (DEST_A, DEST_B, DEST_BOTH) for d in dests):
            raise UsageError("destinations are 'A', 'B', or 'both'")
        h = self.header
        header = CircuitHeader(h.n_gates, h.n_wires, h.inputs_a, h.inputs_b,
                               h.n_outputs, dests)
        return Circuit(header, self.gates)


def _validate(header: CircuitHeader, gates) -> None:
    """Check the wiring against the header. Nothing is sized by a header
    count: wires past the inputs count as defined once a gate has made them,
    the wire count must equal inputs plus gates, and it must stay below
    MAX_WIRES."""
    if len(gates) != header.n_gates:
        raise ParseError(f"header claims {header.n_gates} gates, found {len(gates)}")
    n_in, n_wires = header.n_inputs, header.n_wires
    if n_in + header.n_outputs > n_wires:
        raise ParseError("wire count below inputs plus outputs")
    made = set()
    for g in gates:
        for w in g.ins:
            if not 0 <= w < n_wires:
                raise ParseError(f"input wire {w} out of range")
            if w >= n_in and w not in made:
                raise ParseError(f"wire {w} used before assignment")
        if not 0 <= g.out < n_wires:
            raise ParseError(f"output wire {g.out} out of range")
        if g.out < n_in or g.out in made:
            raise ParseError(f"wire {g.out} assigned twice")
        made.add(g.out)
    for w in range(n_wires - header.n_outputs, n_wires):  # stops at the first gap
        if w not in made:
            raise ParseError(f"output wire {w} never assigned")
    if n_wires != n_in + len(gates):
        raise ParseError(f"header claims {n_wires} wires, inputs and gates make "
                         f"{n_in + len(gates)}")
    if n_wires >= MAX_WIRES:
        raise ParseError(f"{n_wires} wires, the limit is {MAX_WIRES - 1}")


def parse_bristol(text: str):
    """Parse Bristol circuit text; returns (CircuitHeader, tuple of Gates).

    Raises ParseError naming the offending line; `Circuit` checks the
    wiring.
    """
    lines = text.splitlines()
    head = list(islice(((n, toks) for n, toks in enumerate(map(str.split, lines), 1)
                        if toks), 3))
    if not head:
        raise ParseError("empty circuit file")
    lineno, nums = head[0]
    try:
        vals = [int(t) for t in nums]
        if len(vals) != 2:
            raise ParseError(f"line {lineno}: expected 'n_gates n_wires'")
        if min(vals) < 0:
            raise ParseError(f"line {lineno}: negative count or width")
        n_gates, n_wires = vals
        if len(head) < 2:
            raise ParseError("missing input declaration line")
        lineno, nums = head[1]
        io_vals = [int(t) for t in nums]
        old_style = (len(io_vals) == 3 and len(head) > 2
                     and not head[2][1][-1].lstrip("-").isdigit())
        if not old_style:
            if not io_vals or len(io_vals) != io_vals[0] + 1:
                raise ParseError(f"line {lineno}: malformed input value list")
            if len(io_vals) not in (2, 3):
                raise ParseError(f"line {lineno}: expected one or two input values")
        if min(io_vals) < 0:
            raise ParseError(f"line {lineno}: negative count or width")
        if old_style:
            inputs_a, inputs_b, n_outputs = io_vals
        else:
            inputs_a, inputs_b = io_vals[1], (io_vals[2] if len(io_vals) == 3 else 0)
            if len(head) < 3:
                raise ParseError("missing output declaration line")
            lineno, nums = head[2]
            out_vals = [int(t) for t in nums]
            if not out_vals or len(out_vals) != out_vals[0] + 1:
                raise ParseError(f"line {lineno}: malformed output value list")
            if min(out_vals) < 0:
                raise ParseError(f"line {lineno}: negative count or width")
            n_outputs = sum(out_vals[1:])
        gates = []
        for lineno, line in enumerate(lines[lineno:], lineno + 1):  # after the header
            toks = line.split()
            if not toks:
                continue
            if len(toks) < 4:
                raise ParseError(f"line {lineno}: truncated gate")
            kind = toks[-1].upper()
            if kind == "EQ":
                kind = "EQW"
            if kind not in GATE_KINDS:
                raise ParseError(f"line {lineno}: unsupported gate {toks[-1]!r}")
            nums = toks[:-1]
            n_in, n_out, *wires = map(int, nums)
            if n_out != 1 or len(wires) != n_in + 1:
                raise ParseError(f"line {lineno}: bad gate wire counts")
            if n_in != _ARITY[kind]:
                raise ParseError(f"line {lineno}: {kind} takes {_ARITY[kind]} inputs")
            if len(gates) == n_gates:
                raise ParseError(f"line {lineno}: more gates than declared")
            gates.append(Gate(kind, tuple(wires[:-1]), wires[-1]))
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {nums!r}") from None
    if len(gates) != n_gates:
        raise ParseError(f"expected {n_gates} gates, file has {len(gates)}")
    # More outputs than gates never pass `Circuit`'s wiring check, so the
    # destinations are sized by a count the gate lines have bounded.
    header = CircuitHeader(n_gates, n_wires, inputs_a, inputs_b, n_outputs,
                           (DEST_BOTH,) * min(n_outputs, n_gates))
    return header, tuple(gates)


def plain_eval(circuit: Circuit, inputs_a: BitVec, inputs_b: BitVec) -> BitVec:
    """Cleartext reference evaluation; returns the output wires in order."""
    h = circuit.header
    if inputs_a.n != h.inputs_a or inputs_b.n != h.inputs_b:
        raise UsageError(
            f"need {h.inputs_a}+{h.inputs_b} input bits, got {inputs_a.n}+{inputs_b.n}")
    wires = bytearray(h.n_wires)
    for i in range(inputs_a.n):
        wires[i] = inputs_a[i]
    for i in range(inputs_b.n):
        wires[h.inputs_a + i] = inputs_b[i]
    for g in circuit.gates:
        if g.kind == "XOR":
            wires[g.out] = wires[g.ins[0]] ^ wires[g.ins[1]]
        elif g.kind == "AND":
            wires[g.out] = wires[g.ins[0]] & wires[g.ins[1]]
        elif g.kind == "INV":
            wires[g.out] = wires[g.ins[0]] ^ 1
        else:
            wires[g.out] = wires[g.ins[0]]
    return BitVec.from_bits(wires[w] for w in circuit.output_wires)

