"""Boolean circuit model, Bristol-format parsing, and the AND-level schedule.

Supports both Bristol layouts: the classic three-number header line and the
newer value-list form (input value widths on line two, output widths on line
three). Gate kinds are XOR, AND, INV, and EQW; outputs occupy the last wires
of the file in declaration order, per the format convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitlinalg import BitVec
from .errors import ParseError, UsageError

GATE_KINDS = ("XOR", "AND", "INV", "EQW")
_ARITY = {"XOR": 2, "AND": 2, "INV": 1, "EQW": 1}

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
        header, it = parse_bristol(text)
        return cls(header, it)

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
    def levels(self) -> tuple:
        """The online schedule: one (ands, frees) pair of gate tuples per AND
        depth k = 0..D, each in file order. An AND sits one level above its
        deepest input; XOR, INV and EQW stay at their deepest input's level,
        so every AND of a level can be opened in the same rounds."""
        depth = [0] * self.header.n_wires
        ands, frees = [[]], [[]]
        for g in self.gates:
            k = max(depth[w] for w in g.ins)
            if g.kind == "AND":
                k += 1
                if k == len(ands):
                    ands.append([])
                    frees.append([])
                ands[k].append(g)
            else:
                frees[k].append(g)
            depth[g.out] = k
        return tuple((tuple(a), tuple(f)) for a, f in zip(ands, frees))

    @cached_property
    def level_indices(self) -> tuple:
        """`levels` as numpy index arrays, for an evaluator that keeps its
        wires as array rows. Per level: the ANDs' (inputs as an (n, 2)
        array, outputs), or None for a level without ANDs, then the free
        gates as steps of (first inputs, second inputs, outputs), where no
        step reads a wire written in the same step. Every free gate is an XOR
        of two wires: EQW's second input is the constant-0 wire `n_wires`
        and INV's the constant-1 wire `n_wires + 1`."""
        second = {"EQW": self.header.n_wires, "INV": self.header.n_wires + 1}

        def arrays(cols):
            return tuple(np.array(c, dtype=np.intp) for c in cols)

        out = []
        for ands, frees in self.levels:
            step_of, steps = {}, []
            for g in frees:
                s = 1 + max(step_of.get(w, -1) for w in g.ins)
                step_of[g.out] = s
                if s == len(steps):
                    steps.append(([], [], []))
                ins0, ins1, outs = steps[s]
                ins0.append(g.ins[0])
                ins1.append(second.get(g.kind, g.ins[-1]))
                outs.append(g.out)
            ia = arrays(([g.ins for g in ands], [g.out for g in ands])) if ands else None
            out.append((ia, tuple(arrays(st) for st in steps)))
        return tuple(out)

    @property
    def n_and(self) -> int:
        return sum(len(a) for a, _ in self.levels)

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
    if len(gates) != header.n_gates:
        raise ParseError(f"header claims {header.n_gates} gates, found {len(gates)}")
    if header.n_inputs + header.n_outputs > header.n_wires:
        raise ParseError("wire count below inputs plus outputs")
    defined = bytearray(header.n_wires)
    for w in range(header.n_inputs):
        defined[w] = 1
    for g in gates:
        for w in g.ins:
            if not 0 <= w < header.n_wires:
                raise ParseError(f"input wire {w} out of range")
            if not defined[w]:
                raise ParseError(f"wire {w} used before assignment")
        if not 0 <= g.out < header.n_wires:
            raise ParseError(f"output wire {g.out} out of range")
        if defined[g.out]:
            raise ParseError(f"wire {g.out} assigned twice")
        defined[g.out] = 1
    for w in range(header.n_wires - header.n_outputs, header.n_wires):
        if not defined[w]:
            raise ParseError(f"output wire {w} never assigned")


def _numbered_tokens(text):
    if hasattr(text, "read"):
        text = text.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            yield lineno, toks


def _ints(toks, lineno):
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {toks!r}") from None


def parse_bristol(text):
    """Parse Bristol circuit text; returns (CircuitHeader, gate iterator).

    The iterator validates lazily and raises ParseError with the offending
    line number; counts are checked once it is exhausted.
    """
    lines = _numbered_tokens(text)
    try:
        lineno, toks = next(lines)
    except StopIteration:
        raise ParseError("empty circuit file") from None
    vals = _ints(toks, lineno)
    if len(vals) != 2:
        raise ParseError(f"line {lineno}: expected 'n_gates n_wires'")
    n_gates, n_wires = vals

    try:
        lineno2, toks2 = next(lines)
    except StopIteration:
        raise ParseError("missing input declaration line") from None
    rest = list(lines)
    io_vals = _ints(toks2, lineno2)
    old_style = (len(io_vals) == 3 and rest
                 and not rest[0][1][-1].lstrip("-").isdigit())
    if old_style:
        inputs_a, inputs_b, n_outputs = io_vals
        gate_lines = rest
    else:
        if not io_vals or len(io_vals) != io_vals[0] + 1:
            raise ParseError(f"line {lineno2}: malformed input value list")
        widths = io_vals[1:]
        if len(widths) == 1:
            inputs_a, inputs_b = widths[0], 0
        elif len(widths) == 2:
            inputs_a, inputs_b = widths
        else:
            raise ParseError(f"line {lineno2}: expected one or two input values")
        if not rest:
            raise ParseError("missing output declaration line")
        lineno3, toks3 = rest[0]
        out_vals = _ints(toks3, lineno3)
        if not out_vals or len(out_vals) != out_vals[0] + 1:
            raise ParseError(f"line {lineno3}: malformed output value list")
        n_outputs = sum(out_vals[1:])
        gate_lines = rest[1:]

    header = CircuitHeader(n_gates, n_wires, inputs_a, inputs_b, n_outputs,
                           (DEST_BOTH,) * n_outputs)

    def gates():
        seen = 0
        for lineno_g, toks_g in gate_lines:
            if len(toks_g) < 4:
                raise ParseError(f"line {lineno_g}: truncated gate")
            kind = toks_g[-1].upper()
            if kind == "EQ":
                kind = "EQW"
            if kind not in GATE_KINDS:
                raise ParseError(f"line {lineno_g}: unsupported gate {toks_g[-1]!r}")
            nums = _ints(toks_g[:-1], lineno_g)
            n_in, n_out = nums[0], nums[1]
            wires = nums[2:]
            if n_out != 1 or len(wires) != n_in + 1:
                raise ParseError(f"line {lineno_g}: bad gate wire counts")
            if n_in != _ARITY[kind]:
                raise ParseError(f"line {lineno_g}: {kind} takes {_ARITY[kind]} inputs")
            seen += 1
            if seen > n_gates:
                raise ParseError(f"line {lineno_g}: more gates than declared")
            yield Gate(kind, tuple(wires[:-1]), wires[-1])
        if seen != n_gates:
            raise ParseError(f"expected {n_gates} gates, file has {seen}")

    return header, gates()


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

