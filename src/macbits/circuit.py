"""Boolean circuit model, Bristol-format parsing, and the AND-level schedule.

Supports both Bristol layouts: the classic three-number header line and the
newer value-list form (input value widths on line two, output widths on line
three). Gate kinds are XOR, AND, INV, and EQW; outputs occupy the last wires
of the file in declaration order, per the format convention, and the wire
count is the inputs plus the gates.

A circuit keeps its gates as one integer array, `Circuit.table`: per gate,
in file order, its kind (an index into GATE_KINDS), first input, second
input (the first again for INV and EQW) and output. The parser fills it from
the gate lines in one pass of array operations, and `Circuit.gates` lists
the same gates as (kind, inputs, output) tuples.

The one schedule is `Circuit.row_schedule`: wires renumbered as rows in
schedule order, and per AND level the level's ANDs and then its free gates
in dependency steps, as numpy arrays of rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .bitlinalg import BitVec
from .errors import ParseError, UsageError

GATE_KINDS = ("XOR", "AND", "INV", "EQW")
XOR, AND, INV, EQW = range(4)
_ARITY = (2, 2, 1, 1)
_KIND_WORDS = {"XOR": XOR, "AND": AND, "INV": INV, "EQW": EQW, "EQ": EQW}

# The runtime keeps one array row per wire, so a circuit has fewer wires than
# this.
MAX_WIRES = 1 << 31

DEST_A = "A"
DEST_B = "B"
DEST_BOTH = "both"

# In ASCII text, str.splitlines breaks lines at \n, \r\n, \r, \v, \f and
# \x1c-\x1e, and str.split also splits tokens at tabs and \x1f. With \r\n
# made \n and the rest mapped to \n and space, the text has the same lines
# and tokens, and every line ends at a \n.
_NORMAL_WS = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e\t\x1f", b"\n\n\n\n\n\n  ")
# A non-blank line from its first token on; it cannot start at a space, so
# a long run of spaces costs no backtracking.
_NONBLANK_LINE = re.compile(rb"[^ \n][^\n]*")


class Gate(NamedTuple):
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
    """Materialized circuit; gates are in topological file order. `table` is
    the (n_gates, 4) int64 gate table described above, kept read-only."""

    def __init__(self, header: CircuitHeader, table):
        self.header = header
        self.table = np.asarray(table, dtype=np.int64).reshape(-1, 4)
        self.table.flags.writeable = False
        _validate(header, self.table)

    @classmethod
    def from_text(cls, text) -> "Circuit":
        return cls(*parse_bristol(text))

    @classmethod
    def from_file(cls, path) -> "Circuit":
        with open(path, "rb") as fh:
            return cls(*parse_bristol(fh.read()))

    @cached_property
    def gates(self) -> tuple:
        """The gate table as Gate tuples, in file order. Outside the tests,
        only the benchmark's circuit helpers read it."""
        return tuple(Gate(GATE_KINDS[k], (a, b) if _ARITY[k] == 2 else (a,), o)
                     for k, a, b, o in self.table.tolist())

    @cached_property
    def row_schedule(self) -> tuple:
        """The online schedule, for an evaluator that keeps its wires as array
        rows: (rows, levels), with wire w in row rows[w] and one entry of
        `levels` per AND depth k = 0..D.

        An AND sits one level above its deepest input; XOR, INV and EQW stay
        at their deepest input's level, one step after their latest input
        made by a free gate of that level, so no step reads a row written in
        the same step. Input wires keep rows 0..n_inputs-1, and the constant
        wires n_wires (value 0) and n_wires + 1 (value 1) keep theirs; gate
        outputs take the rows between in schedule order, per level its ANDs,
        then each free step, each group in file order. So every group's
        outputs fill one slice of rows. Per level: the ANDs' (input
        rows as an (n, 2) array, first output row), or None for a level
        without ANDs, then the free gates' steps as (first input rows,
        second input rows, slice of output rows). Every free gate is an XOR
        of two rows: EQW's second input is the constant-0 wire and INV's the
        constant-1 wire."""
        h = self.header
        kind, a, b, out = self.table.T
        # A wire's key is level * big for an input or an AND output, and
        # level * big + 1 + step for a free gate's output (big exceeds any
        # step). A gate is ready after the larger of its inputs' keys, and the
        # sorted keys list the groups in schedule order: per level its ANDs,
        # then its free steps. The gates make wires n_inputs.. once each, so
        # key[w - n_inputs] is wire w's key; every input wire reads the last
        # slot, which stays 0. So the pass costs O(gates) whatever the input
        # widths.
        big = h.n_gates + 1
        key = [0] * (h.n_gates + 1)
        slot = [np.maximum(w - h.n_inputs, -1).tolist() for w in (a, b)]
        made = out - h.n_inputs
        for is_and, x, y, o in zip((kind == AND).tolist(), *slot, made.tolist()):
            k, k_y = key[x], key[y]
            if k_y > k:
                k = k_y
            key[o] = (k // big + 1) * big if is_and else k + 1
        keys = np.array(key[:-1], dtype=np.int64)[made]
        second = np.select([kind == EQW, kind == INV], [h.n_wires, h.n_wires + 1], b)
        # Sorted stably by key, the gates are in row order and each group is
        # one slice.
        order = np.argsort(keys, kind="stable")
        rows = np.arange(h.n_wires + 2)
        rows[out[order]] = np.arange(h.n_inputs, h.n_wires)
        keys, a, second = keys[order], rows[a[order]], rows[second[order]]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        levels = [[None, []] for _ in range(int(keys.max(initial=0)) // big + 1)]
        for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(keys)]):
            level, step = divmod(int(keys[lo]), big)
            at = h.n_inputs + lo
            if step == 0:
                levels[level][0] = (np.column_stack((a[lo:hi], second[lo:hi])), at)
            else:
                levels[level][1].append((a[lo:hi], second[lo:hi], slice(at, h.n_inputs + hi)))
        return rows, tuple((ands, tuple(steps)) for ands, steps in levels)

    @cached_property
    def n_and(self) -> int:
        return int(np.count_nonzero(self.table[:, 0] == AND))

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
        return Circuit(header, self.table)


def _validate(header: CircuitHeader, table: np.ndarray) -> None:
    """Check the wiring against the header. Nothing is sized by a header
    count: wires past the inputs count as defined once a gate has made them,
    the wire count must equal inputs plus gates, and it must stay below
    MAX_WIRES. A refused table names its first bad gate's fault."""
    n_gates = len(table)
    if n_gates != header.n_gates:
        raise ParseError(f"header claims {header.n_gates} gates, found {n_gates}")
    n_in, n_wires = header.n_inputs, header.n_wires
    if n_in + header.n_outputs > n_wires:
        raise ParseError("wire count below inputs plus outputs")
    _, a, b, out = table.T
    # The outputs sorted stably list each wire's first maker first.
    order = np.argsort(out, kind="stable")
    made = out[order]

    def maker(w):
        """The index of the first gate that makes wire w, or n_gates."""
        i = np.minimum(np.searchsorted(made, w), n_gates - 1)
        return np.where(made[i] == w, order[i], n_gates)

    def unready(w, gate):
        """Input w of `gate` is out of range or not made before it."""
        return (w < 0) | (w >= n_wires) | ((w >= n_in) & (maker(w) >= gate))

    gate = np.arange(n_gates)
    bad = (unready(a, gate) | unready(b, gate) | (out < n_in) | (out >= n_wires)
           | (maker(out) < gate))
    if bad.any():
        i = int(np.argmax(bad))
        _, x, y, o = table[i].tolist()
        for w in (x, y):
            if not 0 <= w < n_wires:
                raise ParseError(f"input wire {w} out of range")
            if unready(w, i):
                raise ParseError(f"wire {w} used before assignment")
        if not 0 <= o < n_wires:
            raise ParseError(f"output wire {o} out of range")
        raise ParseError(f"wire {o} assigned twice")
    # Each wire is made once now, so the outputs are all made when as many
    # distinct wires at or past the first output wire are.
    lo = n_wires - header.n_outputs
    outs = made[made >= lo].tolist()
    if len(outs) < header.n_outputs:
        gap = lo
        for w in outs:
            if w != gap:
                break
            gap += 1
        raise ParseError(f"output wire {gap} never assigned")
    if n_wires != n_in + n_gates:
        raise ParseError(f"header claims {n_wires} wires, inputs and gates make "
                         f"{n_in + n_gates}")
    if n_wires >= MAX_WIRES:
        raise ParseError(f"{n_wires} wires, the limit is {MAX_WIRES - 1}")


def parse_bristol(text):
    """Parse Bristol circuit text, as str or as bytes; returns
    (CircuitHeader, gate table), the table as `Circuit.table` holds it.

    Only ASCII text is read. Raises ParseError naming the offending line;
    `Circuit` checks the wiring.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    data = data.replace(b"\r\n", b"\n").translate(_NORMAL_WS)
    if not data.isascii():
        at = int(np.argmax(np.frombuffer(data, np.uint8) >= 0x80))
        lineno = data.count(b"\n", 0, at) + 1
        raise ParseError(f"line {lineno}: non-ASCII byte 0x{data[at]:02x}")
    head = [(data.count(b"\n", 0, m.start()) + 1, m.group().decode().split(), m.end())
            for m in islice(_NONBLANK_LINE.finditer(data), 3)]
    if not head:
        raise ParseError("empty circuit file")
    lineno, nums, end = head[0]
    try:
        vals = [int(t) for t in nums]
        if len(vals) != 2:
            raise ParseError(f"line {lineno}: expected 'n_gates n_wires'")
        if min(vals) < 0:
            raise ParseError(f"line {lineno}: negative count or width")
        n_gates, n_wires = vals
        if len(head) < 2:
            raise ParseError("missing input declaration line")
        lineno, nums, end = head[1]
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
            lineno, nums, end = head[2]
            out_vals = [int(t) for t in nums]
            if not out_vals or len(out_vals) != out_vals[0] + 1:
                raise ParseError(f"line {lineno}: malformed output value list")
            if min(out_vals) < 0:
                raise ParseError(f"line {lineno}: negative count or width")
            n_outputs = sum(out_vals[1:])
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {nums!r}") from None
    table = _gate_table(data[end + 1:], lineno + 1, n_gates)
    # More outputs than gates never pass `Circuit`'s wiring check, so the
    # destinations are sized by a count the gate lines have bounded.
    header = CircuitHeader(n_gates, n_wires, inputs_a, inputs_b, n_outputs,
                           (DEST_BOTH,) * min(n_outputs, n_gates))
    return header, table


def _gate_table(body: bytes, lineno: int, n_gates: int) -> np.ndarray:
    """The gate lines of normalized ASCII `body`, whose first line is line
    `lineno` of the file, as an (n_gates, 4) gate table. Every line is read
    at once: the token bounds come from the bytes, each non-blank line's last
    token is its kind and the others are integers. A body that fails a check
    is scanned again, line by line, to name the first bad line."""
    b = np.frombuffer(body, np.uint8)
    in_token = np.zeros(len(b) + 2, np.int8)
    in_token[1:-1] = (b != ord(" ")) & (b != ord("\n"))
    edges = np.diff(in_token)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    line = np.searchsorted(np.flatnonzero(b == ord("\n")), starts)
    last = np.flatnonzero(np.diff(line, append=-1))  # each line's last token
    count = np.diff(last, prepend=-1)  # tokens per non-blank line
    upper = np.frombuffer(body.upper(), np.uint8)
    at, width = starts[last], ends[last] - starts[last]
    kind = np.full(len(last), -1)
    for word, code in _KIND_WORDS.items():
        hit = width == len(word)
        for j, ch in enumerate(word):
            hit &= upper[np.minimum(at + j, len(upper) - 1)] == ord(ch)
        kind[hit] = code
    arity = np.array(_ARITY)[kind]
    ok = len(last) == n_gates and (kind >= 0).all() and (count == arity + 4).all()
    if ok:
        is_num = np.ones(len(starts), bool)
        is_num[last] = False
        nums = _integers(body, b, starts, ends, is_num)
        ok = nums is not None
    if ok:
        # A line's numbers: n_in, n_out, its inputs, its output.
        first = last - count + 1 - np.arange(len(last))
        ok = (nums[first] == arity).all() and (nums[first + 1] == 1).all()
    if not ok:
        _refuse_gate_lines(body.decode(), lineno, n_gates)
    return np.column_stack((kind, nums[first + 2], nums[first + count - 3],
                            nums[first + count - 2]))


def _integers(body: bytes, b: np.ndarray, starts, ends, pick):
    """int() of the picked tokens of `body` (`b` its bytes), as int64, or None
    if one is not an integer in that range. The other tokens are kind words,
    so when the body holds as many digits as the picked tokens have bytes,
    each of them is a plain decimal; of at most 18 digits, it is read from
    the bytes."""
    at, width = starts[pick], ends[pick] - starts[pick]
    digits = np.count_nonzero((b >= ord("0")) & (b <= ord("9")))
    if digits == width.sum() and width.max(initial=0) <= 18:
        nums = np.empty(len(at), np.int64)
        for w in range(1, width.max(initial=0) + 1):  # the tokens of w digits
            sel = np.flatnonzero(width == w)
            value = np.zeros(len(sel), np.int64)
            for j in range(w):
                value = value * 10 + (b[at[sel] + j] - ord("0"))
            nums[sel] = value
        return nums
    try:  # signs, digit separators, long or stray tokens: int() decides
        return np.array(body.split(), dtype=object)[pick].astype(np.int64)
    except (ValueError, OverflowError):
        return None


def _refuse_gate_lines(body: str, lineno: int, n_gates: int):
    """Raise the ParseError that names the first bad gate line of a body
    that `_gate_table` refused."""
    n = 0
    for lineno, line in enumerate(body.split("\n"), lineno):
        toks = line.split()
        if not toks:
            continue
        if len(toks) < 4:
            raise ParseError(f"line {lineno}: truncated gate")
        kind = _KIND_WORDS.get(toks[-1].upper())
        if kind is None:
            raise ParseError(f"line {lineno}: unsupported gate {toks[-1]!r}")
        try:
            n_in, n_out, *wires = map(int, toks[:-1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected integers, got {toks[:-1]!r}") from None
        if n_out != 1 or len(wires) != n_in + 1:
            raise ParseError(f"line {lineno}: bad gate wire counts")
        if n_in != _ARITY[kind]:
            raise ParseError(f"line {lineno}: {GATE_KINDS[kind]} takes {_ARITY[kind]} inputs")
        for w in wires:
            if not -(1 << 63) <= w < 1 << 63:
                raise ParseError(f"line {lineno}: wire {w} out of range")
        if n == n_gates:
            raise ParseError(f"line {lineno}: more gates than declared")
        n += 1
    raise ParseError(f"expected {n_gates} gates, file has {n}")


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
    for kind, a, b, out in zip(*circuit.table.T.tolist()):
        if kind == XOR:
            wires[out] = wires[a] ^ wires[b]
        elif kind == AND:
            wires[out] = wires[a] & wires[b]
        elif kind == INV:
            wires[out] = wires[a] ^ 1
        else:
            wires[out] = wires[a]
    return BitVec.from_bits(wires[w] for w in circuit.output_wires)
