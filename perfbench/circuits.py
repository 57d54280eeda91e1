"""Bristol-text circuit generators for the benchmark workloads, plus the
structural counts the benchmark reports for any parsed circuit.

Every generator returns Bristol text in the value-list layout; the
benchmark parses it with `Circuit.from_text`, the same path `macbits eval`
takes for a circuit file. Inputs are little-endian words: bit j of a word
sits on the j-th wire of its block. The outputs are EQW copies on the last
wires, as the format requires.
"""

from __future__ import annotations


class _Builder:
    """Gate list with sequential wire numbering after the input wires."""

    def __init__(self, n_inputs: int):
        self.next = n_inputs
        self.lines = []
        self.n_gates = 0

    def _emit(self, kind: str, *ins: int) -> int:
        out = self.next
        self.next += 1
        self.n_gates += 1
        self.lines.append(f"{len(ins)} 1 {' '.join(map(str, ins))} {out} {kind}")
        return out

    def xor(self, a: int, b: int) -> int:
        return self._emit("XOR", a, b)

    def and_(self, a: int, b: int) -> int:
        return self._emit("AND", a, b)

    def inv(self, a: int) -> int:
        return self._emit("INV", a)

    def eqw(self, a: int) -> int:
        return self._emit("EQW", a)

    def less_than(self, x, y) -> int:
        """[x < y] for little-endian words: the borrow out of x - y, one AND
        per bit. borrow' = maj(~x, y, borrow) = y ^ ((y ^ ~x) & (y ^ borrow))."""
        borrow = self.and_(self.inv(x[0]), y[0])
        for xj, yj in zip(x[1:], y[1:]):
            p = self.xor(yj, self.inv(xj))
            q = self.xor(yj, borrow)
            borrow = self.xor(yj, self.and_(p, q))
        return borrow

    def mux(self, sel: int, if0, if1) -> list:
        """sel ? if1 : if0, bit by bit: if0 ^ (sel & (if0 ^ if1))."""
        return [self.xor(a, self.and_(sel, self.xor(a, b)))
                for a, b in zip(if0, if1)]

    def bristol(self, inputs_a: int, inputs_b: int, outputs) -> str:
        outs = [self.eqw(w) for w in outputs]
        assert outs == list(range(self.next - len(outs), self.next))
        head = [f"{self.n_gates} {self.next}", f"2 {inputs_a} {inputs_b}",
                f"1 {len(outs)}", ""]
        return "\n".join(head + self.lines) + "\n"


def maxchain_bristol(width: int = 16, words: int = 32) -> str:
    """Running maximum of Alice's word and Bob's `words` words: per step a
    ripple-borrow compare and a mux, so each step adds width+1 to the AND
    depth and the steps cannot overlap."""
    b = _Builder(width + words * width)
    cur = list(range(width))
    for k in range(words):
        w = list(range(width + k * width, width + (k + 1) * width))
        cur = b.mux(b.less_than(cur, w), cur, w)
    return b.bristol(width, words * width, cur)


def cmp_bristol(width: int = 32) -> str:
    """[x > y] for Alice's x and Bob's y, computed as [y < x]."""
    b = _Builder(2 * width)
    x = list(range(width))
    y = list(range(width, 2 * width))
    return b.bristol(width, width, [b.less_than(y, x)])


def maxchain_reference(a: int, words) -> int:
    return max([a, *words])


def cmp_reference(x: int, y: int) -> int:
    return int(x > y)


def and_depth(circuit) -> int:
    """Longest chain of AND gates from any input to any wire."""
    depth = [0] * circuit.header.n_wires
    for g in circuit.gates:
        d = max(depth[w] for w in g.ins)
        depth[g.out] = d + 1 if g.kind == "AND" else d
    return max(depth, default=0)


def greedy_batches(circuit, chunk_size: int = 1024) -> int:
    """AND batches `Runtime.evaluate` runs: it cuts a batch at every gate
    that reads a pending AND output and at every chunk boundary."""
    batches = 0
    gates = circuit.gates
    for lo in range(0, len(gates), chunk_size):
        open_batch, pending = False, set()
        for g in gates[lo:lo + chunk_size]:
            if any(w in pending for w in g.ins):
                batches += open_batch
                open_batch, pending = False, set()
            if g.kind == "AND":
                open_batch = True
                pending.add(g.out)
        batches += open_batch
    return batches
