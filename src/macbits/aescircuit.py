"""AES-128 encryption as a Boolean circuit.

The S-box inverts bytes in a tower of quadratic extensions
GF(2) -> GF(4) -> GF(16) -> GF(256), which needs 36 AND gates per byte;
everything else (basis-change matrices, the affine map, MixColumns, the
key schedule XORs) is linear. Party A supplies the 128-bit key, party B
the plaintext block, and the ciphertext lands on the last 128 wires.

Bit conventions: bit j of byte i sits at position 8*i + j (low bit first),
matching BitVec.from_bytes, so whole blocks convert with from_bytes/to_bytes.
"""

from __future__ import annotations

import functools

from .bitlinalg import BitVec
from .circuit import AND, EQW, GATE_KINDS, INV, XOR, Circuit, CircuitHeader

# The tower: GF(4) holds a1*u + a0 in 2 bits with u^2 = u + 1, GF(16) holds
# b1*Z + b0 in 4 bits with Z^2 = Z + u, and GF(256) holds c1*Y + c0 in 8 bits
# with Y^2 = Y + lambda, lambda = 8 (that is u*Z). Each matrix below is a
# tuple of row masks, output bit i = parity(row i & input), inputs low bit
# first. _M_ROWS takes an AES byte into the tower: its column j is theta^j,
# theta = 0x7A being the root of x^8 + x^4 + x^3 + x + 1 whose pair of
# matrices has the fewest ones. _AM_ROWS takes a tower element back and
# applies the S-box's affine map without its constant 0x63. _LAMBDA_ROWS
# multiplies a GF(16) element by lambda. tests/test_aescircuit.py checks the
# S-box they give on all 256 bytes.
_M_ROWS = (5, 194, 36, 202, 162, 114, 126, 160)
_AM_ROWS = (53, 7, 3, 117, 57, 60, 208, 84)
_LAMBDA_ROWS = (12, 4, 10, 15)


# ---------------------------------------------------------------------------
# Gate-level builders. Field elements are tuples of wire ids, low bit first;
# GF(16) is (low GF4, high GF4) concatenated and GF(256) likewise.


class _Net:
    def __init__(self, n_inputs: int):
        self.table = []  # flat: kind, first input, second input, output per gate
        self.next = n_inputs
        self.programs = {}  # (matrix rows, input width) -> its XOR program

    def _emit(self, kind: int, a: int, b: int) -> int:
        w = self.next
        self.next += 1
        self.table += (kind, a, b, w)
        return w

    def xor(self, a: int, b: int) -> int:
        return self._emit(XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        return self._emit(AND, a, b)

    def inv(self, a: int) -> int:
        return self._emit(INV, a, a)

    def eqw(self, a: int) -> int:
        return self._emit(EQW, a, a)

    def xor_vec(self, a, b):
        return tuple(self.xor(x, y) for x, y in zip(a, b))


def _xor_program(rows, width: int):
    """XOR program computing out_i = parity(rows[i] & bits) for `width`
    input bits.

    Greedy pair sharing: repeatedly materialize the input pair that appears
    in the most rows as one gate, then rewrite the rows over the new signal.
    Cuts the gate count well below one-chain-per-row on dense matrices.
    Returns the gates as pairs of signal indices, where signal width + t is
    gate t's output, and each row's signal.
    """
    masks = list(rows)
    pairs = []
    while True:
        counts = {}
        for m in masks:
            idxs = [j for j in range(m.bit_length()) if m >> j & 1]
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    k = (idxs[a], idxs[b])
                    counts[k] = counts.get(k, 0) + 1
        if not counts:
            break
        i, j = min(counts, key=lambda k: (-counts[k], k))
        pair = (1 << i) | (1 << j)
        fresh = 1 << (width + len(pairs))
        pairs.append((i, j))
        masks = [(m ^ pair) | fresh if m & pair == pair else m for m in masks]
    if 0 in masks:
        raise RuntimeError("zero row in a linear layer")
    return tuple(pairs), tuple(m.bit_length() - 1 for m in masks)


def _linear_layer(net, rows, bits):
    """XOR network computing out_i = parity(rows[i] & bits). Each matrix's
    program is derived once per netlist and replayed on every call."""
    key = (tuple(rows), len(bits))
    if key not in net.programs:
        net.programs[key] = _xor_program(*key)
    pairs, outs = net.programs[key]
    sigs = list(bits)
    for i, j in pairs:
        sigs.append(net.xor(sigs[i], sigs[j]))
    return tuple(sigs[k] for k in outs)


def _g4_mul(net, a, b):
    p = net.and_(a[1], b[1])
    q = net.and_(a[0], b[0])
    t = net.and_(net.xor(a[0], a[1]), net.xor(b[0], b[1]))
    return (net.xor(q, p), net.xor(t, q))


def _g4_sq(net, a):
    return (net.xor(a[0], a[1]), a[1])


def _g4_mul_u(net, a):
    return (a[1], net.xor(a[0], a[1]))


def _g16_mul(net, a, b):
    al, ah, bl, bh = a[:2], a[2:], b[:2], b[2:]
    p = _g4_mul(net, ah, bh)
    q = _g4_mul(net, al, bl)
    t = _g4_mul(net, net.xor_vec(al, ah), net.xor_vec(bl, bh))
    return net.xor_vec(q, _g4_mul_u(net, p)) + net.xor_vec(t, q)


def _g16_sq(net, a):
    al, ah = a[:2], a[2:]
    hs = _g4_sq(net, ah)
    return net.xor_vec(_g4_sq(net, al), _g4_mul_u(net, hs)) + hs


def _g16_inv(net, a):
    # norm into GF(4), invert there by squaring, then two half multiplies
    al, ah = a[:2], a[2:]
    n = net.xor_vec(
        net.xor_vec(_g4_mul_u(net, _g4_sq(net, ah)), _g4_mul(net, ah, al)),
        _g4_sq(net, al))
    ninv = _g4_sq(net, n)
    return _g4_mul(net, net.xor_vec(al, ah), ninv) + _g4_mul(net, ah, ninv)


def _g256_inv(net, c):
    cl, ch = c[:4], c[4:]
    n = net.xor_vec(
        net.xor_vec(_linear_layer(net, _LAMBDA_ROWS, _g16_sq(net, ch)),
                    _g16_mul(net, ch, cl)),
        _g16_sq(net, cl))
    e = _g16_inv(net, n)
    return _g16_mul(net, net.xor_vec(cl, ch), e) + _g16_mul(net, ch, e)


def _sbox_gates(net, byte):
    t = _linear_layer(net, _M_ROWS, byte)
    ti = _g256_inv(net, t)
    s = list(_linear_layer(net, _AM_ROWS, ti))
    for i in (0, 1, 5, 6):  # 0x63 has bits 0, 1, 5, 6 set
        s[i] = net.inv(s[i])
    return tuple(s)


def _xtime_gates(net, b):
    return (b[7], net.xor(b[0], b[7]), b[1], net.xor(b[2], b[7]),
            net.xor(b[3], b[7]), b[4], b[5], b[6])


def _xtime_int(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _mix_column(net, col):
    # out_r = xtime(col_r ^ col_{r+1}) ^ col_{r+1} ^ col_{r+2} ^ col_{r+3};
    # the three-term tail is (total ^ col_r), shared across the column
    total = net.xor_vec(net.xor_vec(col[0], col[1]),
                        net.xor_vec(col[2], col[3]))
    out = []
    for r in range(4):
        pair = net.xor_vec(col[r], col[(r + 1) % 4])
        out.append(net.xor_vec(_xtime_gates(net, pair),
                               net.xor_vec(total, col[r])))
    return out


def _shift_rows(state):
    return [state[(i % 4) + 4 * ((i // 4 + i % 4) % 4)] for i in range(16)]


def _xor_const_byte(net, byte, k: int):
    return tuple(net.inv(b) if k >> i & 1 else b for i, b in enumerate(byte))


def _expand_key(net, key_bytes):
    words = [tuple(key_bytes[4 * i : 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        prev = words[i - 1]
        if i % 4 == 0:
            rot = (prev[1], prev[2], prev[3], prev[0])
            sub = tuple(_sbox_gates(net, b) for b in rot)
            temp = (_xor_const_byte(net, sub[0], rcon),) + sub[1:]
            rcon = _xtime_int(rcon)
        else:
            temp = prev
        words.append(tuple(
            net.xor_vec(a, b) for a, b in zip(words[i - 4], temp)))
    return [[words[4 * r + c][j] for c in range(4) for j in range(4)]
            for r in range(11)]


def _build_netlist() -> _Net:
    net = _Net(256)
    key_bytes = [tuple(range(8 * i, 8 * i + 8)) for i in range(16)]
    pt_bytes = [tuple(range(128 + 8 * i, 128 + 8 * i + 8)) for i in range(16)]
    rks = _expand_key(net, key_bytes)
    state = [net.xor_vec(pt_bytes[i], rks[0][i]) for i in range(16)]
    for rnd in range(1, 10):
        state = [_sbox_gates(net, b) for b in state]
        state = _shift_rows(state)
        mixed = []
        for c in range(4):
            mixed.extend(_mix_column(net, state[4 * c : 4 * c + 4]))
        state = [net.xor_vec(mixed[i], rks[rnd][i]) for i in range(16)]
    state = [_sbox_gates(net, b) for b in state]
    state = _shift_rows(state)
    state = [net.xor_vec(state[i], rks[10][i]) for i in range(16)]
    # copy the ciphertext onto the last wires so outputs sit where the
    # format expects them
    for byte in state:
        for w in byte:
            net.eqw(w)
    return net


@functools.lru_cache(maxsize=None)
def generate_aes_circuit() -> Circuit:
    net = _build_netlist()
    header = CircuitHeader(len(net.table) // 4, net.next, 128, 128, 128,
                           ("both",) * 128)
    return Circuit(header, net.table)


def to_bristol(circuit: Circuit) -> str:
    h = circuit.header
    iv = f"2 {h.inputs_a} {h.inputs_b}" if h.inputs_b else f"1 {h.inputs_a}"
    lines = [f"{h.n_gates} {h.n_wires}", iv, f"1 {h.n_outputs}", ""]
    lines += [f"1 1 {a} {out} {GATE_KINDS[kind]}" if kind in (INV, EQW)
              else f"2 1 {a} {b} {out} {GATE_KINDS[kind]}"
              for kind, a, b, out in zip(*circuit.table.T.tolist())]
    return "\n".join(lines) + "\n"


def block_to_bits(block: bytes) -> BitVec:
    if len(block) != 16:
        raise ValueError("AES blocks are 16 bytes")
    return BitVec.from_bytes(128, block)


def bits_to_block(bits: BitVec) -> bytes:
    if bits.n != 128:
        raise ValueError("AES blocks are 128 bits")
    return bits.to_bytes()
