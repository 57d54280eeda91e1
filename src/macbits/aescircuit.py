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
from typing import NamedTuple

from .bitlinalg import BitVec
from .circuit import AND, EQW, GATE_KINDS, INV, XOR, Circuit, CircuitHeader

# ---------------------------------------------------------------------------
# Software tower arithmetic on small ints. GF(4) lives in 2 bits as a1*u+a0
# with u^2 = u+1; GF(16) in 4 bits as b1*Z+b0 with Z^2 = Z+u; GF(256) in
# 8 bits as c1*Y+c0 with Y^2 = Y+lambda. Used to derive the constants the
# gate builder needs, never at evaluation time.


def _mul4(a: int, b: int) -> int:
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    p, q = a1 & b1, a0 & b0
    t = (a0 ^ a1) & (b0 ^ b1)
    return ((t ^ q) << 1) | (q ^ p)


def _mul4_u(a: int) -> int:
    a0, a1 = a & 1, a >> 1
    return ((a0 ^ a1) << 1) | a1


def _mul16(a: int, b: int) -> int:
    al, ah, bl, bh = a & 3, a >> 2, b & 3, b >> 2
    p, q = _mul4(ah, bh), _mul4(al, bl)
    t = _mul4(al ^ ah, bl ^ bh)
    return ((t ^ q) << 2) | (q ^ _mul4_u(p))


def _mul256(a: int, b: int, lam: int) -> int:
    al, ah, bl, bh = a & 15, a >> 4, b & 15, b >> 4
    p, q = _mul16(ah, bh), _mul16(al, bl)
    t = _mul16(al ^ ah, bl ^ bh)
    return ((t ^ q) << 4) | (q ^ _mul16(lam, p))


def _pow256(a: int, e: int, lam: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _mul256(r, a, lam)
        a = _mul256(a, a, lam)
        e >>= 1
    return r


def _inv256(a: int, lam: int) -> int:
    if a == 0:
        return 0
    return next(e for e in range(1, 256) if _mul256(a, e, lam) == 1)


def _find_lambda() -> int:
    # Y^2+Y+lam splits iff lam is of the form y^2+y; take the first that isn't.
    images = {_mul16(y, y) ^ y for y in range(16)}
    return next(l for l in range(16) if l not in images)


def _find_thetas(lam: int):
    # Roots of the byte-field modulus x^8+x^4+x^3+x+1 inside the tower.
    roots = []
    for cand in range(2, 256):
        v = (_pow256(cand, 8, lam) ^ _pow256(cand, 4, lam)
             ^ _pow256(cand, 3, lam) ^ cand ^ 1)
        if v == 0:
            roots.append(cand)
    if not roots:
        raise RuntimeError("no root of the byte-field modulus in the tower")
    return roots


def _mat_inv8(rows):
    a = list(rows)
    inv = [1 << i for i in range(8)]
    for col in range(8):
        piv = next((r for r in range(col, 8) if a[r] >> col & 1), None)
        if piv is None:
            raise RuntimeError("singular basis-change matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(8):
            if r != col and a[r] >> col & 1:
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return inv


def _mat_mul8(a_rows, b_rows):
    out = []
    for ra in a_rows:
        acc = 0
        for k in range(8):
            if ra >> k & 1:
                acc ^= b_rows[k]
        out.append(acc)
    return out


def _apply_rows_int(rows, x: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << i
    return out


def _sbox_soft(x: int, lam: int, m_rows, am_rows) -> int:
    return _apply_rows_int(am_rows, _inv256(_apply_rows_int(m_rows, x), lam)) ^ 0x63


class _TowerMaps(NamedTuple):
    lam: int
    m_rows: tuple
    am_rows: tuple


@functools.lru_cache(maxsize=None)
def _tower() -> _TowerMaps:
    lam = _find_lambda()
    aff = tuple(
        sum(1 << (j % 8) for j in (i, i + 4, i + 5, i + 6, i + 7))
        for i in range(8))
    # any conjugate root gives a valid basis change; take the sparsest pair
    best = None
    for theta in _find_thetas(lam):
        cols = [_pow256(theta, j, lam) for j in range(8)]
        m_rows = tuple(
            sum(((cols[j] >> i) & 1) << j for j in range(8)) for i in range(8))
        am_rows = tuple(_mat_mul8(aff, _mat_inv8(m_rows)))
        cost = sum(r.bit_count() for r in m_rows + am_rows)
        if best is None or cost < best[0]:
            best = (cost, m_rows, am_rows)
    _, m_rows, am_rows = best
    # spot-check the substitution path against three fixed table entries
    for x, s in ((0x00, 0x63), (0x53, 0xED), (0xFF, 0x16)):
        if _sbox_soft(x, lam, m_rows, am_rows) != s:
            raise RuntimeError("tower S-box disagrees with the byte table")
    return _TowerMaps(lam, m_rows, am_rows)


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


def _g16_mul_const(net, k: int, a):
    rows = [sum(((_mul16(k, 1 << j) >> i) & 1) << j for j in range(4))
            for i in range(4)]
    return _linear_layer(net, rows, a)


def _g256_inv(net, c, lam: int):
    cl, ch = c[:4], c[4:]
    n = net.xor_vec(
        net.xor_vec(_g16_mul_const(net, lam, _g16_sq(net, ch)),
                    _g16_mul(net, ch, cl)),
        _g16_sq(net, cl))
    e = _g16_inv(net, n)
    return _g16_mul(net, net.xor_vec(cl, ch), e) + _g16_mul(net, ch, e)


def _sbox_gates(net, byte, tw: _TowerMaps):
    t = _linear_layer(net, tw.m_rows, byte)
    ti = _g256_inv(net, t, tw.lam)
    s = list(_linear_layer(net, tw.am_rows, ti))
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


def _expand_key(net, key_bytes, tw):
    words = [tuple(key_bytes[4 * i : 4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        prev = words[i - 1]
        if i % 4 == 0:
            rot = (prev[1], prev[2], prev[3], prev[0])
            sub = tuple(_sbox_gates(net, b, tw) for b in rot)
            temp = (_xor_const_byte(net, sub[0], rcon),) + sub[1:]
            rcon = _xtime_int(rcon)
        else:
            temp = prev
        words.append(tuple(
            net.xor_vec(a, b) for a, b in zip(words[i - 4], temp)))
    return [[words[4 * r + c][j] for c in range(4) for j in range(4)]
            for r in range(11)]


def _build_netlist() -> _Net:
    tw = _tower()
    net = _Net(256)
    key_bytes = [tuple(range(8 * i, 8 * i + 8)) for i in range(16)]
    pt_bytes = [tuple(range(128 + 8 * i, 128 + 8 * i + 8)) for i in range(16)]
    rks = _expand_key(net, key_bytes, tw)
    state = [net.xor_vec(pt_bytes[i], rks[0][i]) for i in range(16)]
    for rnd in range(1, 10):
        state = [_sbox_gates(net, b, tw) for b in state]
        state = _shift_rows(state)
        mixed = []
        for c in range(4):
            mixed.extend(_mix_column(net, state[4 * c : 4 * c + 4]))
        state = [net.xor_vec(mixed[i], rks[rnd][i]) for i in range(16)]
    state = [_sbox_gates(net, b, tw) for b in state]
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
