"""Keystream generation, the 2M-point phase constellation and the file cipher.

The running key comes from a Fibonacci LFSR seeded with the shared secret.
Each transmitted symbol consumes log2(M) keystream bits to pick a basis;
the data bit then selects one of the two antipodal points of that basis.

This module needs only the standard library.  The keystream is computed in
blocks of BLOCK_BITS bits held as Python ints, and bits() hands it out
packed, 8 bits per byte.  The file cipher splits a chunk into 8 planes,
plane f holding the symbols of bit f (MSB first) of every plaintext byte,
and holds a plane as one integer with a lane per symbol: 8 bits wide while
the 2M points fit in a byte, 16 bits above that.  The bases of a plane are
gathered from the packed keystream with strided byte slices, and its points
are written into the u16 body with strided byte slices.  encode() and
decode_lenient() use integer operators only, so one body serves a scalar,
a numpy integer array and a plane of lanes.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache

from .names import MAPPINGS

DEFAULT_DEGREE = 32
DEFAULT_TAPS = (32, 22, 2, 1)  # maximal-length polynomial x^32+x^22+x^2+x+1
BLOCK_BITS = 1 << 14  # keystream block size; bits() keeps the last `degree` blocks

_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


class Constellation:
    """2M phases phi_j = pi*j/M with a (bit, basis) <-> point mapping rule.

    Basis m owns the antipodal pair (m, m+M).  "plain" puts bit b at
    j = m + b*M; "alternating" flips the polarity of every odd basis so
    that neighbouring points carry opposite bits.
    """

    __slots__ = ("m_bases", "mapping", "basis_bits")

    def __init__(self, m_bases: int, mapping: str = "alternating"):
        if not _is_power_of_two(m_bases):
            raise ValueError(f"M must be a power of two, got {m_bases}")
        if mapping not in MAPPINGS:
            raise ValueError(f"unknown mapping {mapping!r}")
        self.m_bases = m_bases
        self.mapping = mapping
        self.basis_bits = m_bases.bit_length() - 1  # log2(M): keystream bits per basis

    @property
    def num_points(self) -> int:
        return 2 * self.m_bases

    def polarity(self, basis, ones=1):
        """1 where basis m carries its bits on flipped halves (odd m under "alternating");
        ones is 1, or one 1 per lane of a plane of the file cipher."""
        return basis & ones if self.mapping == "alternating" else 0

    def point_bit(self, j):
        """Logical bit carried by point j (basis is implied by j mod M).

        Accepts an int or an integer array, checked against 0..2M-1.
        """
        check_range(j, self.num_points, f"point index out of range 0..{self.num_points - 1}")
        return (j >> self.basis_bits) ^ self.polarity(j & (self.m_bases - 1))


def check_range(x, bound: int, message: str) -> None:
    """ValueError(message) unless x, an int or an integer array, lies in 0..bound-1.

    Other types pass, to raise TypeError from the caller's bitwise operators.
    """
    if isinstance(x, int):
        if not 0 <= x < bound:
            raise ValueError(message)
    elif getattr(x, "size", 0) and (x.min() < 0 or x.max() >= bound):
        raise ValueError(message)


def encode(bit, basis, c: Constellation, ones=1):
    """Point basis + (bit ^ polarity(basis)) * M.

    bit and basis are ints or equal-length integer arrays, both range-checked,
    or planes of lanes with ones one 1 per lane (a bit below 2 and a basis
    below M in each lane).  A float raises TypeError from the bitwise operators.
    """
    if ones == 1:
        check_range(bit, 2, "bits must be 0 or 1")
        check_range(basis, c.m_bases, f"basis out of range for M={c.m_bases}")
    return basis | (bit ^ c.polarity(basis, ones)) << c.basis_bits


def decode_lenient(j, basis, c: Constellation, ones=1):
    """Half-plane decode of any point against the keyed basis axis.

    The keyed inverse of encode() on the basis pair; for any other point (e.g.
    a wrong-key decrypt) it returns the bit of the nearer antipodal point:
    j's half bit j_h = (j >> log2 M) & 1, flipped when j mod M < basis (the
    point lies past the axis) and by the basis polarity.  Accepts what
    encode() accepts, with points below 2M in each lane; an int point is
    read mod 2M.
    """
    k = c.basis_bits
    # The low k + 1 bits of (j | M) - basis are (j mod M) + M - basis, which
    # no lane borrows into: bit k is 1 iff j mod M >= basis.
    ahead = (j | c.m_bases * ones) - basis
    return ((j ^ ahead) >> k ^ ones ^ c.polarity(basis, ones)) & ones


class KeystreamGen:
    """Fibonacci LFSR producing the running key from the seed key.

    The output o obeys o[i+d] = XOR over taps t of o[i+t-1], with o[0..d-1]
    the register LSB-first.  Over GF(2) the characteristic polynomial
    satisfies p(x)^K = p(x^K) for K = 2^k, so the recurrence also holds with
    every offset scaled by K: block n of K bits, o[nK..nK+K-1] as an int, is
    the XOR over taps t of block n-(d-t+1).  The constructor doubles K from 1
    (the register's d bits) up to BLOCK_BITS, reading 2d blocks of K bits as
    d blocks of 2K; from then on each new block costs one XOR per tap and the
    history is exactly the last d blocks.

    Stateful and single-owner: do not share one generator across threads.
    """

    def __init__(self, register: int, taps: tuple[int, ...] = DEFAULT_TAPS,
                 degree: int = DEFAULT_DEGREE):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
        if not taps or taps[0] != degree or taps[-1] < 1:
            raise ValueError("taps must be distinct positions in 1..degree including degree")
        if not 0 < register < 1 << degree:
            raise ValueError(f"LFSR register must be nonzero and below 2^{degree}")
        self.taps = taps
        self.degree = degree
        self._lags = [degree - t + 1 for t in taps]
        blocks = [(register >> i) & 1 for i in range(degree)]
        size = 1
        while size < BLOCK_BITS:
            for _ in range(degree):
                blocks.append(self._next_block(blocks))
            blocks = [lo | hi << size for lo, hi in zip(blocks[0::2], blocks[1::2])]
            size *= 2
        self._size = size
        self._blocks = deque(blocks, maxlen=degree)  # blocks _next-d .. _next-1
        self._next = degree  # number of the next block to compute
        self._pos = 0  # index of the next output bit

    @classmethod
    def from_hex(cls, seed_key: str, taps: tuple[int, ...] = DEFAULT_TAPS,
                 degree: int = DEFAULT_DEGREE) -> "KeystreamGen":
        """Big-endian hexadecimal fill of the register: hex digits only, no sign, prefix,
        underscore or space, with a value in 1..2^degree - 1."""
        if not re.fullmatch("[0-9a-fA-F]+", seed_key):
            raise ValueError(f"seed key {seed_key!r} is not a string of hex digits")
        return cls(int(seed_key, 16), taps, degree)

    def _next_block(self, blocks) -> int:
        new = 0
        for lag in self._lags:
            new ^= blocks[-lag]
        return new

    def bits(self, n: int) -> bytes:
        """Next n keystream bits packed little-endian, the first in bit 0 of byte 0 and
        any bits past n zero; advances the state.

        Blocks are computed only through the one holding the last bit handed
        out, o[pos+n-1]; the first block a call reads is never older than the
        last d, so it is still in the history.
        """
        if n < 0:
            raise ValueError("bit count must be >= 0")
        size, pos = self._size, self._pos
        end = pos + n
        first, stop = pos // size, (end - 1) // size + 1 if n else pos // size
        base = self._next - self.degree  # number of the oldest block held
        out = [self._blocks[b - base] for b in range(first, min(stop, self._next))]
        while self._next < stop:
            block = self._next_block(self._blocks)
            self._blocks.append(block)
            out.append(block)
            self._next += 1
        self._pos = end
        head = pos - first * size
        packed = b"".join(block.to_bytes(size >> 3, "little") for block in out)
        if head & 7 or n & 7:  # not whole bytes: shift and mask them as one int
            word = (int.from_bytes(packed, "little") >> head) & ((1 << n) - 1)
            return word.to_bytes((n + 7) >> 3, "little")
        return packed[head >> 3:(head + n) >> 3]


def _lane_bytes(c: Constellation) -> int:
    """Bytes per lane of the chunk codec: 1 while the 2M points fit in a byte, else 2."""
    return 1 if c.num_points <= 256 else 2


@lru_cache(maxsize=2)
def _lane_ones(n: int, q: int) -> int:
    """One 1 at the bottom of each of n lanes of q bytes."""
    return int.from_bytes(b"\x01".ljust(q, b"\x00") * n, "little")


def _lanes(q: int, low: bytes, high: bytes = b"") -> int:
    """Int with one lane of q bytes per byte of low: lane g holds low[g] + 256 * high[g]."""
    if q == 1:
        return int.from_bytes(low, "little")
    buf = bytearray(2 * len(low))
    buf[0::2] = low
    if high:
        buf[1::2] = high
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=16)
def _basis_plan(k: int) -> tuple:
    """How the 8 k-bit bases held by each group of k keystream bytes are assembled.

    Basis f is bits fk..fk+k-1 of the group read big-endian.  Entry f lists
    (e, mask, shift) per byte e it draws on: in byte e bit-reversed, keystream
    bit 8e + t sits at bit 7 - t, and the bits under mask move by shift
    (left if positive) to their place in the basis.
    """
    plan = []
    for f in range(8):
        lo, hi = f * k, f * k + k - 1
        parts = []
        for e in range(lo >> 3, (hi >> 3) + 1):
            first, last = max(lo - 8 * e, 0), min(hi - 8 * e, 7)  # bits t of byte e in basis f
            parts.append((e, (1 << 8 - first) - (1 << 7 - last), hi - 8 * e - 7))
        plan.append(tuple(parts))
    return tuple(plan)


def _basis_planes(gen: KeystreamGen, c: Constellation, groups: int, q: int) -> list[int]:
    """Bases of the next 8 * groups symbols, each log2(M) keystream bits read big-endian,
    as 8 planes: lane g of plane f (q bytes) holds the basis of symbol 8g + f."""
    k = c.basis_bits
    if k == 0:
        return [0] * 8
    stream = gen.bits(8 * groups * k)
    ones = _lane_ones(groups, q)
    columns = [_lanes(q, stream[e::k].translate(_REVERSED)) for e in range(k)]
    planes = []
    for parts in _basis_plan(k):
        basis = 0
        for e, mask, shift in parts:
            part = columns[e] & mask * ones
            basis |= part << shift if shift >= 0 else part >> -shift
        planes.append(basis)
    return planes


def encrypt_chunk(gen: KeystreamGen, const: Constellation, chunk: bytes) -> bytes:
    """Ciphertext body of a plaintext chunk: one little-endian u16 point per bit, MSB first.

    Works on 8 planes of lanes, plane f holding bit f (MSB first) of every byte.
    """
    q, groups = _lane_bytes(const), len(chunk)
    ones = _lane_ones(groups, q)
    plain = _lanes(q, chunk)
    body = bytearray(16 * groups)
    for f, basis in enumerate(_basis_planes(gen, const, groups, q)):
        points = encode(plain >> (7 - f) & ones, basis, const, ones).to_bytes(q * groups, "little")
        body[2 * f::16] = points[0::q]
        if q == 2:
            body[2 * f + 1::16] = points[1::2]
    return bytes(body)


def decrypt_chunk(gen: KeystreamGen, const: Constellation, chunk: bytes) -> bytes:
    """Plaintext bytes of a chunk of ciphertext body; ValueError names a malformed one."""
    if len(chunk) % 2:
        raise ValueError("ciphertext body has an odd number of bytes; "
                         "each point index takes two")
    whole = len(chunk) % 16 == 0  # 8 points per plaintext byte
    # padded with point 0, so that an out-of-range point is reported first
    chunk = chunk if whole else chunk.ljust(len(chunk) + 16 - len(chunk) % 16, b"\x00")
    q, groups = _lane_bytes(const), len(chunk) // 16
    ones = _lane_ones(groups, q)
    points = [_lanes(q, chunk[2 * f::16], chunk[2 * f + 1::16] if q == 2 else b"")
              for f in range(8)]
    high = chunk[1::2] if q == 1 else b""  # high bytes, which must be 0
    out_of_range = ((1 << 8 * q) - const.num_points) * ones  # lane bits >= 2M
    if high != bytes(len(high)) or any(j & out_of_range for j in points):
        raise ValueError("ciphertext contains out-of-range point indices")
    if not whole:
        raise ValueError("ciphertext bit count is not a whole number of bytes")
    plain = 0
    for f, basis in enumerate(_basis_planes(gen, const, groups, q)):
        plain |= decode_lenient(points[f], basis, const, ones) << (7 - f)
    return plain.to_bytes(q * groups, "little")[0::q]
