"""Keystream generation and the 2M-point phase constellation.

The running key comes from a Fibonacci LFSR seeded with the shared secret.
Each transmitted symbol consumes log2(M) keystream bits to pick a basis;
the data bit then selects one of the two antipodal points of that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DEGREE = 32
DEFAULT_TAPS = (32, 22, 2, 1)  # maximal-length polynomial x^32+x^22+x^2+x+1

MAPPINGS = ("alternating", "plain")


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Constellation:
    """2M phases phi_j = pi*j/M with a (bit, basis) <-> point mapping rule.

    Basis m owns the antipodal pair (m, m+M).  "plain" puts bit b at
    j = m + b*M; "alternating" flips the polarity of every odd basis so
    that neighbouring points carry opposite bits.
    """

    m_bases: int
    mapping: str = "alternating"

    def __post_init__(self):
        if not _is_power_of_two(self.m_bases):
            raise ValueError(f"M must be a power of two, got {self.m_bases}")
        if self.mapping not in MAPPINGS:
            raise ValueError(f"unknown mapping {self.mapping!r}")

    @property
    def num_points(self) -> int:
        return 2 * self.m_bases

    def point_phase(self, j: int) -> float:
        if not 0 <= j < self.num_points:
            raise ValueError(f"point index {j} out of range")
        return math.pi * j / self.m_bases

    def polarity(self, basis):
        """1 where basis m carries its bits on flipped halves (odd m under "alternating")."""
        return basis & 1 if self.mapping == "alternating" else 0

    def point_bit(self, j):
        """Logical bit carried by point j (basis is implied by j mod M).

        Accepts a scalar or an integer array.
        """
        j = np.asarray(j)
        if j.size and (j.min() < 0 or j.max() >= self.num_points):
            raise ValueError(f"point index out of range 0..{self.num_points - 1}")
        return _scalar_or_array((j // self.m_bases) ^ self.polarity(j % self.m_bases))


def _scalar_or_array(x):
    return int(x) if np.ndim(x) == 0 else x


def encode(bit, basis, c: Constellation):
    """Point basis + (bit ^ polarity(basis)) * M; accepts scalars or equal-length arrays."""
    bit, basis = np.asarray(bit), np.asarray(basis)
    if bit.size and (bit.min() < 0 or bit.max() > 1):
        raise ValueError("bits must be 0 or 1")
    if basis.size and (basis.min() < 0 or basis.max() >= c.m_bases):
        raise ValueError(f"basis out of range for M={c.m_bases}")
    return _scalar_or_array(basis + (bit ^ c.polarity(basis)) * c.m_bases)


def decode(j: int, basis: int, c: Constellation) -> int:
    """Keyed inverse of encode; rejects points outside the basis pair (desync)."""
    if not 0 <= basis < c.m_bases:
        raise ValueError(f"basis {basis} out of range for M={c.m_bases}")
    if j not in (basis, basis + c.m_bases):
        raise ValueError(f"point {j} is not in the keyed pair ({basis}, {basis + c.m_bases})")
    return decode_lenient(j, basis, c)


def decode_lenient(j, basis, c: Constellation):
    """Half-plane decode of any point against the keyed basis axis.

    Agrees with decode() on in-pair points; for arbitrary points (e.g. a
    wrong-key decrypt) it returns the bit of the nearer antipodal point.
    Accepts scalars or equal-length integer arrays.
    """
    basis = np.asarray(basis)
    half = (np.asarray(j) - basis) % (2 * c.m_bases) // c.m_bases
    half ^= c.polarity(basis)
    return _scalar_or_array(half)


def dsr_offset(rng: np.random.Generator, d: int, j, m_bases: int):
    """Deliberate state randomization: dither each point j by a uniform offset in [-d, d].

    d must stay below M/2 so the dithered point remains inside the keyed
    half-plane and Bob's decision is unaffected.  Accepts a scalar or an
    integer array; d = 0 returns j without drawing.
    """
    if not 0 <= d < m_bases / 2:
        raise ValueError(f"dsr offset d={d} must satisfy 0 <= d < M/2 = {m_bases / 2}")
    if d == 0:
        return j
    dither = rng.integers(-d, d + 1, size=np.shape(j))
    return _scalar_or_array((j + dither) % (2 * m_bases))


def _lfsr_fill_py(state, tap_shifts, top, out):
    """Bit-serial reference: emit the LSB, feed the tap parity back at the top."""
    for i in range(out.size):
        out[i] = state & 1
        fb = 0
        for s in tap_shifts:
            fb ^= (state >> s) & 1
        state = (state >> 1) | (fb << top)
    return state


class KeystreamGen:
    """Fibonacci LFSR producing the running key from the seed key.

    Stateful and single-owner: do not share one generator across threads.
    """

    def __init__(self, register: int, taps: tuple[int, ...] = DEFAULT_TAPS,
                 degree: int = DEFAULT_DEGREE):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
        if not taps or taps[0] != degree or taps[-1] < 1:
            raise ValueError("taps must be distinct positions in 1..degree including degree")
        register &= (1 << degree) - 1
        if register == 0:
            raise ValueError("LFSR register must not be all-zero")
        self._state = register
        self.taps = taps
        self.degree = degree

    @classmethod
    def from_hex(cls, seed_key: str, taps: tuple[int, ...] = DEFAULT_TAPS,
                 degree: int = DEFAULT_DEGREE) -> "KeystreamGen":
        """Big-endian hexadecimal fill of the register."""
        try:
            value = int(seed_key, 16)
        except ValueError:
            raise ValueError(f"seed key {seed_key!r} is not valid hexadecimal") from None
        return cls(value, taps, degree)

    @property
    def register(self) -> int:
        return self._state

    def bits(self, n: int) -> np.ndarray:
        """Next n keystream bits as a uint8 array; advances the state.

        The output o obeys o[i+d] = XOR over taps t of o[i+t-1], with
        o[0..d-1] the register LSB-first.  Over GF(2) the characteristic
        polynomial satisfies p(x)^K = p(x^K) for K = 2^k, so the recurrence
        also holds with every offset scaled by K: once d*K bits are known,
        one XOR per tap emits the next K bits.  The register afterwards is
        o[n..n+d-1].  The result is a view of the first n bits of one
        (n + d)-byte buffer.
        """
        if n < 0:
            raise ValueError("bit count must be >= 0")
        d = self.degree
        buf = np.empty(n + d, dtype=np.uint8)
        register = np.frombuffer(self._state.to_bytes((d + 7) // 8, "little"), dtype=np.uint8)
        buf[:d] = np.unpackbits(register, bitorder="little")[:d]
        first, *rest = [t - 1 for t in self.taps]
        filled, step = d, 1
        while filled < n + d:
            while d * step * 2 <= filled:
                step *= 2
            k = min(step, n + d - filled)
            base = filled - d * step
            dst = buf[filled:filled + k]
            np.copyto(dst, buf[base + first * step:base + first * step + k])
            for off in rest:
                dst ^= buf[base + off * step:base + off * step + k]
            filled += k
        self._state = int.from_bytes(np.packbits(buf[n:], bitorder="little").tobytes(),
                                     "little")
        return buf[:n]

    def bases(self, m_bases: int, count: int) -> np.ndarray:
        """Next count basis indices, each log2(M) keystream bits read big-endian."""
        if not _is_power_of_two(m_bases):
            raise ValueError(f"M must be a power of two, got {m_bases}")
        k = m_bases.bit_length() - 1
        if k == 0:
            return np.zeros(count, dtype=np.int64)
        bits = self.bits(count * k).reshape(count, k)
        out = np.zeros(count, dtype=np.int64)
        for col in range(k):  # column by column: no count*k int64 copy
            out <<= 1
            out |= bits[:, col]
        return out
