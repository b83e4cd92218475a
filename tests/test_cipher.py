import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeta.cipher import (
    MAPPINGS,
    MAX_M,
    Constellation,
    KeystreamGen,
    decode_lenient,
    decrypt_chunk,
    encode,
    encrypt_chunk,
)
from alphaeta.montecarlo import keyed_bases
from references import lfsr_fill

POWERS_OF_TWO = [1, 2, 4, 8, 16, 32, 64]


def unpacked(packed: bytes, n: int) -> np.ndarray:
    """KeystreamGen.bits(n) output as one uint8 0 or 1 per keystream bit."""
    return np.unpackbits(np.frombuffer(packed, np.uint8), count=n, bitorder="little")


LFSR_POLYNOMIALS = [  # (taps, degree) of maximal-length LFSRs
    ((4, 3), 4),
    ((32, 22, 2, 1), 32),
    ((64, 63, 61, 60), 64),
    ((89, 51), 89),
    ((127, 126, 124, 120), 127),
]


class TestConstellation:
    def test_rejects_non_power_of_two_and_bad_mapping(self):
        with pytest.raises(ValueError):
            Constellation(3)
        with pytest.raises(ValueError):
            Constellation(0)
        with pytest.raises(ValueError):
            Constellation(4, "zigzag")

    @pytest.mark.parametrize("m", POWERS_OF_TWO)
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_antipodal_pairs_carry_opposite_bits(self, m, mapping):
        c = Constellation(m, mapping)
        for j in range(m):
            assert c.point_bit(j) != c.point_bit(j + m)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_alternating_adjacent_points_opposite_bits(self, m):
        # full circular alternation is impossible jointly with the
        # antipodal-pair invariant when M is even (parity argument), so
        # alternation holds everywhere except the two half-circle seams
        c = Constellation(m, "alternating")
        bits = [c.point_bit(j) for j in range(2 * m)]
        seams = {m - 1, 2 * m - 1}
        for j in range(2 * m):
            if j not in seams:
                assert bits[j] != bits[(j + 1) % (2 * m)]


class TestEncodeDecode:
    def test_plain_formula(self):
        c = Constellation(4, "plain")
        assert encode(1, 3, c) == 7
        assert decode_lenient(7, 3, c) == 1

    def test_alternating_examples(self):
        c = Constellation(4, "alternating")
        assert encode(0, 0, c) == 0
        assert encode(0, 1, c) == 5
        assert decode_lenient(5, 1, c) == 0

    @pytest.mark.parametrize("m", POWERS_OF_TWO)
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_round_trip_exhaustive(self, m, mapping):
        c = Constellation(m, mapping)
        for basis in range(m):
            for bit in (0, 1):
                j = encode(bit, basis, c)
                assert 0 <= j < 2 * m
                assert decode_lenient(j, basis, c) == bit
                assert c.point_bit(j) == bit

    def test_encode_rejects_bad_basis_and_bit(self):
        c = Constellation(4)
        with pytest.raises(ValueError):
            encode(0, 4, c)
        with pytest.raises(ValueError):
            encode(2, 1, c)

    def test_decode_lenient_matches_strict_on_pair(self):
        for mapping in ("alternating", "plain"):
            c = Constellation(8, mapping)
            for basis in range(8):
                for bit in (0, 1):
                    j = encode(bit, basis, c)
                    assert decode_lenient(j, basis, c) == bit

    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_encode_and_point_bit_vectorized(self, mapping):
        c = Constellation(16, mapping)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=500)
        basis = rng.integers(0, 16, size=500)
        j = encode(bits, basis, c)
        assert j.tolist() == [encode(int(b), int(m), c) for b, m in zip(bits, basis)]
        assert c.point_bit(j).tolist() == bits.tolist()
        assert c.point_bit(np.arange(32)).tolist() == [c.point_bit(k) for k in range(32)]
        with pytest.raises(ValueError):
            encode(bits, basis + 1, c)
        with pytest.raises(ValueError):
            encode(bits * 2, basis, c)
        with pytest.raises(ValueError):
            c.point_bit(np.array([0, 32]))
        with pytest.raises(ValueError):
            c.point_bit(np.array([-1, 0]))
        with pytest.raises(ValueError):
            c.point_bit(32)

    def test_decode_lenient_vectorized(self):
        c = Constellation(8)
        j = np.array([0, 9, 5, 12])
        basis = np.array([0, 1, 5, 4])
        expected = [decode_lenient(int(a), int(b), c) for a, b in zip(j, basis)]
        assert decode_lenient(j, basis, c).tolist() == expected

    @pytest.mark.parametrize("m", [1, 2, 32, 1 << 15, 1 << 16])
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_arrays_match_int64_formula(self, m, mapping):
        """encode and decode_lenient equal the int64 formula on every (bit, basis) and
        on every point against every basis in a sample, up to M = 2^16."""
        c = Constellation(m, mapping)
        polarity = (lambda b: b & 1) if mapping == "alternating" else (lambda b: 0)
        basis = np.repeat(np.arange(m, dtype=np.int64), 2)
        bits = np.tile(np.array([0, 1], dtype=np.int64), m)
        j = encode(bits, basis, c)
        assert np.array_equal(j, basis + (bits ^ polarity(basis)) * m)

        points = np.arange(2 * m, dtype=np.int64)  # in and out of the keyed pair
        for b in sorted({0, 1, m // 2, m - 1}):
            keyed = np.full(points.size, b, dtype=np.int64)
            want = (points - keyed) % (2 * m) // m ^ polarity(keyed)
            got = decode_lenient(points, keyed.astype(np.uint16), c)  # as keyed_bases() gives them
            assert np.array_equal(got, want)
            assert decode_lenient(int(points[-1]), b, c) == int(want[-1])

    @pytest.mark.parametrize("m", [2, 1 << 15, 1 << 16])
    def test_scalars_give_int_and_float_bits_raise(self, m):
        c = Constellation(m)
        assert type(encode(1, m - 1, c)) is int
        assert type(decode_lenient(encode(1, m - 1, c), m - 1, c)) is int
        assert decode_lenient(-1, 0, c) == 1  # the point 2M - 1
        with pytest.raises(TypeError):
            encode(1.0, 0, c)
        with pytest.raises(TypeError):
            encode(np.array([0.0, 1.0]), np.array([0, 1]), c)
        with pytest.raises(TypeError):
            decode_lenient(np.array([0.0]), np.array([0]), c)


def lanes(values) -> int:
    """A chunk's lane integer: one 16-bit lane per value, lane i holding values[i]."""
    return int.from_bytes(np.asarray(values, dtype="<u2").tobytes(), "little")


def unlanes(word: int, n: int) -> list[int]:
    return np.frombuffer(word.to_bytes(2 * n, "little"), dtype="<u2").tolist()


class TestChunkCodec:
    """The lane form of encode/decode_lenient, and encrypt_chunk/decrypt_chunk built on
    it, against the scalar definitions."""

    @pytest.mark.parametrize("m", [1, 2, 32, 1 << 15])
    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_lane_encode_matches_scalar_on_every_pair(self, m, mapping):
        c = Constellation(m, mapping)
        basis = np.repeat(np.arange(m), 2)
        bits = np.tile([0, 1], m)
        got = encode(lanes(bits), lanes(basis), c, lanes(np.ones(2 * m)))
        assert unlanes(got, 2 * m) == [encode(int(b), int(a), c) for b, a in zip(bits, basis)]

    @pytest.mark.parametrize("m", [1, 2, 32, 1 << 15])
    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_lane_decode_matches_scalar(self, m, mapping):
        """Every point against every basis (M <= 32) or 64 bases spread over 0..M-1,
        the first and last included (M = 2^15)."""
        c = Constellation(m, mapping)
        keyed = range(m) if m <= 32 else sorted({0, m - 1, *range(0, m, m // 62)})
        points = np.tile(np.arange(2 * m), len(keyed))
        basis = np.repeat(np.asarray(keyed), 2 * m)
        got = decode_lenient(lanes(points), lanes(basis), c, lanes(np.ones(points.size)))
        want = [decode_lenient(int(j), int(a), c) for j, a in zip(points, basis)]
        assert unlanes(got, points.size) == want

    @pytest.mark.parametrize("m", [1, 2, 32, 128, 256, 1 << 15])
    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("lead", [0, 3])
    def test_chunks_match_scalar_codec(self, m, mapping, lead):
        """encrypt_chunk is scalar encode of each plaintext bit (MSB first) under the bases
        of a twin generator's bits, and decrypt_chunk is scalar decode_lenient of
        each u16 point, for in-pair and arbitrary points; also when the generator
        has first given out `lead` bits, so a chunk starts inside a keystream byte."""
        c = Constellation(m, mapping)
        k = c.basis_bits

        def generator():
            gen = KeystreamGen.from_hex("c0ffee")
            gen.bits(lead)
            return gen

        rng = np.random.default_rng(m)
        plain = rng.integers(0, 256, size=300, dtype=np.uint8).tobytes()
        bits = np.unpackbits(np.frombuffer(plain, np.uint8)).tolist()
        stream = unpacked(generator().bits(len(bits) * k), len(bits) * k).reshape(len(bits), k)
        bases = [int("".join(map(str, row)) or "0", 2) for row in stream.tolist()]
        body = encrypt_chunk(generator(), c, plain)
        assert np.frombuffer(body, "<u2").tolist() == [
            encode(b, a, c) for b, a in zip(bits, bases)]
        assert decrypt_chunk(generator(), c, body) == plain

        points = rng.integers(0, 2 * m, size=len(bits))
        got = decrypt_chunk(generator(), c, points.astype("<u2").tobytes())
        want = [decode_lenient(int(j), a, c) for j, a in zip(points, bases)]
        assert np.unpackbits(np.frombuffer(got, np.uint8)).tolist() == want

    @pytest.mark.parametrize("chunk", [encrypt_chunk, decrypt_chunk])
    def test_m_beyond_u16_body_raises(self, chunk):
        """At M = 2^16 a lane's bit 16 would spill into the next lane, so the
        codec refuses M > MAX_M itself, before it reads any keystream."""
        gen = KeystreamGen.from_hex("c0ffee")
        data = np.random.default_rng(5).bytes(64)
        with pytest.raises(ValueError, match=str(MAX_M)):
            chunk(gen, Constellation(2 * MAX_M), data)
        assert chunk(gen, Constellation(MAX_M), data) == chunk(
            KeystreamGen.from_hex("c0ffee"), Constellation(MAX_M), data)

    @pytest.mark.parametrize("m", [1, 32, 128, 256, 1 << 14])
    @pytest.mark.parametrize("lane", [0, 11, 23])
    def test_out_of_range_point_in_any_lane(self, m, lane):
        c = Constellation(m)
        points = np.full(24, 2 * m - 1)
        decrypt_chunk(KeystreamGen.from_hex("77"), c, points.astype("<u2").tobytes())
        for bad in (2 * m, 0xFFFF):
            points[lane] = bad
            with pytest.raises(ValueError, match="out-of-range"):
                decrypt_chunk(KeystreamGen.from_hex("77"), c, points.astype("<u2").tobytes())


class TestKeystreamGen:
    def test_degree4_period_15(self):
        # oracle: exhaustive state enumeration of the maximal degree-4 LFSR, whose
        # register after i bits is the next 4 bits o[i..i+3]
        seq = unpacked(KeystreamGen(0b0001, taps=(4, 1), degree=4).bits(19), 19)
        states = [tuple(seq[i:i + 4].tolist()) for i in range(16)]
        assert len(set(states[:15])) == 15 and (0, 0, 0, 0) not in states
        assert states[15] == states[0]
        fresh = KeystreamGen(0b0001, taps=(4, 1), degree=4)
        seq = unpacked(fresh.bits(45), 45)
        assert np.array_equal(seq[:15], seq[15:30])
        assert np.array_equal(seq[15:30], seq[30:45])

    def test_zero_bits_leaves_state(self):
        gen = KeystreamGen.from_hex("abc123")
        assert len(gen.bits(0)) == 0
        assert gen.bits(64) == KeystreamGen.from_hex("abc123").bits(64)

    def test_determinism(self):
        a = KeystreamGen.from_hex("deadbeef").bits(1000)
        b = KeystreamGen.from_hex("deadbeef").bits(1000)
        assert a == b

    def test_rejects_all_zero_seed(self):
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("0")
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("100000000")  # only bits above the register

    @pytest.mark.parametrize("key", ["xyz", "", "1deadbeef", "-1", "+1", "de_ad", " 1",
                                     "1 ", "0x1", "1\n"])
    def test_rejects_key_that_is_not_a_register_fill(self, key):
        # only hex digits, nonzero and below 2^32: int(key, 16) alone would mask
        # 1deadbeef to deadbeef and read -1, +1, de_ad, ' 1' and 0x1 as numbers
        with pytest.raises(ValueError):
            KeystreamGen.from_hex(key)

    def test_accepts_either_case_and_leading_zeros(self):
        want = KeystreamGen(0xDEADBEEF).bits(100)
        for key in ("deadbeef", "DEADBEEF", "DeadBeef", "00000000deadbeef"):
            assert KeystreamGen.from_hex(key).bits(100) == want

    def test_rejects_bad_taps(self):
        with pytest.raises(ValueError):
            KeystreamGen(1, taps=(3, 1), degree=4)

    def test_next_basis_binary_interpretation(self):
        gen = KeystreamGen.from_hex("deadbeef")
        bits = unpacked(KeystreamGen.from_hex("deadbeef").bits(2), 2)
        expected = (int(bits[0]) << 1) | int(bits[1])
        assert keyed_bases(gen, 4, 1).tolist() == [expected]

    def test_m1_consumes_nothing(self):
        gen = KeystreamGen.from_hex("1")
        assert keyed_bases(gen, 1, 5).tolist() == [0] * 5
        assert gen.bits(64) == KeystreamGen.from_hex("1").bits(64)

    def test_rejects_non_power_of_two_m(self):
        with pytest.raises(ValueError):
            keyed_bases(KeystreamGen.from_hex("1"), 6, 1)

    def test_bases_matches_sequential_next_basis(self):
        bulk = keyed_bases(KeystreamGen.from_hex("c0ffee"), 16, 200)
        gen = KeystreamGen.from_hex("c0ffee")
        seq = [int(keyed_bases(gen, 16, 1)[0]) for _ in range(200)]
        assert bulk.tolist() == seq
        # bit-serial reference: each basis is 4 keystream bits read big-endian
        bits = unpacked(KeystreamGen.from_hex("c0ffee").bits(800), 800).reshape(200, 4)
        assert bulk.tolist() == [int("".join(map(str, row)), 2) for row in bits]

    @pytest.mark.parametrize("m_exp", [1, 8, 9, 15, 16, 17, 20])
    def test_bases_are_big_endian_bits_at_every_width(self, m_exp):
        # across the uint16 -> int64 switch at M = 2^16 the values must not change
        bulk = keyed_bases(KeystreamGen.from_hex("c0ffee"), 1 << m_exp, 300)
        bits = unpacked(KeystreamGen.from_hex("c0ffee").bits(300 * m_exp),
                        300 * m_exp).reshape(300, m_exp)
        assert bulk.tolist() == [int("".join(map(str, row)), 2) for row in bits.tolist()]

    def test_interleaved_calls_deterministic(self):
        g1 = KeystreamGen.from_hex("77")
        g2 = KeystreamGen.from_hex("77")
        out1 = [int(keyed_bases(g1, m, 1)[0]) for m in (2, 8, 4, 64, 2, 16)]
        out2 = [int(keyed_bases(g2, m, 1)[0]) for m in (2, 8, 4, 64, 2, 16)]
        assert out1 == out2

    def test_basis_uniformity_chi_square(self):
        # maximal-length degree-32 stream: M=64 frequencies within 5 sigma
        draws = 60_000
        counts = np.bincount(keyed_bases(KeystreamGen.from_hex("deadbeef"), 64, draws),
                             minlength=64)
        p = 1 / 64
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)

    def test_from_hex_fill_matches_bit_serial_reference(self):
        gen = KeystreamGen.from_hex("deadbeef")
        fast = unpacked(gen.bits(500), 500)
        slow = np.empty(500, dtype=np.uint8)
        lfsr_fill(int("deadbeef", 16), [t - 1 for t in gen.taps], gen.degree - 1, slow)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("taps, degree", LFSR_POLYNOMIALS)
    def test_vectorised_bits_match_bit_serial_reference(self, taps, degree):
        """The register after some bits is the next `degree` bits, so reading them
        checks the state that each call leaves."""
        n = 100_003
        shifts = [t - 1 for t in taps]
        for seed in (1, 0xDEADBEEF, (1 << degree) - 1, 0x9E3779B97F4A7C15F39CC0605CEDC835):
            seed &= (1 << degree) - 1
            gen = KeystreamGen(seed, taps, degree)
            ref = np.empty(n + 2 * degree - 1, dtype=np.uint8)
            lfsr_fill(seed, shifts, degree - 1, ref)
            assert np.array_equal(unpacked(gen.bits(n), n), ref[:n])
            assert len(gen.bits(0)) == 0
            # n < degree
            assert np.array_equal(unpacked(gen.bits(degree - 1), degree - 1),
                                  ref[n:n + degree - 1])
            assert np.array_equal(unpacked(gen.bits(degree), degree), ref[n + degree - 1:])
            split = KeystreamGen(seed, taps, degree)
            joined = np.concatenate([unpacked(split.bits(12_345), 12_345),
                                     unpacked(split.bits(n - 12_345), n - 12_345)])
            assert np.array_equal(joined, ref[:n])
            assert np.array_equal(unpacked(split.bits(degree), degree), ref[n:n + degree])


@settings(max_examples=30, deadline=None)
@given(poly=st.sampled_from(LFSR_POLYNOMIALS), seed=st.integers(1, (1 << 127) - 1),
       calls=st.lists(st.one_of(st.just(0), st.integers(1, 126), st.integers(127, 5000)),
                      min_size=1, max_size=8))
def test_bits_split_into_calls_matches_one_call(poly, seed, calls):
    """bits() carries its history across calls: any split of the stream equals
    one call and the bit-serial reference, and so does the register after the last
    call, read as the next `degree` bits."""
    taps, degree = poly
    seed = seed % ((1 << degree) - 1) + 1
    total = sum(calls)
    ref = np.empty(total + degree, dtype=np.uint8)  # o[i]; the register at pos is o[pos:pos+d]
    lfsr_fill(seed, [t - 1 for t in taps], degree - 1, ref)
    gen = KeystreamGen(seed, taps, degree)
    pos = 0
    for n in calls:
        packed = gen.bits(n)
        assert len(packed) == (n + 7) // 8
        assert int.from_bytes(packed, "little") >> n == 0  # the bits past n are zero
        assert np.array_equal(unpacked(packed, n), ref[pos:pos + n])
        pos += n
    assert np.array_equal(unpacked(gen.bits(degree), degree), ref[total:])
    assert np.array_equal(unpacked(KeystreamGen(seed, taps, degree).bits(total), total),
                          ref[:total])


@pytest.mark.parametrize("taps, degree, calls", [
    ((32, 22, 2, 1), 32, [400_000] * 3),
    ((127, 126, 124, 120), 127, [700_000, 1000]),
])
def test_bits_history_is_capped(taps, degree, calls):
    """Calls much longer than the history keep exactly `degree` blocks of BLOCK_BITS
    bits, compute only the blocks their own output needs, and still continue the
    bit-serial reference."""
    from alphaeta.cipher import BLOCK_BITS
    seed = 0x9E3779B97F4A7C15F39CC0605CEDC835 % ((1 << degree) - 1) + 1
    ref = np.empty(sum(calls) + degree, dtype=np.uint8)
    lfsr_fill(seed, [t - 1 for t in taps], degree - 1, ref)
    gen = KeystreamGen(seed, taps, degree)
    pos = 0
    for n in calls:
        assert np.array_equal(unpacked(gen.bits(n), n), ref[pos:pos + n])
        pos += n
        assert gen._next == max(degree, -(-pos // BLOCK_BITS))
        assert len(gen._blocks) == degree
        assert max(b.bit_length() for b in gen._blocks) <= BLOCK_BITS
    assert np.array_equal(unpacked(gen.bits(degree), degree), ref[pos:])


def test_bits_with_blocks_shorter_than_the_degree(monkeypatch):
    from alphaeta import cipher
    monkeypatch.setattr(cipher, "BLOCK_BITS", 16)
    taps, degree = (89, 51), 89
    ref = np.empty(3000, dtype=np.uint8)
    lfsr_fill(12345, [t - 1 for t in taps], degree - 1, ref)
    gen = KeystreamGen(12345, taps, degree)
    assert np.array_equal(unpacked(gen.bits(1000), 1000), ref[:1000])
    assert len(gen._blocks) == degree
    assert np.array_equal(unpacked(gen.bits(2000), 2000), ref[1000:3000])


@settings(max_examples=60, deadline=None)
@given(m_exp=st.integers(0, 6), basis=st.integers(0, 63), bit=st.integers(0, 1),
       mapping=st.sampled_from(["alternating", "plain"]))
def test_encode_decode_inverse_property(m_exp, basis, bit, mapping):
    m = 1 << m_exp
    c = Constellation(m, mapping)
    basis %= m
    assert decode_lenient(encode(bit, basis, c), basis, c) == bit
