import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeta.cipher import (
    Constellation,
    KeystreamGen,
    decode,
    decode_lenient,
    dsr_offset,
    encode,
)

POWERS_OF_TWO = [1, 2, 4, 8, 16, 32, 64]


class TestConstellation:
    def test_rejects_non_power_of_two_and_bad_mapping(self):
        with pytest.raises(ValueError):
            Constellation(3)
        with pytest.raises(ValueError):
            Constellation(0)
        with pytest.raises(ValueError):
            Constellation(4, "zigzag")

    def test_point_phases(self):
        c = Constellation(4)
        assert [c.point_phase(j) for j in range(8)] == pytest.approx(
            [j * math.pi / 4 for j in range(8)])

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
        assert decode(7, 3, c) == 1

    def test_alternating_examples(self):
        c = Constellation(4, "alternating")
        assert encode(0, 0, c) == 0
        assert encode(0, 1, c) == 5
        assert decode(5, 1, c) == 0

    @pytest.mark.parametrize("m", POWERS_OF_TWO)
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_round_trip_exhaustive(self, m, mapping):
        c = Constellation(m, mapping)
        for basis in range(m):
            for bit in (0, 1):
                j = encode(bit, basis, c)
                assert 0 <= j < 2 * m
                assert decode(j, basis, c) == bit
                assert c.point_bit(j) == bit

    def test_decode_rejects_out_of_pair_point(self):
        c = Constellation(4)
        with pytest.raises(ValueError, match="keyed pair"):
            decode(2, 1, c)

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

    def test_decode_lenient_vectorized(self):
        c = Constellation(8)
        j = np.array([0, 9, 5, 12])
        basis = np.array([0, 1, 5, 4])
        expected = [decode_lenient(int(a), int(b), c) for a, b in zip(j, basis)]
        assert decode_lenient(j, basis, c).tolist() == expected


class TestDsrOffset:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        assert dsr_offset(rng, 0, 5, 8) == 5

    def test_rejects_half_plane_violation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dsr_offset(rng, 4, 0, 8)
        with pytest.raises(ValueError):
            dsr_offset(rng, -1, 0, 8)

    def test_vectorized_window_and_draws(self):
        j = np.arange(16) % 8
        assert dsr_offset(np.random.default_rng(5), 0, j, 4) is j  # no draw at d = 0
        out = dsr_offset(np.random.default_rng(5), 2, j, 8)
        dither = np.random.default_rng(5).integers(-2, 3, size=16)
        assert out.tolist() == ((j + dither) % 16).tolist()
        assert set(((out - j + 8) % 16 - 8).tolist()) <= {-2, -1, 0, 1, 2}

    def test_uniform_over_window(self):
        rng = np.random.default_rng(99)
        n = 100_000
        hits = {15: 0, 0: 0, 1: 0}
        for _ in range(n):
            hits[dsr_offset(rng, 1, 0, 8)] += 1
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for count in hits.values():
            assert abs(count - n / 3) < 5 * sigma


class TestKeystreamGen:
    def test_degree4_period_15(self):
        # oracle: exhaustive state enumeration of the maximal degree-4 LFSR
        gen = KeystreamGen(0b0001, taps=(4, 1), degree=4)
        states = []
        state = gen.register
        while state not in states:
            states.append(state)
            gen.bits(1)
            state = gen.register
        assert len(states) == 15
        fresh = KeystreamGen(0b0001, taps=(4, 1), degree=4)
        seq = fresh.bits(45)
        assert np.array_equal(seq[:15], seq[15:30])
        assert np.array_equal(seq[15:30], seq[30:45])

    def test_zero_bits_leaves_state(self):
        gen = KeystreamGen.from_hex("abc123")
        before = gen.register
        assert gen.bits(0).size == 0
        assert gen.register == before

    def test_determinism(self):
        a = KeystreamGen.from_hex("deadbeef").bits(1000)
        b = KeystreamGen.from_hex("deadbeef").bits(1000)
        assert np.array_equal(a, b)

    def test_rejects_all_zero_seed(self):
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("0")
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("100000000")  # only bits above the register

    def test_rejects_bad_hex_and_taps(self):
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("xyz")
        with pytest.raises(ValueError):
            KeystreamGen(1, taps=(3, 1), degree=4)

    def test_next_basis_binary_interpretation(self):
        gen = KeystreamGen.from_hex("deadbeef")
        bits = KeystreamGen.from_hex("deadbeef").bits(2)
        expected = (int(bits[0]) << 1) | int(bits[1])
        assert gen.bases(4, 1).tolist() == [expected]

    def test_m1_consumes_nothing(self):
        gen = KeystreamGen.from_hex("1")
        before = gen.register
        assert gen.bases(1, 5).tolist() == [0] * 5
        assert gen.register == before

    def test_rejects_non_power_of_two_m(self):
        with pytest.raises(ValueError):
            KeystreamGen.from_hex("1").bases(6, 1)

    def test_bases_matches_sequential_next_basis(self):
        bulk = KeystreamGen.from_hex("c0ffee").bases(16, 200)
        gen = KeystreamGen.from_hex("c0ffee")
        seq = [int(gen.bases(16, 1)[0]) for _ in range(200)]
        assert bulk.tolist() == seq
        # bit-serial reference: each basis is 4 keystream bits read big-endian
        bits = KeystreamGen.from_hex("c0ffee").bits(800).reshape(200, 4)
        assert bulk.tolist() == [int("".join(map(str, row)), 2) for row in bits]

    def test_interleaved_calls_deterministic(self):
        g1 = KeystreamGen.from_hex("77")
        g2 = KeystreamGen.from_hex("77")
        out1 = [int(g1.bases(m, 1)[0]) for m in (2, 8, 4, 64, 2, 16)]
        out2 = [int(g2.bases(m, 1)[0]) for m in (2, 8, 4, 64, 2, 16)]
        assert out1 == out2

    def test_basis_uniformity_chi_square(self):
        # maximal-length degree-32 stream: M=64 frequencies within 5 sigma
        draws = 60_000
        counts = np.bincount(KeystreamGen.from_hex("deadbeef").bases(64, draws),
                             minlength=64)
        p = 1 / 64
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)

    def test_python_fallback_matches_fast_path(self):
        from alphaeta.cipher import _lfsr_fill_py
        gen = KeystreamGen.from_hex("deadbeef")
        fast = gen.bits(500)
        slow = np.empty(500, dtype=np.uint8)
        _lfsr_fill_py(int("deadbeef", 16), [t - 1 for t in gen.taps], gen.degree - 1, slow)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("taps, degree", [
        ((4, 3), 4),
        ((32, 22, 2, 1), 32),
        ((64, 63, 61, 60), 64),
        ((89, 51), 89),
        ((127, 126, 124, 120), 127),
    ])
    def test_vectorised_bits_match_bit_serial_reference(self, taps, degree):
        from alphaeta.cipher import _lfsr_fill_py
        n = 100_003
        shifts = [t - 1 for t in taps]
        for seed in (1, 0xDEADBEEF, (1 << degree) - 1, 0x9E3779B97F4A7C15F39CC0605CEDC835):
            gen = KeystreamGen(seed, taps, degree)
            ref = np.empty(n + degree - 1, dtype=np.uint8)
            mid_state = _lfsr_fill_py(gen.register, shifts, degree - 1, ref[:n])
            end_state = _lfsr_fill_py(mid_state, shifts, degree - 1, ref[n:])
            assert np.array_equal(gen.bits(n), ref[:n])
            assert gen.register == mid_state
            assert gen.bits(0).size == 0
            assert gen.register == mid_state
            assert np.array_equal(gen.bits(degree - 1), ref[n:])  # n < degree
            assert gen.register == end_state
            split = KeystreamGen(seed, taps, degree)
            joined = np.concatenate([split.bits(12_345), split.bits(n - 12_345)])
            assert np.array_equal(joined, ref[:n])
            assert split.register == mid_state


@settings(max_examples=60, deadline=None)
@given(m_exp=st.integers(0, 6), basis=st.integers(0, 63), bit=st.integers(0, 1),
       mapping=st.sampled_from(["alternating", "plain"]))
def test_encode_decode_inverse_property(m_exp, basis, bit, mapping):
    m = 1 << m_exp
    c = Constellation(m, mapping)
    basis %= m
    assert decode(encode(bit, basis, c), basis, c) == bit
