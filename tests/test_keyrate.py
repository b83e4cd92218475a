import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaeta.keyrate import binary_entropy, key_rate, key_rate_at_s


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_small_p_series(self):
        # h(p) = p log2(1/p) + p/ln2 + O(p^2)
        p = 1e-3
        series = p * math.log2(1 / p) + p / math.log(2)
        assert binary_entropy(p) == pytest.approx(series, rel=1e-3)
        assert binary_entropy(p) == pytest.approx(0.011408, rel=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(0, 1))
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0 <= h <= 1
        assert h == pytest.approx(binary_entropy(1 - p), abs=1e-12)


class TestKeyRate:
    def test_no_advantage_no_rate(self):
        assert key_rate(0.1, 0.1, 1e9).rate == 0.0
        assert key_rate(0.2, 0.1, 1e9).rate == 0.0  # eve better than bob

    def test_entropy_gap_examples(self):
        # oracle: direct entropy-gap evaluation
        for p_eve, order in [(math.exp(-14), 1e4), (math.exp(-7), 1e7)]:
            rep = key_rate(math.exp(-28), p_eve, 1e9)
            gap = binary_entropy(p_eve) - binary_entropy(math.exp(-28))
            assert rep.rate == pytest.approx(1e9 * gap, rel=1e-12)
            assert order / 2 < rep.rate < order * 4

    def test_invariant_rate_equals_line_rate_times_fraction(self):
        rep = key_rate(1e-6, 1e-3, 2.5e9)
        assert rep.rate == rep.line_rate * rep.fraction
        assert 0 <= rep.fraction <= 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            key_rate(-0.1, 0.2, 1e9)
        with pytest.raises(ValueError):
            key_rate(0.1, 0.2, 0.0)
        for line_rate in (math.inf, math.nan):  # json.dumps would print Infinity / NaN
            with pytest.raises(ValueError, match="finite"):
                key_rate(0.1, 0.2, line_rate)

    @given(p=st.floats(0, 0.5), q=st.floats(0, 0.5))
    def test_monotone_in_both_arguments(self, p, q):
        lo, hi = sorted([p, q])
        base = key_rate(0.01, lo, 1e9).rate
        assert key_rate(0.01, hi, 1e9).rate >= base - 1e-9
        assert key_rate(lo, 0.5, 1e9).rate >= key_rate(hi, 0.5, 1e9).rate - 1e-9


class TestKeyRateAtS:
    def test_s0_no_rate(self):
        rep = key_rate_at_s(0.0, "phase-deferred", 1e9)
        assert rep.rate == 0.0

    @pytest.mark.parametrize("strategy", ["phase-deferred", "heterodyne-deferred"])
    def test_strictly_decreasing_in_s(self, strategy):
        rates = [key_rate_at_s(s, strategy, 1e9).rate for s in (1, 2, 4, 6, 8)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_large_s_rate_collapses(self):
        rep = key_rate_at_s(30.0, "phase-deferred", 1e9)
        assert rep.rate < 1e-10 * 1e9

    def test_rejects_negative_s_and_bad_strategy(self):
        with pytest.raises(ValueError):
            key_rate_at_s(-1.0, "phase-deferred", 1e9)
        with pytest.raises(ValueError):
            key_rate_at_s(1.0, "crystal-ball", 1e9)
