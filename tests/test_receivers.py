import math

import mpmath as mp
import numpy as np
import pytest

from alphaeta.cipher import Constellation
from alphaeta.fock import coherent_amplitudes, hermitian_eigenvalues, mix, pure_density
from alphaeta.keyrate import key_rate_vs_s
from alphaeta.receivers import (
    BER_LAWS,
    EVE_STRATEGIES,
    RECEIVER_KINDS,
    ReceiverModel,
    canonical_phase_antipodal,
    eve_nokey_helstrom,
    exponent_fit,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
    homodyne_antipodal,
)


class TestHelstrom:
    def test_s0_is_coin_flip(self):
        assert helstrom_pure_antipodal(0.0).exact == 0.5

    def test_s7_asymptotic(self):
        law = helstrom_pure_antipodal(7.0)
        assert law.asymptotic == pytest.approx(math.exp(-28), rel=1e-12)
        assert law.asymptotic == pytest.approx(6.91e-13, rel=0.01)

    def test_s7_exact_quarter_of_asymptotic(self):
        law = helstrom_pure_antipodal(7.0)
        assert law.exact == pytest.approx(1.729e-13, rel=1e-3)
        assert law.exact == pytest.approx(law.asymptotic / 4, rel=1e-3)

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
    def test_matches_mixed_state_helstrom_oracle(self, s):
        # the rank-1 trace-norm route must reproduce the closed form
        oracle = eve_nokey_helstrom(s, Constellation(1))
        assert helstrom_pure_antipodal(s).exact == pytest.approx(oracle, abs=1e-10)


class TestHeterodyne:
    def test_s0(self):
        assert heterodyne_antipodal(0.0).exact == 0.5

    def test_s7_values(self):
        law = heterodyne_antipodal(7.0)
        assert law.asymptotic == pytest.approx(9.12e-4, rel=0.01)
        assert law.exact == pytest.approx(9.6e-5, rel=0.05)

    def test_monte_carlo_gaussian_oracle(self):
        # sign decision on sqrt(S) + N(0, 1/2), 1e8 samples in chunks
        s, trials, chunk = 7.0, 10 ** 8, 10 ** 7
        rng = np.random.default_rng(2024)
        errors = sum(
            int(np.count_nonzero(math.sqrt(s) + rng.normal(scale=math.sqrt(0.5), size=chunk) < 0))
            for _ in range(trials // chunk))
        p = heterodyne_antipodal(s).exact
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(errors / trials - p) < 3 * sigma


class TestHomodyne:
    def test_s0(self):
        assert homodyne_antipodal(0.0).exact == 0.5

    def test_s7_asymptotic(self):
        assert homodyne_antipodal(7.0).asymptotic == pytest.approx(math.exp(-14), rel=1e-12)

    def test_s2_exact(self):
        assert homodyne_antipodal(2.0).exact == pytest.approx(0.5 * math.erfc(2.0), rel=1e-12)
        assert homodyne_antipodal(2.0).exact == pytest.approx(2.34e-3, rel=0.01)


def test_erfc_against_high_precision_oracle():
    # the exact Gaussian laws lean on math.erfc; pin it to 1e-12 relative
    mp.mp.dps = 30
    for i in range(20):
        x = 0.4 * (i + 1)  # 0.4 .. 8.0
        assert math.erfc(x) == pytest.approx(float(mp.erfc(x)), rel=1e-12)


class TestCanonicalPhase:
    def test_s0_uniform_density(self):
        assert canonical_phase_antipodal(0.0).exact == pytest.approx(0.5, abs=1e-12)

    def test_s7_asymptotic(self):
        assert canonical_phase_antipodal(7.0).asymptotic == pytest.approx(math.exp(-14), rel=1e-12)

    def test_s7_two_resolution_agreement(self):
        a = canonical_phase_antipodal(7.0, 4096).exact
        b = canonical_phase_antipodal(7.0, 16384).exact
        assert a == pytest.approx(b, rel=1e-3)
        # frozen from the self-validating quadrature (and an independent
        # high-precision quadrature of the same density)
        assert b == pytest.approx(2.1462450919e-05, rel=1e-6)

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            canonical_phase_antipodal(1.0, 2048)


def eve_law(strategy, s):
    """Law a deferred-decision eavesdropper reaches once the basis is revealed."""
    return ReceiverModel(EVE_STRATEGIES[strategy]).law(s)


class TestEveDeferred:
    def test_equals_corresponding_antipodal_law(self):
        assert eve_law("phase-deferred", 7.0).exact == canonical_phase_antipodal(7.0).exact
        assert eve_law("heterodyne-deferred", 7.0).exact == heterodyne_antipodal(7.0).exact

    def test_s7_asymptotics(self):
        assert eve_law("phase-deferred", 7.0).asymptotic == pytest.approx(8.32e-7, rel=0.01)
        assert eve_law("heterodyne-deferred", 7.0).asymptotic == pytest.approx(9.12e-4, rel=0.01)

    def test_s0(self):
        assert eve_law("phase-deferred", 0.0).exact == pytest.approx(0.5, abs=1e-12)
        assert eve_law("heterodyne-deferred", 0.0).exact == 0.5

    def test_unknown_strategy(self):
        for strategy in ("telepathy", "nearest-point", "none"):
            with pytest.raises(ValueError):
                key_rate_vs_s([1.0], strategy, 1e9)


class TestEveNokey:
    def test_s0_any_m(self):
        assert eve_nokey_helstrom(0.0, Constellation(8)) == pytest.approx(0.5, abs=1e-10)

    def test_nondecreasing_in_m_and_bounded(self):
        s = 7.0
        lower = helstrom_pure_antipodal(s).exact
        prev = 0.0
        for m in [1, 2, 4, 8, 16, 32, 64]:
            p = eve_nokey_helstrom(s, Constellation(m, "alternating"))
            assert lower - 1e-10 <= p <= 0.5
            assert p >= prev - 1e-12
            prev = p
        assert prev > 0.45  # M=64 masks the bit almost completely

    @pytest.mark.parametrize("s", [1.0, 4.0, 7.0])
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_alternating_hides_at_least_as_well_as_plain(self, s, m):
        alt = eve_nokey_helstrom(s, Constellation(m, "alternating"))
        plain = eve_nokey_helstrom(s, Constellation(m, "plain"))
        assert alt >= plain - 1e-12

    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0, 7.0, 30.0])
    def test_matches_fock_mixture_oracle(self, s, mapping):
        for m in [1, 2, 4, 8, 16, 32, 64]:
            const = Constellation(m, mapping)
            by_bit = {0: [], 1: []}
            for j in range(const.num_points):
                rho = pure_density(coherent_amplitudes(s, const.point_phase(j)))
                by_bit[const.point_bit(j)].append((1.0 / m, rho))
            diff = mix(by_bit[0]).entries - mix(by_bit[1]).entries
            oracle = 0.5 - 0.25 * float(np.sum(np.abs(hermitian_eigenvalues(diff))))
            assert eve_nokey_helstrom(s, const) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 7.0, 100.0, 1e3, 1e4])
    def test_m1_equals_helstrom_closed_form(self, s):
        p = eve_nokey_helstrom(s, Constellation(1))
        assert p == pytest.approx(helstrom_pure_antipodal(s).exact, abs=1e-12)

    def test_large_s_beyond_fock_range(self):
        # S=1e4 underflows e^{-S/2}; the Gram spectrum needs no Fock cutoff
        p64, p256 = (eve_nokey_helstrom(1e4, Constellation(m)) for m in (64, 256))
        assert 0.0 <= p64 <= p256 <= 0.5

    @pytest.mark.parametrize("s", [-1.0, math.inf, math.nan])
    def test_rejects_bad_signal(self, s):
        with pytest.raises(ValueError):
            eve_nokey_helstrom(s, Constellation(4))


class TestExponentFit:
    def test_exact_exponential(self):
        pts = [(s, math.exp(-4 * s)) for s in range(2, 9)]
        assert exponent_fit(pts) == pytest.approx(-4.0, abs=1e-9)

    def test_helstrom_slope(self):
        pts = [(s, helstrom_pure_antipodal(float(s)).exact) for s in range(4, 11)]
        assert -4.3 < exponent_fit(pts) < -3.7

    def test_canonical_phase_slope(self):
        # The half-plane tail of the canonical phase density has Theta(e^-S)
        # wings (the vacuum and low-photon amplitudes cannot be suppressed
        # further), so the fitted exponent over S in [4, 10] sits near -1.2,
        # well above the -2 of the asymptotic envelope.
        pts = [(s, canonical_phase_antipodal(float(s)).exact) for s in range(4, 11)]
        assert exponent_fit(pts) == pytest.approx(-1.1952, abs=0.01)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exponent_fit([(1, 0.1), (2, 0.0), (3, 0.1), (4, 0.1)])
        with pytest.raises(ValueError):
            exponent_fit([(1, 0.1), (1, 0.1), (3, 0.1), (4, 0.1)])
        with pytest.raises(ValueError):
            exponent_fit([(1, 0.1), (2, 0.05)])


class TestHierarchy:
    def test_ordering_over_s(self):
        for s in np.linspace(0.05, 10, 100):
            h = helstrom_pure_antipodal(s).exact
            c = canonical_phase_antipodal(s).exact
            ho = homodyne_antipodal(s).exact
            he = heterodyne_antipodal(s).exact
            assert h <= ho + 1e-12
            assert h <= c <= he + 1e-12

    def test_keyed_measurement_advantage(self):
        for s in np.linspace(1, 10, 19):
            bob = helstrom_pure_antipodal(s).exact
            eve = eve_law("phase-deferred", s).exact
            assert bob < eve

    def test_exact_bers_nonincreasing_in_s(self):
        grid = np.linspace(0, 10, 60)
        for law in (helstrom_pure_antipodal, canonical_phase_antipodal,
                    homodyne_antipodal, heterodyne_antipodal):
            vals = [law(float(s)).exact for s in grid]
            assert np.all(np.diff(vals) <= 1e-12)


def test_receiver_model_validation():
    assert ReceiverModel("phase").resolution == 4096
    with pytest.raises(ValueError):
        ReceiverModel("lidar")
    with pytest.raises(ValueError):
        ReceiverModel("phase", 1024)
    with pytest.raises(ValueError):
        ReceiverModel("phase", 4097)


class TestRegistry:
    def test_receiver_laws_are_the_closed_forms(self):
        direct = {"optimal": helstrom_pure_antipodal, "phase": canonical_phase_antipodal,
                  "homodyne": homodyne_antipodal, "heterodyne": heterodyne_antipodal}
        assert RECEIVER_KINDS == tuple(BER_LAWS) == tuple(direct)
        for kind, law in direct.items():
            for s in (0.0, 0.7, 7.0):
                assert ReceiverModel(kind).law(s) == law(s)
        assert ReceiverModel("phase", 8192).law(2.0) == canonical_phase_antipodal(2.0, 8192)

    def test_eve_strategies_map_to_receiver_kinds(self):
        assert EVE_STRATEGIES == {"phase-deferred": "phase",
                                  "heterodyne-deferred": "heterodyne",
                                  "nearest-point": None}
