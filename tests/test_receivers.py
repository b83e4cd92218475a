import functools
import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from alphaeta.cipher import Constellation
from alphaeta.fock import (
    coherent_amplitudes,
    hermitian_eigenvalues,
    mix,
    phase_distribution,
    pure_density,
)
from alphaeta.keyrate import key_rate_at_s
from alphaeta.names import EVE_STRATEGIES, MAPPINGS, RECEIVER_KINDS
from alphaeta.receivers import (
    BER_LAWS,
    _circulant_gram_spectrum,
    canonical_phase_antipodal,
    eve_nokey_helstrom,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
    homodyne_antipodal,
    signal_grid,
)
from references import exponent_fit


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

    def test_takes_only_the_signal(self):
        # the grid follows from S: no caller can pick one the Simpson weights do not fit
        assert list(inspect.signature(canonical_phase_antipodal).parameters) == ["s"]

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0, 20.0])
    def test_is_richardson_of_two_trapezoid_sums(self, s):
        # Simpson's rule on the far arc is (4 T_R - T_{R/2}) / 3, the trapezoid
        # sums taken on every node and on every other node of the same grid, the
        # 4096 points of phase_grid(S, 1) up to S = 1024
        grid = 4096
        dens = phase_distribution(s, grid)
        arc = np.concatenate((dens[3 * grid // 4:], dens[:grid // 4 + 1]))
        h = 2 * math.pi / grid

        def trapezoid(nodes, step):
            return step * (math.fsum(nodes) - (nodes[0] + nodes[-1]) / 2)

        oracle = (4 * trapezoid(arc, h) - trapezoid(arc[::2], 2 * h)) / 3
        assert canonical_phase_antipodal(s).exact == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0, 10.0, 20.0])
    def test_matches_mpmath_double_sum(self, s):
        # P(|phi| > pi/2) for the density |sum_n c_n e^{i n phi}|^2 / 2pi:
        # 1/2 - (1/pi) sum_{n != m} c_n c_m sin((m - n) pi/2) / (m - n),
        # c_n = e^{-S/2} S^{n/2} / sqrt(n!), cut where the Poisson tail is < 1e-40
        with mp.workdps(40):
            n_max = int(s + 20 * math.sqrt(s) + 30)
            c = [mp.exp(-mp.mpf(s) / 2) * mp.sqrt(mp.mpf(s) ** n / mp.factorial(n))
                 for n in range(n_max)]
            cross = mp.fsum(c[n] * c[m] * mp.sin((m - n) * mp.pi / 2) / (m - n)
                            for n in range(n_max) for m in range(n_max) if m != n)
            oracle = float(mp.mpf(1) / 2 - cross / mp.pi)
        assert canonical_phase_antipodal(s).exact == pytest.approx(oracle, rel=1e-10)
        if s == 7.0:  # the 140-digit value
            assert oracle == pytest.approx(2.1462450480e-5, rel=1e-10)


def mpmath_grid_phase_ber(s, resolution, n_max=200):
    """40-digit trapezoid sum of the phase density over |phi| >= pi/2 on the grid
    phi_k = -pi + 2 pi k / resolution, endpoints at half weight.

    With the density |sum_n c_n e^{-i n phi}|^2 / 2pi the sum is
    (1/2pi) sum_{n,m} c_n c_m W(n - m), where W(d) = h sum_k w_k cos(d phi_k) over
    the nodes phi = pi/2 + j h, j = 0..R/2, is a geometric sum in closed form.
    """
    with mp.workdps(40):
        s = mp.mpf(s)
        c = [mp.exp((n * mp.log(s) - s - mp.loggamma(n + 1)) / 2) for n in range(n_max)]
        h, half = 2 * mp.pi / resolution, resolution // 2

        def w(d):
            if d == 0:
                return h * half
            nodes = (mp.cos(d * mp.pi / 2 + half * d * h / 2) * mp.sin((half + 1) * d * h / 2)
                     / mp.sin(d * h / 2))
            return h * (nodes - (mp.cos(d * mp.pi / 2) + mp.cos(3 * d * mp.pi / 2)) / 2)

        total = w(0) * mp.fsum(x * x for x in c)
        for d in range(1, n_max):
            total += 2 * w(d) * mp.fsum(c[n] * c[n + d] for n in range(n_max - d))
        return total / (2 * mp.pi)


@pytest.mark.parametrize("s, golden", [
    (0.5, 0.1301270938236632),
    (1.75, 0.018133958237607745),
    (2.0, 0.012680500611360834),
    (3.0, 0.0032095672042566363),
    (4.0, 0.0008659387830626066),
    (6.0, 7.141406208225578e-05),
    (8.0, 6.601042683634129e-06),
])
def test_golden_phase_values_match_40_digit_grid_sum(s, golden):
    # the canonical-phase values pinned by the ber-table-csv, ber-table-json and
    # keyrate-s digests; Simpson's rule is (4 T_4096 - T_2048) / 3
    exact = canonical_phase_antipodal(s).exact
    assert exact == golden
    oracle = (4 * mpmath_grid_phase_ber(s, 4096) - mpmath_grid_phase_ber(s, 2048)) / 3
    assert abs(exact - oracle) <= 5e-15 * oracle


@pytest.mark.parametrize("s", [1490.0, 2000.0, 1e4, 1e5])
def test_phase_ber_where_e_minus_s_over_2_underflows(s):
    # the exact law (about e^{-S}) is below the density's ~2e-32 FFT rounding floor
    law = canonical_phase_antipodal(s)
    assert 0.0 <= law.exact < 1e-24


def eve_law(strategy, s):
    """Law a deferred-decision eavesdropper reaches once the basis is revealed."""
    return BER_LAWS[EVE_STRATEGIES[strategy]](s)


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
                key_rate_at_s(1.0, strategy, 1e9)


@functools.lru_cache(maxsize=None)
def mpmath_poisson(s):
    """40-digit Poisson terms e^{-S} S^n / n! for n < S + 20 sqrt(S) + 40; the terms
    after them sum to less than 1e-80."""
    with mp.workdps(40):
        s = mp.mpf(s)
        terms, term = [], mp.exp(-s)
        for k in range(int(s + 20 * mp.sqrt(s) + 40)):
            terms.append(term)
            term *= s / (k + 1)
        return terms


def mpmath_gram_spectrum(s, n_points):
    """40-digit lambda_q = N * sum_{n = q mod N} e^{-S} S^n / n!, as mpf."""
    with mp.workdps(40):
        mass = [mp.mpf(0)] * n_points
        for n, term in enumerate(mpmath_poisson(s)):
            mass[n % n_points] += term
        return [n_points * x for x in mass]


def fock_state(s, phase):
    """Amplitudes of |sqrt(S) e^{i phase}> on n = 0, 1, ..., cut after the last one
    above 1e-20 (the rest change no density-matrix entry by more than 1e-20)."""
    n, c = coherent_amplitudes(s)
    keep = int(np.flatnonzero(c > 1e-20)[-1]) + 1
    return c[:keep] * np.exp(1j * n[:keep] * phase)


def dense_nokey_helstrom(s, const):
    """Reference no-key bound: the full N x N Hermitian H in the Gram basis, N = 2M."""
    n = const.num_points
    sqrt_lam = np.sqrt(np.array(mpmath_gram_spectrum(s, n), dtype=float))
    weights = (1.0 - 2.0 * const.point_bit(np.arange(n))) / const.m_bases
    c_hat = np.fft.ifft(weights)
    q = np.arange(n)
    h = np.outer(sqrt_lam, sqrt_lam) * c_hat[(q[:, None] - q[None, :]) % n]
    p_e = 0.5 - 0.25 * float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return min(max(p_e, 0.0), 0.5)


def mpmath_nokey_helstrom(s, const):
    """40-digit no-key bound: mp.eighe on the Gram-basis H, Poisson mass summed exactly."""
    with mp.workdps(40):
        n = const.num_points
        lam = mpmath_gram_spectrum(s, n)
        c = [mp.mpf(1 - 2 * const.point_bit(j)) / const.m_bases for j in range(n)]
        c_hat = [mp.fsum(c[j] * mp.expjpi(mp.mpf(2 * d * j) / n) for j in range(n)) / n
                 for d in range(n)]
        h = mp.matrix(n, n)
        for q in range(n):
            for r in range(n):
                h[q, r] = mp.sqrt(lam[q] * lam[r]) * c_hat[(q - r) % n]
        eigs = mp.eighe(h, eigvals_only=True)
        return mp.mpf(1) / 2 - mp.fsum(abs(e) for e in eigs) / 4


class TestEveNokey:
    def test_s0_any_m(self):
        assert eve_nokey_helstrom(0.0, Constellation(8)) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("m", [2, 8, 1024, 4096])
    def test_s0_is_exactly_one_half(self, m, mapping):
        # only lambda_0 survives: the even x odd block is 1 x 0 and has no singular values
        assert eve_nokey_helstrom(0.0, Constellation(m, mapping)) == 0.5

    def test_deployed_regime_sits_just_below_the_two_defect_ceiling(self):
        """The alternating mapping leaves two pairs of same-bit neighbours on the
        circle; once Eve's phase noise spans many points, only they inform her and
        p_e tends to 1/2 - 1/(2M) from below."""
        ceiling = 0.5 - 1.0 / (2 * 4096)
        assert ceiling - 1e-6 <= eve_nokey_helstrom(1e4, Constellation(4096)) < ceiling

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
                rho = pure_density(fock_state(s, math.pi * j / const.m_bases))
                by_bit[const.point_bit(j)].append((1.0 / m, rho))
            diff = mix(by_bit[0]).entries - mix(by_bit[1]).entries
            oracle = 0.5 - 0.25 * float(np.sum(np.abs(hermitian_eigenvalues(diff))))
            assert eve_nokey_helstrom(s, const) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 7.0, 30.0, 100.0, 400.0, 1e4])
    def test_m1_is_the_helstrom_closed_form(self, s):
        # the 2-point mixture is the keyed pair itself: no rounding of 1/2 - 1/2 sum sigma
        assert eve_nokey_helstrom(s, Constellation(1)) == helstrom_pure_antipodal(s).exact

    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("m", [1, 2, 4, 64])
    @pytest.mark.parametrize("s", [0.5, 7.0, 30.0, 100.0, 1e4])
    def test_never_below_keyed_helstrom_bound(self, s, m, mapping):
        # an eavesdropper without the key can never beat one who knows the basis
        p = eve_nokey_helstrom(s, Constellation(m, mapping))
        assert p >= helstrom_pure_antipodal(s).exact

    def test_large_s_beyond_fock_range(self):
        # S=1e4 underflows e^{-S/2}; the Gram spectrum needs no Fock cutoff
        p64, p256 = (eve_nokey_helstrom(1e4, Constellation(m)) for m in (64, 256))
        assert 0.0 <= p64 <= p256 <= 0.5

    @pytest.mark.parametrize("s", [0.5, 7.0, 100.0, 1e3, 1e4, 1e5])
    def test_spectrum_matches_the_40_digit_folded_poisson(self, s):
        for n_points in (2, 16, 128, 1024):
            exact = np.array(mpmath_gram_spectrum(s, n_points), dtype=float)
            keep = exact > 1e-30
            rel = np.abs(_circulant_gram_spectrum(s, n_points)[keep] / exact[keep] - 1.0)
            assert rel.max() <= 2e-13, n_points

    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("s", [0.5, 7.0, 100.0, 1e3, 1e4])
    def test_block_svd_matches_dense_reference(self, s, mapping):
        for m in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]:
            const = Constellation(m, mapping)
            assert eve_nokey_helstrom(s, const) == pytest.approx(
                dense_nokey_helstrom(s, const), abs=1e-14)

    def test_support_cut_drops_residues_at_s1e3_m512(self):
        # the case above where the block is built on fewer than the 2M residues
        assert 0 < np.count_nonzero(_circulant_gram_spectrum(1e3, 1024) > 1e-32) < 1024

    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_deployed_regime_matches_dense_reference(self, mapping):
        const = Constellation(1024, mapping)
        p = eve_nokey_helstrom(1e4, const)
        assert p == pytest.approx(dense_nokey_helstrom(1e4, const), abs=1e-14)
        if mapping == "alternating":
            assert p == pytest.approx(0.49948326204809856, abs=1e-14)

    @pytest.mark.parametrize("s, m, mapping", [
        (7.0, 2, "alternating"), (7.0, 4, "alternating"), (7.0, 8, "alternating"),
        (30.0, 4, "plain"), (30.0, 16, "plain")])
    def test_matches_mpmath_oracle(self, s, m, mapping):
        # the golden eve-nokey cases; the float path is within 6e-17 of 40 digits here
        const = Constellation(m, mapping)
        oracle = mpmath_nokey_helstrom(s, const)
        assert abs(eve_nokey_helstrom(s, const) - float(oracle)) <= 5e-16

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


def test_signal_grid_is_linspace():
    """The numpy-free grid gives np.linspace's values bit for bit: those of the
    ber-table goldens and the benchmark's 0..10 in 201 steps, and random ranges."""
    rng = np.random.default_rng(7)
    grids = [(0.0, 10.0, 201), (0.0, 8.0, 5), (0.5, 3.0, 3), (0.0, 10.0, 21), (3.0, 3.0, 4)]
    for _ in range(2000):
        s_min = float(rng.choice([0.0, rng.uniform(0, 10), 10 ** rng.uniform(-5, 5)]))
        s_max = s_min + float(rng.choice([0.0, rng.uniform(0, 10), 10 ** rng.uniform(-8, 6)]))
        grids.append((s_min, s_max, int(rng.integers(2, 500))))
    for s_min, s_max, steps in grids:
        reference = np.linspace(s_min, s_max, steps)
        if s_min == s_max:
            reference = reference[:1]
        assert signal_grid(s_min, s_max, steps) == reference.tolist(), (s_min, s_max, steps)


class TestRegistry:
    def test_receiver_laws_are_the_closed_forms(self):
        direct = {"optimal": helstrom_pure_antipodal, "phase": canonical_phase_antipodal,
                  "homodyne": homodyne_antipodal, "heterodyne": heterodyne_antipodal}
        assert RECEIVER_KINDS == tuple(BER_LAWS) == tuple(direct)
        for kind, law in direct.items():
            for s in (0.0, 0.7, 7.0):
                assert BER_LAWS[kind](s) == law(s)

    def test_eve_strategies_map_to_receiver_kinds(self):
        assert EVE_STRATEGIES == {"phase-deferred": "phase",
                                  "heterodyne-deferred": "heterodyne",
                                  "nearest-point": None}
