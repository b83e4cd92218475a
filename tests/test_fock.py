import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeta.fock import (
    coherent_amplitudes,
    hermitian_eigenvalues,
    log_poisson,
    mix,
    phase_distribution,
    phase_tails,
    photon_window,
    pure_density,
)


def closed_form_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> = exp(-(|a|^2+|b|^2)/2 + conj(a) b)."""
    return np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)


def state(s: float, phase: float, dim: int | None = None) -> np.ndarray:
    """Amplitudes of |sqrt(S) e^{i phase}> on n = 0..dim-1 (window starting at 0).

    Without dim, the trailing amplitudes below 1e-20 are cut: they change no
    entry of |v><v| by more than 1e-20.
    """
    n, c = coherent_amplitudes(s)
    assert n[0] == 0
    if dim is None:
        dim = int(np.flatnonzero(c > 1e-20)[-1]) + 1
    v = np.zeros(dim, dtype=complex)
    v[:min(dim, len(c))] = (c * np.exp(1j * n * phase))[:dim]
    return v


def mpmath_density(s: float, resolution: int, ks) -> list[float]:
    """30-digit |sum_n c_n e^{-i n phi_k}|^2 / 2pi at phi_k = -pi + 2 pi k / resolution,
    summed over n in S -+ (50 sqrt(S) + 100)."""
    with mp.workdps(30):
        lo = max(0, int(s - 50 * math.sqrt(s) - 100))
        hi = int(s + 50 * math.sqrt(s) + 100)
        s_mp = mp.mpf(s)
        first = mp.exp((lo * mp.log(s_mp) - s_mp - mp.loggamma(lo + 1)) / 2)
        out = []
        for k in ks:
            z = mp.expjpi(-mp.mpf(2 * k - resolution) / resolution)  # e^{-i phi_k}
            term, total = first * z ** lo, mp.mpc(0)
            for n in range(lo, hi + 1):
                total += term
                term *= mp.sqrt(s_mp / (n + 1)) * z
            out.append(float(abs(total) ** 2 / (2 * mp.pi)))
        return out


class TestPhotonWindow:
    @pytest.mark.parametrize("s", [0.5, 7.0, 100.0, 1e3, 1490.0, 1e4, 1e5])
    def test_terms_outside_are_below_1e_160(self, s):
        n = photon_window(s).tolist()
        assert log_poisson(s, n[-1] + 1) < math.log(1e-160)
        if n[0] > 0:
            assert np.exp(log_poisson(s, n[0] - 1)) == 0.0
        assert math.fsum(np.exp([log_poisson(s, k) for k in n])) == pytest.approx(1.0, abs=1e-9)

    def test_starts_at_zero_below_about_1716(self):
        assert photon_window(0.0).tolist() == list(range(61))
        assert photon_window(1700.0)[0] == 0
        assert photon_window(1e4)[0] == 5940


class TestCoherentAmplitudes:
    def test_vacuum(self):
        n, c = coherent_amplitudes(0.0)
        assert n[0] == 0 and c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_s1_ground_amplitude_is_exact(self):
        _, c = coherent_amplitudes(1.0)
        assert c[0] == math.exp(-0.5)
        assert math.fsum(c ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_s7_term_by_term(self):
        # oracle: direct series in log space
        n, c = coherent_amplitudes(7.0)
        expected = [math.exp(-3.5 + 0.5 * k * math.log(7) - 0.5 * math.lgamma(k + 1))
                    for k in n.tolist()]
        np.testing.assert_allclose(c, expected, rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("s", [0.5, 7.0, 100.0, 1e3, 1416.0, 1490.0, 1716.0, 2000.0,
                                   1e4, 1e5])
    def test_normalized_and_real_at_any_s(self, s):
        # S=1490 (window from 0, e^{-S/2} subnormal) and S=2000 (e^{-S/2} = 0) were
        # the two amplitude-underflow failures of a basis starting from e^{-S/2}
        n, c = coherent_amplitudes(s)
        assert len(n) == len(c) and np.all(np.diff(n) == 1)
        assert np.all(c >= 0.0)
        assert math.fsum(c ** 2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", [1490.0, 2000.0])
    def test_first_normal_amplitude_is_taken_in_the_log_domain(self, s):
        n, c = coherent_amplitudes(s)
        first = int(np.flatnonzero(c)[0])
        log_c = 0.5 * (n[first] * math.log(s) - s - math.lgamma(n[first] + 1))
        assert np.all(c[:first] == 0.0)
        assert np.finfo(float).tiny <= c[first] == math.exp(log_c)
        assert math.exp(0.5 * (n[first - 1] * math.log(s) - s - math.lgamma(n[first])))\
            < np.finfo(float).tiny

    def test_invalid_inputs(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                coherent_amplitudes(bad)


class TestInnerProducts:
    def test_s7_antipodal_overlap(self):
        a, b = state(7.0, 0.0), state(7.0, math.pi)
        assert abs(np.vdot(a, b)) ** 2 == pytest.approx(math.exp(-28), rel=1e-9)

    def test_vacuum_overlap(self):
        v = state(5.0, 0.0)
        assert np.vdot(state(0.0, 0.0, len(v)), v).real == pytest.approx(math.exp(-2.5),
                                                                          rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(sa=st.floats(0, 10), sb=st.floats(0, 10),
           pa=st.floats(-math.pi, math.pi), pb=st.floats(-math.pi, math.pi))
    def test_matches_closed_form(self, sa, sb, pa, pb):
        dim = len(photon_window(10.0))
        got = np.vdot(state(sa, pa, dim), state(sb, pb, dim))
        alpha = math.sqrt(sa) * np.exp(1j * pa)
        beta = math.sqrt(sb) * np.exp(1j * pb)
        assert got == pytest.approx(closed_form_overlap(alpha, beta), abs=1e-10)


class TestDensityMatrices:
    def test_vacuum_projector(self):
        rho = pure_density(state(0.0, 0.0, 9))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        assert np.allclose(rho.entries, expected)

    def test_trace_is_norm(self):
        rho = pure_density(state(3.0, 0.7))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_spectrum(self):
        rho = pure_density(state(1.0, 0.0))
        eigs = hermitian_eigenvalues(rho.entries)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(eigs[:-1]) < 1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            pure_density(0.9 * state(1.0, 0.0))

    def test_mix_single_state_identity(self):
        rho = pure_density(state(2.0, 0.4))
        assert np.allclose(mix([(1.0, rho)]).entries, rho.entries)

    def test_mix_antipodal_diagonal(self):
        # equal antipodal mixture keeps the Poisson diagonal, kills odd coherences
        r0 = pure_density(state(2.0, 0.0))
        r1 = pure_density(state(2.0, math.pi))
        m = mix([(0.5, r0), (0.5, r1)])
        assert np.trace(m.entries).real == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.diag(m.entries), np.diag(r0.entries), atol=1e-14)
        assert abs(m.entries[0, 1]) < 1e-14  # adjacent coherence cancels

    def test_mix_rotated_copies_poisson_diagonal(self):
        s = 3.0
        dim = len(state(s, 0.0))
        m = mix([(0.25, pure_density(state(s, k * math.pi / 2, dim))) for k in range(4)])
        ks = np.arange(dim)
        log_pmf = -s + ks * math.log(s) - np.array([math.lgamma(k + 1) for k in range(dim)])
        assert np.allclose(np.real(np.diag(m.entries)), np.exp(log_pmf), atol=1e-12)

    def test_mix_rejects_bad_weights(self):
        rho = pure_density(state(1.0, 0.0))
        with pytest.raises(ValueError):
            mix([(0.6, rho), (0.6, rho)])
        with pytest.raises(ValueError):
            mix([(-0.5, rho), (1.5, rho)])


class TestHermitianEigenvalues:
    def test_pauli_x(self):
        eigs = hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=float))
        assert np.allclose(eigs, [-1, 1])

    def test_diagonal(self):
        d = np.array([3.0, -1.0, 2.5, 0.0])
        assert np.allclose(hermitian_eigenvalues(np.diag(d)), np.sort(d))

    def test_random_3x3_against_characteristic_cubic(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (a + a.conj().T) / 2
            # oracle: roots of det(lambda I - H) via its invariant coefficients
            tr = np.real(np.trace(h))
            minors = sum(np.real(h[i, i] * h[j, j] - h[i, j] * h[j, i])
                         for i, j in [(0, 1), (0, 2), (1, 2)])
            det = np.real(np.linalg.det(h))
            roots = np.sort(np.real(np.roots([1.0, -tr, minors, -det])))
            assert np.allclose(hermitian_eigenvalues(h), roots, atol=1e-8)

    @pytest.mark.parametrize("dim", [2, 5, 17, 48, 96])
    def test_trace_and_frobenius_invariants(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        eigs = hermitian_eigenvalues(h)
        assert np.sum(eigs) == pytest.approx(np.real(np.trace(h)), abs=1e-8)
        assert np.sum(eigs ** 2) == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPhaseDistribution:
    def test_vacuum_uniform(self):
        assert np.allclose(phase_distribution(0.0, 1024), 1 / (2 * math.pi), atol=1e-14)

    @pytest.mark.parametrize("s", [0.5, 4.0, 10.0, 1e4])
    def test_normalization_and_positivity(self, s):
        density = phase_distribution(s, 4096)
        assert np.sum(density) * 2 * math.pi / 4096 == pytest.approx(1.0, abs=1e-9)
        assert np.all(density >= 0.0)

    def test_symmetric_unimodal_at_zero(self):
        density = phase_distribution(5.0, 4096)
        n = len(density)
        # grid is symmetric about index n/2 (phi=0)
        assert np.allclose(density[1:n // 2], density[-1:n // 2:-1], atol=1e-12)
        assert np.argmax(density) == n // 2

    @pytest.mark.parametrize("s, rel_to_peak", [
        (7.0, 1e-12), (100.0, 1e-12), (1e3, 1e-12), (1490.0, 1e-12), (1e4, 1e-10)])
    def test_matches_mpmath_sum(self, s, rel_to_peak):
        # at S=1e4 the 8121-term window is folded onto the 4096-point grid
        resolution = 4096
        centre = resolution // 2
        ks = [centre, centre + 1, centre - 3, centre + 10, centre + 60, resolution // 4, 0]
        density = phase_distribution(s, resolution)
        oracle = mpmath_density(s, resolution, ks)
        peak = oracle[0]
        assert density[centre] == pytest.approx(peak, rel=rel_to_peak)
        np.testing.assert_allclose(density[ks], oracle, rtol=0, atol=rel_to_peak * peak)

    def test_folded_grid_agrees_with_unfolded(self):
        # 4096 points fold the 8121-term window of S=1e4; 16384 points do not
        coarse, fine = phase_distribution(1e4, 4096), phase_distribution(1e4, 16384)
        np.testing.assert_allclose(coarse, fine[::4], rtol=0, atol=1e-12 * fine.max())

    @pytest.mark.parametrize("resolution", [512, 4097])
    def test_rejects_small_or_odd_grid(self, resolution):
        with pytest.raises(ValueError):
            phase_distribution(1.0, resolution)


class TestPhaseTails:
    @pytest.mark.parametrize("grid", [4096, 65536])
    def test_vacuum_is_linear(self, grid):
        # every Simpson panel of the uniform density is exactly 2 / grid
        quarter = grid // 4
        assert np.array_equal(phase_tails(0.0, grid), np.arange(quarter, -1, -1) / quarter)

    @pytest.mark.parametrize("s", [0.5, 7.0, 1e4])
    def test_is_the_two_sided_simpson_sum_of_the_density(self, s):
        grid = 4096
        dens = phase_distribution(s, grid)
        tails = phase_tails(s, grid)
        assert tails[0] == 1.0 and tails[-1] == 0.0 and np.all(np.diff(tails) <= 0.0)
        # T(x_j) is Simpson's rule over [-pi, -x_j] and [x_j, pi], over the whole
        # circle (where the amplitudes' rounding leaves 1 + 8e-12 at S = 1e4)
        circle = np.append(dens, dens[0])  # phi_0 = -pi closes the circle at pi

        def simpson(arc):  # the common h / 3 cancels in the ratio
            return arc[0] + arc[-1] + 4 * math.fsum(arc[1:-1:2]) + 2 * math.fsum(arc[2:-1:2])

        oracle = [(simpson(circle[:grid // 2 - 2 * j + 1]) + simpson(circle[grid // 2 + 2 * j:]))
                  / simpson(circle) for j in range(1, grid // 4)]  # x_j is node grid/2 + 2j
        # every node: one side doubled misses by 4.5e-14 at S = 7 and by 100% at the
        # floor of S = 1e4, where the FFT rounding is not even in phi
        np.testing.assert_allclose(tails[1:-1], oracle, rtol=1e-14, atol=0)
