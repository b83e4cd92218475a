import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeta.fock import (
    CoherentVec,
    TruncationError,
    coherent_amplitudes,
    default_truncation,
    hermitian_eigenvalues,
    mix,
    overlap,
    phase_distribution,
    pure_density,
    wrap_angle,
)


def closed_form_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> = exp(-(|a|^2+|b|^2)/2 + conj(a) b)."""
    return np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)


class TestCoherentAmplitudes:
    def test_vacuum(self):
        v = coherent_amplitudes(0.0, 0.0, 8)
        assert v.coeffs[0] == 1.0
        assert np.all(v.coeffs[1:] == 0.0)

    def test_s1_ground_amplitude(self):
        v = coherent_amplitudes(1.0, 0.0, 40)
        assert v.coeffs[0].real == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert abs(v.norm_residual) < 1e-12

    def test_s7_pi_sign_pattern_term_by_term(self):
        # oracle: direct series in log space, sign from e^{i n pi}
        v = coherent_amplitudes(7.0, math.pi, 64)
        for n in range(65):
            expected = (-1) ** n * math.exp(-3.5 + 0.5 * n * math.log(7) - 0.5 * math.lgamma(n + 1))
            assert v.coeffs[n].real == pytest.approx(expected, rel=1e-10, abs=1e-300)
            assert abs(v.coeffs[n].imag) < 1e-12 * abs(v.coeffs[n].real) + 1e-18

    @pytest.mark.parametrize("s", [0.5, 1, 2, 4, 7, 10])
    def test_default_truncation_residual(self, s):
        v = coherent_amplitudes(s, 0.3, default_truncation(s))
        assert v.norm_residual < 1e-12

    def test_too_small_cutoff_raises_with_residual(self):
        with pytest.raises(TruncationError, match="residual"):
            coherent_amplitudes(10.0, 0.0, 4)

    @pytest.mark.parametrize("s", [1490.0, 2000.0])
    def test_amplitude_underflow_is_named(self, s):
        # at S=1490 e^{-S/2} rounds up to the smallest subnormal (norm > 1);
        # at S=2000 it is 0
        with pytest.raises(TruncationError, match="amplitude underflow"):
            coherent_amplitudes(s)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coherent_amplitudes(-1.0)
        with pytest.raises(ValueError):
            coherent_amplitudes(math.inf)
        with pytest.raises(ValueError):
            coherent_amplitudes(1.0, 0.0, 0)


class TestOverlap:
    def test_self_overlap_is_one(self):
        v = coherent_amplitudes(3.0, 1.1)
        assert overlap(v, v).real == pytest.approx(1.0, abs=1e-12)

    def test_s7_antipodal_overlap(self):
        a = coherent_amplitudes(7.0, 0.0)
        b = coherent_amplitudes(7.0, math.pi)
        assert abs(overlap(a, b)) ** 2 == pytest.approx(math.exp(-28), rel=1e-9)

    def test_vacuum_overlap(self):
        n = default_truncation(5.0)
        vac = coherent_amplitudes(0.0, 0.0, n)
        v = coherent_amplitudes(5.0, 0.0, n)
        assert overlap(vac, v).real == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(coherent_amplitudes(1.0, 0, 30), coherent_amplitudes(1.0, 0, 31))

    @settings(max_examples=100, deadline=None)
    @given(sa=st.floats(0, 10), sb=st.floats(0, 10),
           pa=st.floats(-math.pi, math.pi), pb=st.floats(-math.pi, math.pi))
    def test_matches_closed_form(self, sa, sb, pa, pb):
        n = default_truncation(10.0)
        a = coherent_amplitudes(sa, pa, n)
        b = coherent_amplitudes(sb, pb, n)
        alpha = math.sqrt(sa) * np.exp(1j * pa)
        beta = math.sqrt(sb) * np.exp(1j * pb)
        assert overlap(a, b) == pytest.approx(closed_form_overlap(alpha, beta), abs=1e-10)


class TestDensityMatrices:
    def test_vacuum_projector(self):
        rho = pure_density(coherent_amplitudes(0.0, 0.0, 8))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        assert np.allclose(rho.entries, expected)

    def test_trace_is_norm(self):
        rho = pure_density(coherent_amplitudes(3.0, 0.7))
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_spectrum(self):
        rho = pure_density(coherent_amplitudes(1.0, 0.0))
        eigs = hermitian_eigenvalues(rho.entries)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(eigs[:-1]) < 1e-10)

    def test_mix_single_state_identity(self):
        rho = pure_density(coherent_amplitudes(2.0, 0.4))
        assert np.allclose(mix([(1.0, rho)]).entries, rho.entries)

    def test_mix_antipodal_diagonal(self):
        # equal antipodal mixture keeps the Poisson diagonal, kills odd coherences
        n = default_truncation(2.0)
        r0 = pure_density(coherent_amplitudes(2.0, 0.0, n))
        r1 = pure_density(coherent_amplitudes(2.0, math.pi, n))
        m = mix([(0.5, r0), (0.5, r1)])
        assert m.trace == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.diag(m.entries), np.diag(r0.entries), atol=1e-14)
        assert abs(m.entries[0, 1]) < 1e-14  # adjacent coherence cancels

    def test_mix_rotated_copies_poisson_diagonal(self):
        s, n = 3.0, default_truncation(3.0)
        parts = [(0.25, pure_density(coherent_amplitudes(s, k * math.pi / 2, n)))
                 for k in range(4)]
        m = mix(parts)
        ks = np.arange(n + 1)
        log_pmf = -s + ks * math.log(s) - np.array(
            [math.lgamma(k + 1) for k in range(n + 1)])
        poisson = np.exp(log_pmf)
        assert np.allclose(np.real(np.diag(m.entries)), poisson, atol=1e-12)

    def test_mix_rejects_bad_weights(self):
        rho = pure_density(coherent_amplitudes(1.0, 0.0))
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
        dist = phase_distribution(coherent_amplitudes(0.0, 0.0, 8), 1024)
        assert np.allclose(dist.density, 1 / (2 * math.pi), atol=1e-14)

    def test_normalization_and_positivity(self):
        for s, phi in [(0.5, 0.2), (4.0, -1.0), (10.0, 3.0)]:
            dist = phase_distribution(coherent_amplitudes(s, phi), 4096)
            assert np.sum(dist.density) * dist.spacing == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist.density >= -1e-12)

    def test_symmetric_unimodal_at_zero(self):
        dist = phase_distribution(coherent_amplitudes(5.0, 0.0), 4096)
        n = dist.resolution
        # grid is symmetric about index n/2 (phi=0)
        assert np.allclose(dist.density[1:n // 2], dist.density[-1:n // 2:-1], atol=1e-12)
        assert np.argmax(dist.density) == n // 2

    def test_phase_shift_is_circular_shift(self):
        n = 4096
        shift_cells = 300
        theta = 2 * math.pi * shift_cells / n
        base = phase_distribution(coherent_amplitudes(5.0, 0.0), n)
        moved = phase_distribution(coherent_amplitudes(5.0, theta), n)
        assert np.allclose(moved.density, np.roll(base.density, shift_cells), atol=1e-10)

    def test_rejects_unnormalized_and_small_grid(self):
        v = coherent_amplitudes(1.0, 0.0)
        bad = CoherentVec(v.coeffs * 0.9, v.mean_photons, v.phase)
        with pytest.raises(ValueError):
            phase_distribution(bad, 4096)
        with pytest.raises(ValueError):
            phase_distribution(v, 512)


class TestWrapAngle:
    @given(st.floats(-50, 50))
    def test_range_and_equivalence(self, phi):
        w = wrap_angle(phi)
        assert -math.pi <= w < math.pi
        assert math.cos(w - phi) == pytest.approx(1.0, abs=1e-9)
