"""Coherent-state numerics in a truncated Fock basis.

All states are represented by their photon-number amplitudes c_n for
n = 0..n_trunc.  Everything here is a pure function of its inputs; the
returned containers are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRUNCATION_TOL = 1e-12


class TruncationError(ValueError):
    """The Fock-space cutoff fails to capture the state to tolerance."""


def default_truncation(mean_photons: float) -> int:
    """Cutoff keeping the Poisson tail below 1e-12 (validated by tests, not trusted)."""
    return int(math.ceil(mean_photons + 10.0 * math.sqrt(mean_photons) + 20.0))


def wrap_angle(phi):
    """Wrap an angle (or array of angles) into [-pi, pi)."""
    wrapped = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    if np.isscalar(phi) or np.ndim(phi) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class CoherentVec:
    """Truncated amplitude vector of |alpha> with alpha = sqrt(S) * e^{i*phase}."""

    coeffs: np.ndarray
    mean_photons: float
    phase: float

    @property
    def n_trunc(self) -> int:
        return len(self.coeffs) - 1

    @property
    def norm_residual(self) -> float:
        return 1.0 - float(np.sum(np.abs(self.coeffs) ** 2))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, finite-dimensional state."""

    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian to 1e-12")
        if abs(np.real(np.trace(m)) - 1.0) > 1e-10:
            raise ValueError("density matrix trace deviates from 1 by more than 1e-10")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PhaseDistribution:
    """Canonical phase density sampled on a uniform grid over [-pi, pi)."""

    phases: np.ndarray
    density: np.ndarray

    @property
    def resolution(self) -> int:
        return len(self.phases)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.resolution


def coherent_amplitudes(mean_photons: float, phase: float = 0.0,
                        n_trunc: int | None = None) -> CoherentVec:
    """Amplitudes c_n = e^{-S/2} S^{n/2} e^{i n phase} / sqrt(n!) up to n_trunc.

    Evaluated by the stable recursion c_{n+1} = c_n * sqrt(S) e^{i phase} / sqrt(n+1).
    Raises TruncationError if the cutoff leaves more than 1e-12 of the norm behind,
    or if e^{-S/2} underflows (S above about 1430) and the norm is off by 1e-12.
    """
    if not math.isfinite(mean_photons) or mean_photons < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mean_photons}")
    if n_trunc is None:
        n_trunc = default_truncation(mean_photons)
    if n_trunc < 1:
        raise ValueError("n_trunc must be >= 1")

    coeffs = np.empty(n_trunc + 1, dtype=complex)
    coeffs[0] = math.exp(-mean_photons / 2.0)
    step = math.sqrt(mean_photons) * np.exp(1j * phase)
    for n in range(n_trunc):
        coeffs[n + 1] = coeffs[n] * step / math.sqrt(n + 1)

    residual = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    if abs(residual) >= TRUNCATION_TOL and coeffs[0].real < np.finfo(float).tiny:
        # a subnormal e^{-S/2} scales every amplitude by its rounding error,
        # so the norm can land on either side of 1
        raise TruncationError(
            f"S={mean_photons:g} is beyond the Fock path's range: amplitude underflow "
            f"(e^(-S/2) = {coeffs[0].real:.3g} is below the smallest normal double, "
            f"norm residual {residual:.3e})")
    if residual >= TRUNCATION_TOL:
        raise TruncationError(
            f"n_trunc={n_trunc} leaves norm residual {residual:.3e} "
            f"(tolerance {TRUNCATION_TOL:g}); increase the cutoff")
    coeffs.setflags(write=False)
    return CoherentVec(coeffs, float(mean_photons), wrap_angle(phase))


def overlap(a: CoherentVec, b: CoherentVec) -> complex:
    """Inner product <a|b> = sum_n conj(a_n) b_n."""
    if len(a.coeffs) != len(b.coeffs):
        raise ValueError("overlap requires equal truncation dimensions")
    return complex(np.vdot(a.coeffs, b.coeffs))


def pure_density(v: CoherentVec) -> DensityMatrix:
    """Rank-1 projector |v><v|."""
    if abs(v.norm_residual) > 1e-10:
        raise ValueError("pure_density requires a normalized state")
    return DensityMatrix(np.outer(v.coeffs, v.coeffs.conj()))


def mix(states: list[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex combination sum_k w_k rho_k; weights must sum to 1 within 1e-12."""
    if not states:
        raise ValueError("mix requires at least one component")
    weights = np.array([w for w, _ in states], dtype=float)
    if np.any(weights < 0):
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
    dim = states[0][1].dim
    total = np.zeros((dim, dim), dtype=complex)
    for w, rho in states:
        if rho.dim != dim:
            raise ValueError("all mixture components must share one dimension")
        total += w * rho.entries
    return DensityMatrix(total)


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian to 1e-10")
    return np.linalg.eigvalsh(mat)


def phase_distribution(v: CoherentVec, resolution: int) -> PhaseDistribution:
    """Canonical phase density P(phi) = |sum_n c_n e^{-i n phi}|^2 / 2pi.

    Evaluated by FFT on the uniform grid phi_k = -pi + 2 pi k / resolution,
    which makes the trapezoid integral of the density exactly 1 (Parseval).
    """
    if resolution < 1024:
        raise ValueError("resolution must be >= 1024")
    if len(v.coeffs) > resolution:
        raise ValueError("resolution must be at least the state dimension")
    if abs(v.norm_residual) > 1e-10:
        raise ValueError("phase_distribution requires a normalized state")
    n = np.arange(len(v.coeffs))
    # e^{-i n phi_k} = (-1)^n e^{-2 pi i n k / resolution} on this grid
    spectrum = np.fft.fft(v.coeffs * (-1.0) ** n, resolution)
    density = np.abs(spectrum) ** 2 / (2.0 * np.pi)
    phases = -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution
    density.setflags(write=False)
    phases.setflags(write=False)
    return PhaseDistribution(phases, density)
