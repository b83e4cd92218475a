"""Coherent-state numerics on one photon-number window.

Every amplitude of |sqrt(S)> outside n in S -+ (40 sqrt(S) + 60) is below
1e-80, so that window is the whole state at any S.  coherent_amplitudes is
the one Poisson law: the phase density and the no-key Gram spectrum both read
it.  phase_tails is the one vector that the phase law and every phase table
read.  The density-matrix helpers are the dense reference that the no-key
bound is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_TINY = math.log(np.finfo(float).tiny)  # log of the smallest normal double


def photon_window(s: float) -> np.ndarray:
    """Photon numbers n within S -+ (40 sqrt(S) + 60), clipped at 0.  Every Poisson
    term outside is below 1e-160; those below a window starting above 0 are 0."""
    if s >= 2.0 ** 53:  # doubles skip integers from 2^53: no exact photon numbers
        raise ValueError(f"mean photon number must be below 2^53, got {s:g}")
    spread = 40.0 * math.sqrt(s) + 60.0
    return np.arange(max(0, int(s - spread)), int(math.ceil(s + spread)) + 1)


def log_poisson(s: float, n: int) -> float:
    """ln(e^{-S} S^n / n!) for S > 0."""
    return n * math.log(s) - s - math.lgamma(n + 1)


def coherent_amplitudes(s: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, c): the real amplitudes c_n = e^{-S/2} S^{n/2} / sqrt(n!) of |sqrt S> on
    the photon window.

    The first amplitude that is a normal double is taken in the log domain
    (exactly e^{-S/2} when the window starts at n = 0), the subnormal ones before
    it are 0, and the rest follow by the recursion c_{n+1} = c_n sqrt(S) / sqrt(n+1).
    """
    if not math.isfinite(s) or s < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {s}")
    photons = photon_window(s)
    if s == 0.0:
        first, log_lead = 0, 0.0  # the vacuum
    else:
        log_c = (0.5 * log_poisson(s, n) for n in photons.tolist())
        first, log_lead = next((i, x) for i, x in enumerate(log_c) if x >= LOG_TINY)
    root = math.sqrt(s)
    c = [0.0] * first + [math.exp(log_lead)]
    for n in photons[first:-1].tolist():
        c.append(c[-1] * root / math.sqrt(n + 1))
    return photons, np.array(c)


def phase_distribution(s: float, resolution: int) -> np.ndarray:
    """Canonical phase density P(phi_k) = |sum_n c_n e^{-i n phi_k}|^2 / 2pi of |sqrt S>.

    On the grid phi_k = -pi + 2 pi k / resolution the trapezoid integral of the
    density is exactly 1 (Parseval), and e^{-i n phi_k} = (-1)^n e^{-2 pi i n k /
    resolution} repeats in n with period resolution (even): the amplitudes are
    folded mod resolution and one FFT gives the exact grid values at any S.
    """
    if resolution < 1024 or resolution % 2:
        raise ValueError("resolution must be an even number >= 1024")
    photons, coeffs = coherent_amplitudes(s)
    folded = np.bincount(photons % resolution, weights=coeffs * (-1.0) ** photons,
                         minlength=resolution)
    dens = np.abs(np.fft.fft(folded), out=folded)  # in place: the only fresh array is the FFT's
    dens **= 2
    dens /= 2.0 * np.pi
    return dens


def phase_grid(s: float, m_bases: int) -> int:
    """Points of the phase density grid behind the phase law and tables at S and M:
    the smallest power of two >= max(4096, 8M, 128 sqrt(S)).

    With 8M | grid every arc edge the tables read, a multiple of pi/2M, is an
    even node of the grid, where phase_tails is exact; with 128 sqrt(S) the node
    spacing stays under about 1/10 of the phase width 1/(2 sqrt S).
    """
    need = max(4096, 8 * m_bases, math.ceil(128.0 * math.sqrt(s)))
    return 1 << (need - 1).bit_length()


def phase_tails(s: float, grid: int) -> np.ndarray:
    """T(x_j) = P(|phi| >= x_j), j = 0 .. grid/4: the two-sided phase tail of |sqrt S>
    at the even nodes x_j = 4 pi j / grid of the grid-point density.

    T is composite Simpson's rule, weights (1, 4, 1) h/3 on each two-interval
    panel, summed from -pi and from pi inwards, so every T(x_j) is the rule over
    the arcs |phi| >= x_j alone, scaled so that T(0) = 1.  The density is
    periodic, so the last panel closes on phi_0.
    """
    dens = phase_distribution(s, grid)
    panels = dens[1::2] * 4.0  # one fresh array; the panel sums are added in place
    panels += dens[0::2]
    panels[:-1] += dens[2::2]
    panels[-1] += dens[0]
    del dens
    panels *= 2.0 * np.pi / grid / 3.0  # h / 3; the vacuum's panels are then exactly 2 / grid
    quarter = grid // 4
    tails = np.zeros(quarter + 1)
    # pair the panels at -phi and phi, outermost first, and sum towards phi = 0
    np.cumsum(panels[:quarter] + panels[quarter:][::-1], out=tails[-2::-1])
    tails /= tails[0]
    return tails


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
    def dim(self) -> int:
        return self.entries.shape[0]


def pure_density(coeffs: np.ndarray) -> DensityMatrix:
    """Rank-1 projector |v><v| of the amplitude vector coeffs."""
    if abs(1.0 - float(np.sum(np.abs(coeffs) ** 2))) > 1e-10:
        raise ValueError("pure_density requires a normalized state")
    return DensityMatrix(np.outer(coeffs, np.conj(coeffs)))


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
