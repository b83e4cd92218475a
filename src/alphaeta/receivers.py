"""Bit-error-rate laws for antipodal coherent signals.

Four receivers are covered: the optimum (Helstrom) binary measurement,
the canonical phase measurement, homodyne and heterodyne detection.
The exact laws come with their asymptotic exponential envelopes
e^{-4S}, e^{-2S}, e^{-2S} and e^{-S} respectively.  BER_LAWS and
EVE_STRATEGIES are the one table that pairs each receiver and each
eavesdropper strategy with its law.  Also here: the no-key Helstrom bound
over the full constellation mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cipher import Constellation
from .fock import coherent_amplitudes, phase_distribution

# receiver kind -> law(s, resolution); the resolution only matters for "phase".
# The lambdas look each law up by name at call time, so the wrappers that
# perfbench/tracer.py installs on the module attributes see every call.
BER_LAWS = {
    "optimal": lambda s, resolution: helstrom_pure_antipodal(s),
    "phase": lambda s, resolution: canonical_phase_antipodal(s, resolution),
    "homodyne": lambda s, resolution: homodyne_antipodal(s),
    "heterodyne": lambda s, resolution: heterodyne_antipodal(s),
}
RECEIVER_KINDS = tuple(BER_LAWS)

# Eve strategy -> the receiver kind whose law she reaches once the basis is
# revealed: a deferred strategy stores its continuous outcome and loses nothing
# by deciding later.  None: she never learns the basis ("nearest-point" snaps a
# phase outcome to the closest of all 2M points).  "none" (no eavesdropper) is
# not a strategy.
EVE_STRATEGIES = {
    "phase-deferred": "phase",
    "heterodyne-deferred": "heterodyne",
    "nearest-point": None,
}


@dataclass(frozen=True)
class ReceiverModel:
    """Tagged receiver choice; resolution only matters for the phase kind."""

    kind: str
    resolution: int = 4096

    def __post_init__(self):
        if self.kind not in RECEIVER_KINDS:
            raise ValueError(f"unknown receiver kind {self.kind!r}")
        if self.kind == "phase" and (self.resolution < 4096 or self.resolution % 4):
            raise ValueError("phase receiver needs a resolution >= 4096 divisible by 4")

    def law(self, s: float) -> BerLaw:
        return BER_LAWS[self.kind](s, self.resolution)


@dataclass(frozen=True)
class BerLaw:
    exact: float
    asymptotic: float
    exponent_coefficient: float


def helstrom_pure_antipodal(s: float) -> BerLaw:
    """Optimum binary measurement on {|a>, |-a>}: 1/2 (1 - sqrt(1 - e^{-4S}))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    overlap_sq = math.exp(-4.0 * s)
    # 1 - sqrt(1-x) rewritten as x / (1 + sqrt(1-x)) to keep precision at large S
    exact = 0.5 * overlap_sq / (1.0 + math.sqrt(1.0 - overlap_sq))
    return BerLaw(exact, overlap_sq, 4.0)


def heterodyne_antipodal(s: float) -> BerLaw:
    """Balanced heterodyne (both quadratures, one extra vacuum unit): 1/2 erfc(sqrt(S))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    return BerLaw(0.5 * math.erfc(math.sqrt(s)), math.exp(-s), 1.0)


def homodyne_antipodal(s: float) -> BerLaw:
    """Single-quadrature homodyne, vacuum-limited: 1/2 erfc(sqrt(2S))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    return BerLaw(0.5 * math.erfc(math.sqrt(2.0 * s)), math.exp(-2.0 * s), 2.0)


def canonical_phase_antipodal(s: float, resolution: int = 4096) -> BerLaw:
    """Canonical phase measurement with the half-plane decision rule.

    Exact value is the trapezoid integral of the phase density of |sqrt(S)>
    over |phi| > pi/2; the grid places nodes exactly at +-pi/2.
    """
    if resolution < 4096 or resolution % 4 != 0:
        raise ValueError("resolution must be >= 4096 and divisible by 4")
    dist = phase_distribution(coherent_amplitudes(s, 0.0), resolution)
    quarter = resolution // 4
    dens = dist.density
    # region [pi/2, 3pi/2] wrapped through +-pi; endpoints at half weight
    inner = float(np.sum(dens[3 * quarter + 1:]) + np.sum(dens[:quarter]))
    exact = dist.spacing * (inner + 0.5 * (dens[quarter] + dens[3 * quarter]))
    return BerLaw(exact, math.exp(-2.0 * s), 2.0)


def _circulant_gram_spectrum(s: float, n_points: int) -> np.ndarray:
    """Eigenvalues of the Gram matrix of n_points coherent states on a circle (S > 0).

    <alpha_j|alpha_k> = exp(S(e^{2 pi i (k-j)/N} - 1)) is circulant with
    eigenvalues lambda_q = N * sum_{n = q mod N} e^{-S} S^n / n!, the Poisson
    mass folded onto the residues mod N.  The Poisson terms are taken in the
    log domain up to n = S + 40 sqrt(S) + 60, far past any representable tail.
    Each log term carries a rounding error of order ulp(S ln S); rescaling the
    folded mass to its exact total of 1 keeps that from reaching p_e (4e-12
    at S=1e4 without it).
    """
    n_max = int(math.ceil(s + 40.0 * math.sqrt(s) + 60.0))
    log_s = math.log(s)
    poisson = np.exp([n * log_s - s - math.lgamma(n + 1) for n in range(n_max + 1)])
    folded = np.bincount(np.arange(n_max + 1) % n_points, weights=poisson,
                         minlength=n_points)
    return n_points * folded / folded.sum()


def eve_nokey_helstrom(s: float, constellation: Constellation) -> float:
    """Irreducible bit error of an eavesdropper who never learns the key.

    Evaluates the Helstrom bound 1/2 - 1/4 * sum |eig(rho_0 - rho_1)| for the
    uniform basis mixtures rho_0, rho_1 of the bit-0 / bit-1 points, without a
    Fock cutoff.  With N = 2M points and signed weights c_j = +-1/M (+ for
    bit 0), rho_0 - rho_1 = sum_j c_j |alpha_j><alpha_j| shares its nonzero
    spectrum with G^{1/2} C G^{1/2}, G the circulant Gram matrix.  In the
    Fourier basis that diagonalises G this is the N x N Hermitian matrix
    H_qr = sqrt(lambda_q lambda_r) * (1/N) sum_j c_j e^{2 pi i (q-r) j / N},
    so the cost is one N x N eigen-solve, independent of S.
    """
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    n = constellation.num_points
    if s == 0.0:
        return 0.5  # only lambda_0 survives, and sum_j c_j = 0
    sqrt_lam = np.sqrt(_circulant_gram_spectrum(s, n))
    weights = (1.0 - 2.0 * constellation.point_bit(np.arange(n))) / constellation.m_bases
    c_hat = np.fft.ifft(weights)  # (1/N) sum_j c_j e^{2 pi i d j / N}
    q = np.arange(n)
    h = np.outer(sqrt_lam, sqrt_lam) * c_hat[(q[:, None] - q[None, :]) % n]
    eigs = np.linalg.eigvalsh(h)
    p_e = 0.5 - 0.25 * float(np.sum(np.abs(eigs)))
    return min(max(p_e, 0.0), 0.5)


def exponent_fit(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(P_e) against S."""
    if len(points) < 4:
        raise ValueError("exponent fit needs at least 4 points")
    s_vals = np.array([p[0] for p in points], dtype=float)
    p_vals = np.array([p[1] for p in points], dtype=float)
    if np.any(p_vals <= 0):
        raise ValueError("all error probabilities must be positive")
    if np.any(np.diff(s_vals) <= 0):
        raise ValueError("S values must be strictly increasing")
    slope, _ = np.polyfit(s_vals, np.log(p_vals), 1)
    return float(slope)
