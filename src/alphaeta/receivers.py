"""Bit-error-rate laws for antipodal coherent signals.

Four receivers are covered: the optimum (Helstrom) binary measurement,
the canonical phase measurement, homodyne and heterodyne detection.
The exact laws come with their asymptotic exponential envelopes
e^{-4S}, e^{-2S}, e^{-2S} and e^{-S} respectively.  BER_LAWS, keyed by
RECEIVER_KINDS, is the one table that pairs each receiver with its law;
EVE_STRATEGIES pairs each eavesdropper strategy with a receiver kind (both
name tables live in names.py).  Also here: the no-key Helstrom bound
over the full constellation mixture.

Only the functions whose math needs them import numpy and fock, so the
closed-form laws, the receiver table and the signal grid load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .names import EVE_STRATEGIES, RECEIVER_KINDS

if TYPE_CHECKING:
    import numpy as np

    from .cipher import Constellation

# The phase law's FFT grid.  It must be divisible by 4: that puts nodes on
# +-pi/2 and gives the far arc an even number of intervals for Simpson's rule.
PHASE_LAW_GRID = 4096

# receiver kind -> law(s).  The lambdas look each law up by name at call time,
# so the wrappers that perfbench/tracer.py installs on the module attributes
# see every call.
BER_LAWS = {
    "optimal": lambda s: helstrom_pure_antipodal(s),
    "phase": lambda s: canonical_phase_antipodal(s),
    "homodyne": lambda s: homodyne_antipodal(s),
    "heterodyne": lambda s: heterodyne_antipodal(s),
}


@dataclass(frozen=True)
class ReceiverModel:
    """Tagged receiver choice.  `resolution` is not a setting: it records the
    phase law's fixed grid, which the trial report's schema requires."""

    kind: str
    resolution: int = field(default=PHASE_LAW_GRID, init=False)

    def __post_init__(self):
        if self.kind not in RECEIVER_KINDS:
            raise ValueError(f"unknown receiver kind {self.kind!r}")

    def law(self, s: float) -> BerLaw:
        return BER_LAWS[self.kind](s)


@dataclass(frozen=True)
class BerLaw:
    exact: float
    asymptotic: float


def helstrom_pure_antipodal(s: float) -> BerLaw:
    """Optimum binary measurement on {|a>, |-a>}: 1/2 (1 - sqrt(1 - e^{-4S}))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    overlap_sq = math.exp(-4.0 * s)
    # 1 - sqrt(1-x) rewritten as x / (1 + sqrt(1-x)) to keep precision at large S
    exact = 0.5 * overlap_sq / (1.0 + math.sqrt(1.0 - overlap_sq))
    return BerLaw(exact, overlap_sq)


def heterodyne_antipodal(s: float) -> BerLaw:
    """Balanced heterodyne (both quadratures, one extra vacuum unit): 1/2 erfc(sqrt(S))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    return BerLaw(0.5 * math.erfc(math.sqrt(s)), math.exp(-s))


def homodyne_antipodal(s: float) -> BerLaw:
    """Single-quadrature homodyne, vacuum-limited: 1/2 erfc(sqrt(2S))."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    return BerLaw(0.5 * math.erfc(math.sqrt(2.0 * s)), math.exp(-2.0 * s))


def canonical_phase_antipodal(s: float) -> BerLaw:
    """Canonical phase measurement with the half-plane decision rule.

    Exact value is Simpson's rule, weights (1, 4, 2, ..., 4, 1) h/3, over the
    phase density of |sqrt(S)> on the far arc [pi/2, 3pi/2] of the
    PHASE_LAW_GRID-point grid: (4 T_4096 - T_2048) / 3 of the trapezoid sums.
    """
    import numpy as np

    from .fock import phase_distribution

    dens = phase_distribution(s, PHASE_LAW_GRID)
    quarter = PHASE_LAW_GRID // 4
    # the far arc wrapped through +-pi: phi = pi/2, ..., -pi, ..., -pi/2
    arc = np.concatenate((dens[3 * quarter:], dens[:quarter + 1]))
    weighted = arc[0] + arc[-1] + 4.0 * np.sum(arc[1:-1:2]) + 2.0 * np.sum(arc[2:-1:2])
    exact = 2.0 * np.pi / PHASE_LAW_GRID / 3.0 * float(weighted)
    return BerLaw(exact, math.exp(-2.0 * s))


def _circulant_gram_spectrum(s: float, n_points: int) -> np.ndarray:
    """Eigenvalues of the Gram matrix of n_points coherent states on a circle (S > 0).

    <alpha_j|alpha_k> = exp(S(e^{2 pi i (k-j)/N} - 1)) is circulant with
    eigenvalues lambda_q = N * sum_{n = q mod N} e^{-S} S^n / n!, the Poisson
    mass folded onto the residues mod N.  The Poisson terms are taken in the
    log domain over the photon window; the terms below it underflow to exactly
    0 and those above it are below 1e-160, so skipping them moves no lambda
    that the 1e-32 support cut below keeps.
    Each log term carries a rounding error of order ulp(S ln S); rescaling the
    folded mass to its exact total of 1 keeps that from reaching p_e (4e-12
    at S=1e4 without it).
    """
    import numpy as np

    from .fock import log_poisson, photon_window

    photons = photon_window(s)
    poisson = np.exp([log_poisson(s, n) for n in photons.tolist()])
    folded = np.bincount(photons % n_points, weights=poisson, minlength=n_points)
    return n_points * folded / folded.sum()


def eve_nokey_helstrom(s: float, constellation: Constellation) -> float:
    """Irreducible bit error of an eavesdropper who never learns the key.

    Evaluates the Helstrom bound 1/2 - 1/4 * sum |eig(rho_0 - rho_1)| for the
    uniform basis mixtures rho_0, rho_1 of the bit-0 / bit-1 points, without a
    Fock cutoff.  With N = 2M points and signed weights c_j = +-1/M (+ for
    bit 0), rho_0 - rho_1 = sum_j c_j |alpha_j><alpha_j| shares its nonzero
    spectrum with G^{1/2} C G^{1/2}, G the circulant Gram matrix.  In the
    Fourier basis that diagonalises G this is the N x N Hermitian matrix
    H_qr = sqrt(lambda_q lambda_r) * c_hat(q - r mod N), with
    c_hat(d) = (1/N) sum_j c_j e^{2 pi i d j / N}.

    Antipodal points carry opposite bits (c_{j+M} = -c_j), so c_hat vanishes
    at even lags and H only couples even q to odd r: its eigenvalues are
    +-sigma(B) for the even x odd block B, and p_e = 1/2 - 1/2 * sum sigma(B).
    Both mappings are mirror-symmetric, so c_hat(d) e^{i pi d / N}, taken at
    the signed lag d = q - r in (-N, N), is real at odd d up to one global
    phase; the remaining factor e^{-i pi (q - r) / N} is a diagonal unitary
    and leaves the singular values alone.  B is built only on the residues
    with lambda_q > 1e-32 (at most 1e-32 of Poisson mass is dropped), about
    25 sqrt(S) of them, so the cost grows like (sqrt S)^3 and stops growing
    with M once M exceeds about 13 sqrt(S).
    """
    import numpy as np

    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    n = constellation.num_points
    if s == 0.0:
        return 0.5  # only lambda_0 survives, and sum_j c_j = 0
    lam = _circulant_gram_spectrum(s, n)
    weights = (1.0 - 2.0 * constellation.point_bit(np.arange(n))) / constellation.m_bases
    lag = np.arange(1 - n, n)
    kernel = np.fft.ifft(weights)[lag % n] * np.exp(1j * np.pi * lag / n)
    kernel = (kernel * np.exp(-1j * np.angle(kernel[np.argmax(np.abs(kernel))]))).real
    support = np.flatnonzero(lam > 1e-32)
    even, odd = support[support % 2 == 0], support[support % 2 == 1]
    block = kernel[np.subtract.outer(even, odd) + (n - 1)]
    block *= np.sqrt(lam[even])[:, None]
    block *= np.sqrt(lam[odd])
    p_e = 0.5 - 0.5 * float(np.sum(np.linalg.svd(block, compute_uv=False)))
    return min(max(p_e, 0.0), 0.5)


def exponent_fit(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of ln(P_e) against S."""
    import numpy as np

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


def signal_grid(s_min: float, s_max: float, steps: int) -> list[float]:
    """steps >= 2 evenly spaced signal levels from s_min to s_max; one level when they
    are equal.

    The levels are i * step + s_min with the last set to s_max, the values
    np.linspace gives, without loading numpy.
    """
    if s_min == s_max:
        return [float(s_min)]
    step = (s_max - s_min) / (steps - 1)
    return [i * step + s_min for i in range(steps - 1)] + [float(s_max)]
