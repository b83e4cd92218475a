"""Bit-error-rate laws for antipodal coherent signals.

Four receivers are covered: the optimum (Helstrom) binary measurement,
the canonical phase measurement, homodyne and heterodyne detection.
The exact laws come with their asymptotic exponential envelopes
e^{-4S}, e^{-2S}, e^{-2S} and e^{-S} respectively.  BER_LAWS, keyed by
names.RECEIVER_KINDS, is the one table that pairs each receiver with its
law.  Also here: the no-key Helstrom bound over the full constellation
mixture.

Only the phase law and the no-key bound, whose math needs them, import
numpy and fock, so the closed-form laws, the receiver table and the signal
grid load neither.  The phase law is one entry of fock.phase_tails, the
tail vector that simulate's phase tables read, and the no-key bound's Gram
spectrum folds the squares of fock.coherent_amplitudes, the amplitudes that
vector is built from: one Poisson law for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .cipher import Constellation

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

    Exact value is the far-arc mass T(pi/2) of fock.phase_tails on the
    phase_grid(S, 1) grid: the Simpson sum that simulate's phase tables read.
    """
    from .fock import phase_grid, phase_tails

    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    grid = phase_grid(s, 1)
    return BerLaw(float(phase_tails(s, grid)[grid // 8]), math.exp(-2.0 * s))


def _circulant_gram_spectrum(s: float, n_points: int) -> np.ndarray:
    """Eigenvalues of the Gram matrix of n_points coherent states on a circle.

    <alpha_j|alpha_k> = exp(S(e^{2 pi i (k-j)/N} - 1)) is circulant with
    eigenvalues lambda_q = N * sum_{n = q mod N} e^{-S} S^n / n!, the Poisson
    mass folded onto the residues mod N: the squares of fock.coherent_amplitudes,
    rescaled to their exact total of 1.  Against a 40-digit folded Poisson sum
    every lambda above 1e-30 is within 3.5e-14 relative for S <= 1e5, N <= 1024.
    """
    import numpy as np

    from .fock import coherent_amplitudes

    photons, amps = coherent_amplitudes(s)
    folded = np.bincount(photons % n_points, weights=amps ** 2, minlength=n_points)
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

    At M = 1 the two points are the keyed pair itself, so p_e is the keyed
    Helstrom bound in closed form.  At any M an eavesdropper without the key can
    do no better than one who knows the basis, so p_e is floored at that bound;
    below ~1e-16 the sum above is only rounding of 1/2.
    """
    import numpy as np

    if not math.isfinite(s) or s < 0:
        raise ValueError("signal photon number must be finite and >= 0")
    if constellation.m_bases == 1:
        return helstrom_pure_antipodal(s).exact
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
    return min(max(p_e, helstrom_pure_antipodal(s).exact), 0.5)


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
