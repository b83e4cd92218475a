"""Sampled keyed receivers: the reference that the per-offset error tables replace.

Each draws a continuous outcome for a point at angle phi_signal and decides on
which side of the basis axis it falls.  The Monte Carlo engine no longer draws
these outcomes; tests check that its one-draw table decisions have their law.

Quadrature convention: x = (a + a^dag)/2, vacuum variance 1/4 per quadrature.
Homodyne sees that vacuum noise directly; heterodyne pays one extra vacuum
unit, i.e. variance 1/2 per quadrature.
"""

import math

import numpy as np


def sample_heterodyne(s: float, cos_offset, cos_axis, sin_axis, rng: np.random.Generator,
                      size: int | None = None):
    """Re(z e^{-i phi_axis}) of z = sqrt(S) e^{i phi_signal} + g, Var Re g = Var Im g = 1/2.

    Takes phasors, not angles: cos_offset = cos(phi_signal - phi_axis) and the
    axis's cos and sin.
    """
    g_re = rng.normal(scale=math.sqrt(0.5), size=size)
    g_im = rng.normal(scale=math.sqrt(0.5), size=size)
    return math.sqrt(s) * cos_offset + g_re * cos_axis + g_im * sin_axis


def sample_homodyne(s: float, cos_offset, rng: np.random.Generator, size: int | None = None):
    """Homodyne outcome x = sqrt(S) cos_offset + g, Var g = 1/4, with cos_offset =
    cos(phi_signal - phi_lo)."""
    return math.sqrt(s) * cos_offset + rng.normal(scale=0.5, size=size)


def half_planes(sampler, m_count: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF-space (lo, width) per offset k < 2M of a PhaseSampler: F is monotone, so
    phi = F^-1(u) plus pi k/M is within pi/2 of the axis iff (u - lo[k]) mod 1 <= width[k]."""
    def cdf(x):  # periodic extension, F(x + 2 pi) = F(x) + 1
        turns = np.floor((x + np.pi) / (2 * np.pi))
        return turns + np.interp(x - 2 * np.pi * turns, sampler._edges, sampler._cdf)

    start = -np.pi / 2 - np.pi * np.arange(2 * m_count) / m_count
    lo = cdf(start)
    return lo % 1.0, cdf(start + np.pi) - lo
