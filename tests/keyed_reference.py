"""Sampled receivers and per-trial decisions: the references that the engine's
error tables and count-level draws replace.

The keyed samplers draw a continuous outcome for a point at angle phi_signal
and decide on which side of the basis axis it falls; nearest_point_bits snaps a
canonical-phase outcome to the nearest of all 2M points and reads its bit, as
keyless nearest-point Eve does.  The Monte Carlo engine no longer draws these
outcomes; tests check that its table decisions have their law.
per_trial_errors decides each trial on its own; tests check that the engine's
binomial draws per cell have its law.

Quadrature convention: x = (a + a^dag)/2, vacuum variance 1/4 per quadrature.
Homodyne sees that vacuum noise directly; heterodyne pays one extra vacuum
unit, i.e. variance 1/2 per quadrature.
"""

import math

import numpy as np

from alphaeta.cipher import Constellation, encode
from alphaeta.names import EVE_STRATEGIES


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


def half_planes(tails: np.ndarray, m_count: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF-space (lo, width) per offset k < 2M of PhaseSampler.tails: F is monotone, so
    phi = F^-1(u) plus pi k/M is within pi/2 of the axis iff (u - lo[k]) mod 1 <= width[k].

    F is read at the 4M + 1 nodes phi = -pi + k pi/2M, where the even density gives
    F = T(|phi|)/2 left of 0 and 1 - T(phi)/2 right of it; every edge read is a node."""
    nodes = np.concatenate((tails[::-1] / 2, 1.0 - tails[1:] / 2))

    def cdf(x):  # periodic extension, F(x + 2 pi) = F(x) + 1
        turns, node = np.divmod(np.rint((x + np.pi) * 2 * m_count / np.pi).astype(np.int64),
                                4 * m_count)
        return turns + nodes[node]

    start = -np.pi / 2 - np.pi * np.arange(2 * m_count) / m_count
    lo = cdf(start)
    return lo % 1.0, cdf(start + np.pi) - lo


def nearest_point_bits(sampler, rng: np.random.Generator, j: np.ndarray,
                       const: Constellation) -> np.ndarray:
    """The bit read off each point j by snapping a canonical-phase outcome around it
    to the nearest of the 2M points."""
    phi = sampler.sample(rng, j.size) + np.pi * j / const.m_bases
    return const.point_bit(np.rint(phi * const.m_bases / np.pi).astype(np.int64)
                           % const.num_points)


def per_trial_errors(cfg, tables: dict[str, np.ndarray], batch: int, m: np.ndarray,
                     sampler=None):
    """Bob's and Eve's error counts, and the offsets k, of the trials of batch
    `batch` with keyed bases m, decided trial by trial.

    The batch draws its bits from the (master_seed, batch) stream, then its DSR
    dithers, sends j = encode(bit, m) + dither mod 2M and takes k = (j - m) mod
    2M; Bob's and then a keyed Eve's trials each err when one uniform u < p_err[k].  A
    nearest-point Eve errs when the bit she reads off j (from `sampler`) is not
    the bit sent.
    """
    const = Constellation(cfg.m_bases, cfg.mapping)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, batch]))
    bits = rng.integers(0, 2, size=m.size)
    j = encode(bits, m, const).astype(np.int64)
    if cfg.dsr_d:
        j = (j + rng.integers(-cfg.dsr_d, cfg.dsr_d + 1, size=m.size)) % (2 * cfg.m_bases)
    k = (j - m) % (2 * cfg.m_bases)

    def errors(kind: str | None) -> int:
        if kind is None:
            return int(np.count_nonzero(nearest_point_bits(sampler, rng, j, const) != bits))
        return int(np.count_nonzero(rng.random(m.size) < tables[kind][k]))

    bob = errors(cfg.bob_receiver)
    eve = errors(EVE_STRATEGIES[cfg.eve_strategy]) if cfg.eve_strategy != "none" else 0
    return bob, eve, k
