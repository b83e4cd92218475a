"""End-to-end Monte Carlo engine for the keyed-constellation link.

Every receiver errs on a trial with a probability that depends only on the
trial's cell, so a run builds one error table per receiver and a batch decides
each receiver with one kernel: given the histogram of the batch's trials over
the cells, its errors are one binomial draw per occupied cell, which is exact in
distribution.  A keyed receiver's cell is the sent point's offset k from the
basis axis.  Keyless nearest-point Eve's cell is the sent bit and point (b, j).

k = (bit ^ polarity(m)) * M + dither is uniform over its cells whatever the
basis m, so the keystream is drawn only for a nearest-point Eve, whose cells
depend on it; in a keyed-only run seed_key does not affect the counts, but it
is still validated and echoed in the report.

Trials run in fixed batches of 65536, in batch order; batch i draws from an RNG
stream keyed by (master_seed, i) and, with a nearest-point Eve, takes the
keystream's i-th slice of bases.  The keystream is drawn batch by batch, so
memory is bounded by the batch size, not the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cipher import Constellation, KeystreamGen, encode
from .fock import phase_distribution
from .receivers import BER_LAWS, EVE_STRATEGIES, ReceiverModel

BATCH_SIZE = 1 << 16
PHASE_GRID = 1 << 16  # points of the phase density grid behind every phase table
WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z99) -> tuple[float, float]:
    """Wilson score interval; stays valid at extreme error probabilities."""
    if trials < 1 or not 0 <= errors <= trials:
        raise ValueError("need 0 <= errors <= trials, trials >= 1")
    p_hat = errors / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    # at 0 or all errors center -+ half is 0 or 1 only up to rounding
    return (0.0 if errors == 0 else max(0.0, center - half),
            1.0 if errors == trials else min(1.0, center + half))


@dataclass(frozen=True)
class BerEstimate:
    errors: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "BerEstimate":
        low, high = wilson_interval(errors, trials)
        return cls(errors, trials, errors / trials, low, high)


@dataclass(frozen=True)
class SimConfig:
    """One simulate run; building it, also by dataclasses.replace, checks every field."""

    s: float
    m_bases: int
    mapping: str = "alternating"
    seed_key: str = "deadbeef"
    bob_receiver: ReceiverModel = field(default_factory=lambda: ReceiverModel("heterodyne"))
    eve_strategy: str = "none"
    trials: int = 100_000
    master_seed: int = 0
    dsr_d: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not math.isfinite(self.s) or self.s < 0:
            raise ValueError("S must be finite and >= 0")
        if self.eve_strategy != "none" and self.eve_strategy not in EVE_STRATEGIES:
            raise ValueError(f"unknown eve strategy {self.eve_strategy!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.dsr_d and not 0 <= self.dsr_d < self.m_bases / 2:
            raise ValueError(f"dsr_d={self.dsr_d} must satisfy 0 <= d < M/2")
        if self.dsr_d and self.bob_receiver.kind == "optimal":
            raise ValueError("analytic-flip Bob cannot be combined with DSR "
                             "(the flip probability is no longer valid)")
        Constellation(self.m_bases, self.mapping)  # raises on bad M / mapping
        KeystreamGen.from_hex(self.seed_key)  # raises on a non-hex or all-zero key


@dataclass(frozen=True)
class TrialReport:
    config: SimConfig
    bob: BerEstimate
    eve: BerEstimate | None
    analytic_bob: float
    analytic_eve: float | None


class PhaseSampler:
    """Inverse-CDF sampler for the canonical phase distribution of |sqrt S>.

    The CDF is the trapezoid integral of the density on the periodic PHASE_GRID-point
    grid, so it is exactly as symmetric as the density.
    """

    def __init__(self, s: float):
        density = phase_distribution(s, PHASE_GRID)
        mass = (density + np.roll(density, -1)) * (np.pi / PHASE_GRID)
        cdf = np.concatenate(([0.0], np.cumsum(mass)))
        cdf /= cdf[-1]
        self._cdf = cdf
        self._edges = np.linspace(-np.pi, np.pi, PHASE_GRID + 1)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return np.interp(rng.random(size), self._cdf, self._edges)

    def cdf(self, phi):
        """F(phi), the mass on [-pi, phi], linear between grid nodes; phi in [-pi, pi]."""
        return np.interp(phi, self._edges, self._cdf)

    def far_mass(self, delta):
        """Mass beyond the half-plane of a state at phase 0 turned by delta in [0, pi/2].

        The far arc is (pi/2 - delta, 3 pi/2 - delta); the density is even, so its
        mass is F(-pi/2 - delta) + F(-pi/2 + delta), with no 1 - F cancellation.
        """
        return self.cdf(-np.pi / 2 - delta) + self.cdf(-np.pi / 2 + delta)


def offset_error_table(kind: str, s: float, m_count: int,
                       sampler: PhaseSampler | None) -> np.ndarray:
    """p_err[k]: keyed receiver `kind` decides on the wrong side of the basis axis when
    the sent point lies k steps of pi/M from it, k < 2M.

    It depends only on the point's angle delta = pi i/M from the axis line,
    i = min(k mod M, M - k mod M) <= M/2.  A Gaussian outcome errs with its
    receiver's law at the projected signal S cos^2 delta (one law call per i;
    "optimal" only meets delta = 0, where its law is the Helstrom flip); the
    phase receiver errs with the density mass beyond the half-plane.
    """
    delta = np.pi * np.arange(m_count // 2 + 1) / m_count
    if kind == "phase":
        per_angle = sampler.far_mass(delta)
    else:
        law = BER_LAWS[kind]
        per_angle = np.array([law(s * math.cos(x) ** 2).exact for x in delta.tolist()])
    steps = np.arange(2 * m_count) % m_count
    return per_angle[np.minimum(steps, m_count - steps)]


def nearest_point_table(sampler: PhaseSampler, const: Constellation) -> np.ndarray:
    """p_err[b * 2M + j]: the probability that keyless Eve, who snaps a canonical-phase
    outcome to the nearest of all 2M points and reads that point's bit, errs on a
    trial that sent bit b on point j.

    a[i], the density mass on the pi/M-wide arc around offset i pi/M, is read from
    the sampler's CDF.  She reads 1 with probability q[j] = sum_i a[i] *
    point_bit((j + i) mod 2M), a circular correlation that one rFFT gives at any M,
    and errs with q[j] when b = 0 and 1 - q[j] when b = 1: under DSR the sent bit
    need not be point_bit(j).
    """
    n, m_count = const.num_points, const.m_bases
    # mass beyond |phi| = pi (i + 1/2) / M, i < M: 2 F(-|phi|), as the density is even
    tails = 2 * sampler.cdf(-np.pi * (np.arange(m_count) + 0.5) / m_count)
    side = -np.diff(tails) / 2  # the arc around +-i pi/M, 0 < i < M
    arcs = np.concatenate(([1.0 - tails[0]], side, tails[-1:], side[::-1]))
    ones = const.point_bit(np.arange(n))
    q = np.clip(np.fft.irfft(np.conj(np.fft.rfft(arcs)) * np.fft.rfft(ones), n), 0.0, 1.0)
    return np.concatenate((q, 1.0 - q))


def offset_histogram(rng: np.random.Generator, n: int, m_count: int, d: int) -> np.ndarray:
    """Counts over k < 2M of the offsets k = (bit ^ polarity(m)) * M + dither mod 2M of
    n keyed trials: one multinomial draw over the 2(2d+1) equally likely cells."""
    dither = np.arange(-d, d + 1)
    cells = np.concatenate((dither, dither + m_count)) % (2 * m_count)
    hist = np.zeros(2 * m_count, dtype=np.int64)
    hist[cells] = rng.multinomial(n, np.full(cells.size, 1.0 / cells.size))
    return hist


def dsr_offset(rng: np.random.Generator, d: int, j, m_bases: int):
    """Deliberate state randomization: dither each point j by a uniform offset in [-d, d].

    d must stay below M/2 so the dithered point remains inside the keyed
    half-plane and Bob's decision is unaffected.  Accepts a scalar or an
    integer array; d = 0 returns j without drawing.  M is a power of two, so
    the result is reduced mod 2M by mask, which is exact for negative sums too.
    """
    if not 0 <= d < m_bases / 2 or m_bases & (m_bases - 1):
        raise ValueError(f"dsr offset d={d} must satisfy 0 <= d < M/2 = {m_bases / 2}, "
                         "M a power of two")
    if d == 0:
        return j
    dither = rng.integers(-d, d + 1, size=np.shape(j))
    out = (j + dither) & (2 * m_bases - 1)
    return int(out) if np.ndim(out) == 0 else out


def keyed_bases(gen: KeystreamGen, m_bases: int, count: int) -> np.ndarray:
    """Next count basis indices, each log2(M) keystream bits read big-endian; as
    uint16 up to M = 2^16 (faster than int64), so callers promote before arithmetic."""
    k = Constellation(m_bases).basis_bits  # raises unless M is a power of two
    if k == 0:
        return np.zeros(count, dtype=np.uint16)
    bits = np.unpackbits(np.frombuffer(gen.bits(count * k), dtype=np.uint8), count=count * k,
                         bitorder="little").reshape(count, k)
    out = np.zeros(count, dtype=np.uint16 if k <= 16 else np.int64)
    for col in range(k):  # column by column: no count*k int64 copy
        out <<= 1
        out |= bits[:, col]
    return out




def _run_batch(cfg: SimConfig, const: Constellation, tables: dict, batch: int, n: int,
               m: np.ndarray | None) -> tuple[int, int]:
    """Bob's and Eve's error counts over the n trials of batch `batch`.

    Without a nearest-point Eve (m None) the batch's offset histogram is one
    multinomial draw.  Otherwise m holds the keyed bases: the batch draws its bits
    and DSR dithers, sends j = encode(bit, m) + dither, and counts Bob's offsets
    k = (j - m) mod 2M and Eve's cells bit * 2M + j.  Bob's decisions come first,
    then Eve's.
    """
    m_count = cfg.m_bases
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, batch]))
    if m is None:
        hist = eve_hist = offset_histogram(rng, n, m_count, cfg.dsr_d)
    else:
        bits = rng.integers(0, 2, size=n)
        j = dsr_offset(rng, cfg.dsr_d, encode(bits, m, const), m_count)
        # mod 2M by mask, as 2M is a power of 2: an int64 % costs ~1 ms a batch
        hist = np.bincount((j - m) & (2 * m_count - 1), minlength=2 * m_count)
        eve_hist = np.bincount(bits * (2 * m_count) + j, minlength=4 * m_count)

    def errors(counts: np.ndarray, table: np.ndarray) -> int:
        """Wrong decisions of a receiver that errs with probability table[c] on a trial
        in cell c: the one decision kernel of Bob and Eve.

        Its errors in cell c are one Binomial(counts[c], table[c]) draw, exact in
        distribution.  Only the occupied cells are drawn: a draw with n = 0 returns 0
        without consuming the stream, so this gives the counts of a draw over all cells.
        """
        occupied = np.flatnonzero(counts)
        return int(rng.binomial(counts[occupied], table[occupied]).sum())

    bob_err = errors(hist, tables[cfg.bob_receiver.kind])
    if cfg.eve_strategy == "none":
        return bob_err, 0
    return bob_err, errors(eve_hist, tables[EVE_STRATEGIES[cfg.eve_strategy]])


def run_simulation(cfg: SimConfig) -> TrialReport:
    """Simulate cfg.trials symbols, batch by batch in batch order; deterministic for
    a fixed master_seed."""
    const = Constellation(cfg.m_bases, cfg.mapping)

    eve_kind = EVE_STRATEGIES.get(cfg.eve_strategy)
    keyed = {cfg.bob_receiver.kind, eve_kind} - {None}
    nearest = cfg.eve_strategy != "none" and eve_kind is None
    sampler = PhaseSampler(cfg.s) if nearest or "phase" in keyed else None
    tables = {kind: offset_error_table(kind, cfg.s, cfg.m_bases, sampler) for kind in keyed}
    if nearest:
        tables[None] = nearest_point_table(sampler, const)  # None: keyless Eve's table
    del sampler  # the batches do not read it; freeing it first lowers the peak RSS ~1.7 MB
    gen = KeystreamGen.from_hex(cfg.seed_key) if nearest else None

    bob_err = eve_err = 0
    for batch, lo in enumerate(range(0, cfg.trials, BATCH_SIZE)):
        n = min(BATCH_SIZE, cfg.trials - lo)
        bob, eve = _run_batch(cfg, const, tables, batch, n,
                              keyed_bases(gen, cfg.m_bases, n) if nearest else None)
        bob_err += bob
        eve_err += eve

    def analytic(kind: str) -> float:
        """The receiver's table averaged over the 2d+1 DSR offsets of the axis point."""
        return float(np.mean(tables[kind][np.arange(-cfg.dsr_d, cfg.dsr_d + 1)]))

    eve = BerEstimate.from_counts(eve_err, cfg.trials) if cfg.eve_strategy != "none" else None
    return TrialReport(cfg, BerEstimate.from_counts(bob_err, cfg.trials), eve,
                       analytic(cfg.bob_receiver.kind), analytic(eve_kind) if eve_kind else None)
