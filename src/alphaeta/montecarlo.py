"""End-to-end Monte Carlo engine for the keyed-constellation link.

Every receiver errs on a trial with a probability that depends only on the
trial's cell, so a run builds one error table per receiver and a batch decides
each receiver with one kernel: given the histogram of the batch's trials over
the cells, its errors are one binomial draw per occupied cell, which is exact in
distribution.  A keyed receiver's cell is the sent point's offset k from the
basis axis.  Keyless nearest-point Eve's cell is the sent bit and point (b, j).
Every phase table is read from one PhaseSampler, the two-sided Simpson tail of
the phase density (fock.phase_tails) at the table nodes k pi/2M, on a grid
sized from S and M by fock.phase_grid; no caller picks a grid.

cell_law is the one law of the cells: a run computes the keyed law once, its
keyed-only batches draw their histograms from it, and analytic_bob and
analytic_eve are cell_law @ table.  k = (bit ^ polarity(m)) * M + dither has
that law whatever the basis m, so the keystream is drawn only for a
nearest-point Eve, whose cells depend on it; in a keyed-only run seed_key does
not affect the counts, but it is still validated and echoed in the report.

Trials run in fixed batches of 65536, in batch order; batch i draws from an RNG
stream keyed by (master_seed, i) and, with a nearest-point Eve, takes the
keystream's i-th slice of bases.  The keystream is drawn batch by batch, so
memory is bounded by the batch size, not the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cipher import Constellation, KeystreamGen, encode
from .fock import phase_grid, phase_tails
from .names import EVE_STRATEGIES, RECEIVER_KINDS
from .receivers import BER_LAWS

BATCH_SIZE = 1 << 16
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
    bob_receiver: str = "heterodyne"
    eve_strategy: str = "none"
    trials: int = 100_000
    master_seed: int = 0
    dsr_d: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not math.isfinite(self.s) or self.s < 0:
            raise ValueError("S must be finite and >= 0")
        if self.bob_receiver not in RECEIVER_KINDS:
            raise ValueError(f"unknown receiver kind {self.bob_receiver!r}")
        if self.eve_strategy != "none" and self.eve_strategy not in EVE_STRATEGIES:
            raise ValueError(f"unknown eve strategy {self.eve_strategy!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.dsr_d and not 0 <= self.dsr_d < self.m_bases / 2:
            raise ValueError(f"dsr_d={self.dsr_d} must satisfy 0 <= d < M/2")
        if self.dsr_d and self.bob_receiver == "optimal":
            raise ValueError("analytic-flip Bob cannot be combined with DSR "
                             "(the flip probability is no longer valid)")
        Constellation(self.m_bases, self.mapping)  # raises on bad M / mapping
        KeystreamGen.from_hex(self.seed_key)  # raises on a bad seed key


@dataclass(frozen=True)
class TrialReport:
    config: SimConfig
    bob: BerEstimate
    eve: BerEstimate | None
    analytic_bob: float
    analytic_eve: float | None


class PhaseSampler:
    """fock.phase_tails of |sqrt S> on the phase_grid(S, M) grid; `tails` holds its
    entries T(k pi/2M), k = 0 .. 2M, at the arc edges the phase tables read."""

    def __init__(self, s: float, m_bases: int):
        grid = phase_grid(s, m_bases)
        self._all = phase_tails(s, grid)
        self.tails = self._all[::grid // (8 * m_bases)]

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws phi = sign(v) T^-1(|v|), T linear between nodes, v uniform on [-1, 1)."""
        v = 2.0 * rng.random(size) - 1.0
        nodes = np.linspace(np.pi, 0.0, self._all.size)
        return np.copysign(np.interp(np.abs(v), self._all[::-1], nodes), v)


def offset_error_table(kind: str, s: float, m_count: int,
                       tails: np.ndarray | None) -> np.ndarray:
    """p_err[k]: keyed receiver `kind` decides on the wrong side of the basis axis when
    the sent point lies k steps of pi/M from it, k < 2M.

    It depends only on the point's angle delta = pi i/M from the axis line,
    i = min(k mod M, M - k mod M) <= M/2.  A Gaussian outcome errs with its
    receiver's law at the projected signal S cos^2 delta (one law call per i;
    "optimal" only meets delta = 0, where its law is the Helstrom flip); the
    phase receiver errs with the mass beyond the half-plane, (T(pi/2 - delta) +
    T(pi/2 + delta)) / 2 as the density is even: PhaseSampler.tails at M -+ 2i.
    """
    i = np.arange(m_count // 2 + 1)
    delta = np.pi * i / m_count
    if kind == "phase":
        per_angle = (tails[m_count - 2 * i] + tails[m_count + 2 * i]) / 2
    else:
        law = BER_LAWS[kind]
        per_angle = np.array([law(s * math.cos(x) ** 2).exact for x in delta.tolist()])
    steps = np.arange(2 * m_count) % m_count
    return per_angle[np.minimum(steps, m_count - steps)]


def nearest_point_table(tails: np.ndarray, const: Constellation) -> np.ndarray:
    """p_err[b * 2M + j]: the probability that keyless Eve, who snaps a canonical-phase
    outcome to the nearest of all 2M points and reads that point's bit, errs on a
    trial that sent bit b on point j.

    a[i], the density mass on the pi/M-wide arc around offset i pi/M, is read from
    PhaseSampler.tails.  She reads 1 with probability q[j] = sum_i a[i] *
    point_bit((j + i) mod 2M), a circular correlation that one rFFT gives at any M,
    and errs with q[j] when b = 0 and 1 - q[j] when b = 1: under DSR the sent bit
    need not be point_bit(j).
    """
    n = const.num_points
    beyond = tails[1::2]  # mass beyond |phi| = pi (i + 1/2) / M, i < M
    side = -np.diff(beyond) / 2  # the arc around +-i pi/M, 0 < i < M
    arcs = np.concatenate(([1.0 - beyond[0]], side, beyond[-1:], side[::-1]))
    ones = const.point_bit(np.arange(n))
    q = np.clip(np.fft.irfft(np.conj(np.fft.rfft(arcs)) * np.fft.rfft(ones), n), 0.0, 1.0)
    return np.concatenate((q, 1.0 - q))


def cell_law(const: Constellation, d: int, size: int) -> np.ndarray:
    """The probability of each cell of a receiver's error table: a table of 2M entries
    is over keyed offsets k, one of 4M over Eve's b * 2M + j.

    The 2M(2d+1) (bit, basis, dither) triples are equally likely.  Undithered, (b, m)
    sends j = encode(b, m); a dither in [-d, d] then moves j, so a cell holds the
    undithered triples of the 2d+1 cells around it: a circular window sum, one cumsum.
    """
    n, m_count = const.num_points, const.m_bases
    bits, bases = np.repeat([0, 1], m_count), np.tile(np.arange(m_count), 2)
    j = encode(bits, bases, const)
    cells = (j - bases) % n if size == n else bits * n + j
    undithered = np.bincount(cells, minlength=size).reshape(-1, n)
    sums = np.cumsum(undithered[:, np.arange(-d - 1, n + d) % n], axis=1)
    counts = (sums[:, 2 * d + 1:] - sums[:, :n]).ravel()
    return counts / counts.sum()


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


def _run_batch(cfg: SimConfig, const: Constellation, tables: dict, law: np.ndarray,
               batch: int, n: int, m: np.ndarray | None) -> tuple[int, int]:
    """Bob's and Eve's error counts over the n trials of batch `batch`.

    Without a nearest-point Eve (m None) the batch's offset histogram is one
    multinomial draw from `law`, the keyed cell law, over its occupied cells in
    index order.  Otherwise m holds the keyed bases: the batch draws its bits
    and DSR dithers, sends j = encode(bit, m) + dither, and counts Bob's offsets
    k = (j - m) mod 2M and Eve's cells bit * 2M + j.  Bob's decisions come first,
    then Eve's.
    """
    m_count = cfg.m_bases
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, batch]))
    if m is None:
        occupied = np.flatnonzero(law)
        hist = eve_hist = np.zeros(2 * m_count, dtype=np.int64)
        hist[occupied] = rng.multinomial(n, law[occupied])
    else:
        bits = rng.integers(0, 2, size=n)
        j = encode(bits, m, const)
        # mod 2M by mask, as 2M is a power of 2: an int64 % costs ~1 ms a batch
        if cfg.dsr_d:  # deliberate state randomization: a uniform dither in [-d, d]
            j = (j + rng.integers(-cfg.dsr_d, cfg.dsr_d + 1, size=n)) & (2 * m_count - 1)
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

    bob_err = errors(hist, tables[cfg.bob_receiver])
    if cfg.eve_strategy == "none":
        return bob_err, 0
    return bob_err, errors(eve_hist, tables[EVE_STRATEGIES[cfg.eve_strategy]])


def run_simulation(cfg: SimConfig) -> TrialReport:
    """Simulate cfg.trials symbols, batch by batch in batch order; deterministic for
    a fixed master_seed."""
    const = Constellation(cfg.m_bases, cfg.mapping)

    eve_kind = EVE_STRATEGIES.get(cfg.eve_strategy)
    keyed = {cfg.bob_receiver, eve_kind} - {None}
    nearest = cfg.eve_strategy != "none" and eve_kind is None
    tails = PhaseSampler(cfg.s, cfg.m_bases).tails if nearest or "phase" in keyed else None
    tables = {kind: offset_error_table(kind, cfg.s, cfg.m_bases, tails) for kind in keyed}
    if nearest:
        tables[None] = nearest_point_table(tails, const)  # None: keyless Eve's table
    del tails  # the batches do not read it; its grid need not outlive the tables
    gen = KeystreamGen.from_hex(cfg.seed_key) if nearest else None
    law = cell_law(const, cfg.dsr_d, 2 * cfg.m_bases)  # of the keyed offsets k

    bob_err = eve_err = 0
    for batch, lo in enumerate(range(0, cfg.trials, BATCH_SIZE)):
        n = min(BATCH_SIZE, cfg.trials - lo)
        bob, eve = _run_batch(cfg, const, tables, law, batch, n,
                              keyed_bases(gen, cfg.m_bases, n) if nearest else None)
        bob_err += bob
        eve_err += eve

    eve = BerEstimate.from_counts(eve_err, cfg.trials) if cfg.eve_strategy != "none" else None
    eve_law = cell_law(const, cfg.dsr_d, 4 * cfg.m_bases) if nearest else law
    return TrialReport(cfg, BerEstimate.from_counts(bob_err, cfg.trials), eve,
                       float(law @ tables[cfg.bob_receiver]),
                       float(eve_law @ tables[eve_kind]) if eve else None)
