"""End-to-end Monte Carlo engine for the keyed-constellation link.

Quadrature convention: x = (a + a^dag)/2, vacuum variance 1/4 per
quadrature.  Homodyne sees that vacuum noise directly; heterodyne pays
one extra vacuum unit, i.e. variance 1/2 per quadrature.  With this
convention the antipodal BERs are 1/2 erfc(sqrt(2S)) and 1/2 erfc(sqrt(S)).

Keyed receivers decide on the axis quadrature (heterodyne, homodyne) or the CDF
interval of the phase half-plane; keyless nearest-point Eve samples the phase.

Trials run in fixed batches of 65536; batch i draws from an RNG stream
keyed by (master_seed, i) and takes the keystream's i-th slice of bases,
so results are bit-identical regardless of how many workers execute the
batches.  The keystream is drawn batch by batch as the pool consumes it, so
memory is bounded by the batch size, not the trial count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cipher import Constellation, KeystreamGen, dsr_offset, encode
from .fock import CoherentVec, coherent_amplitudes, phase_distribution, wrap_angle
from .receivers import EVE_STRATEGIES, ReceiverModel, helstrom_pure_antipodal

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
    return max(0.0, center - half), min(1.0, center + half)


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

    def to_dict(self) -> dict:
        return {"errors": self.errors, "trials": self.trials, "p_hat": self.p_hat,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


@dataclass(frozen=True)
class SimConfig:
    s: float
    m_bases: int
    mapping: str = "alternating"
    seed_key: str = "deadbeef"
    bob_receiver: ReceiverModel = field(default_factory=lambda: ReceiverModel("heterodyne"))
    eve_strategy: str = "none"
    trials: int = 100_000
    master_seed: int = 0
    dsr_d: int = 0

    def validate(self) -> None:
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

    def to_dict(self) -> dict:
        return {
            "s": self.s, "m_bases": self.m_bases, "mapping": self.mapping,
            "seed_key": self.seed_key,
            "bob_receiver": {"kind": self.bob_receiver.kind,
                             "resolution": self.bob_receiver.resolution},
            "eve_strategy": self.eve_strategy, "trials": self.trials,
            "master_seed": self.master_seed, "dsr_d": self.dsr_d,
        }


@dataclass(frozen=True)
class TrialReport:
    config: SimConfig
    bob: BerEstimate
    eve: BerEstimate | None
    analytic_bob: float
    analytic_eve: float | None

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "bob": self.bob.to_dict(),
            "eve": self.eve.to_dict() if self.eve is not None else None,
            "analytic_bob": self.analytic_bob,
            "analytic_eve": self.analytic_eve,
        }


def sample_heterodyne(s: float, cos_offset, cos_axis, sin_axis, rng: np.random.Generator,
                      size: int | None = None):
    """Re(z e^{-i phi_axis}) of z = sqrt(S) e^{i phi_signal} + g, Var Re g = Var Im g = 1/2.

    Takes phasors, not angles: cos_offset = cos(phi_signal - phi_axis) and the
    axis's cos and sin, so a caller with angles pi k/M gathers them from a table.
    """
    g_re = rng.normal(scale=math.sqrt(0.5), size=size)
    g_im = rng.normal(scale=math.sqrt(0.5), size=size)
    return math.sqrt(s) * cos_offset + g_re * cos_axis + g_im * sin_axis


def sample_homodyne(s: float, cos_offset, rng: np.random.Generator, size: int | None = None):
    """Homodyne outcome x = sqrt(S) cos_offset + g, Var g = 1/4, with cos_offset =
    cos(phi_signal - phi_lo)."""
    return math.sqrt(s) * cos_offset + rng.normal(scale=0.5, size=size)


class PhaseSampler:
    """Inverse-CDF sampler for the canonical phase distribution of a state."""

    def __init__(self, v: CoherentVec, resolution: int = 1 << 16):
        dist = phase_distribution(v, resolution)
        mass = dist.density * dist.spacing
        cdf = np.concatenate(([0.0], np.cumsum(mass)))
        cdf /= cdf[-1]
        self._cdf = cdf
        self._edges = np.linspace(-np.pi, np.pi, resolution + 1)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return np.interp(rng.random(size), self._cdf, self._edges)

    def half_planes(self, m_count: int) -> tuple[np.ndarray, np.ndarray]:
        """CDF-space (lo, width) per offset k < 2M: F is monotone, so phi = F^-1(u) of
        `sample` plus pi k/M is within pi/2 of the axis iff (u - lo[k]) mod 1 <= width[k]."""
        def cdf(x):  # periodic extension, F(x + 2 pi) = F(x) + 1
            turns = np.floor((x + np.pi) / (2 * np.pi))
            return turns + np.interp(x - 2 * np.pi * turns, self._edges, self._cdf)

        start = -np.pi / 2 - np.pi * np.arange(2 * m_count) / m_count
        lo = cdf(start)
        return lo % 1.0, cdf(start + np.pi) - lo


def _run_batch(cfg: SimConfig, const: Constellation, sampler: PhaseSampler | None,
               planes, phasors, p_flip: float, batch: int, m: np.ndarray) -> tuple[int, int]:
    """Bob's and Eve's error counts over batch `batch`, whose keyed bases are m."""
    m_count = cfg.m_bases
    n = m.size
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, batch]))

    bits = rng.integers(0, 2, size=n, dtype=np.int64)
    sent = encode(bits, m, const)
    sent_far = sent >= m_count  # the bit sits on point m+M of its pair, not on m
    j = dsr_offset(rng, cfg.dsr_d, sent, m_count)
    k = (j - m) & (2 * m_count - 1)  # sent point's offset from the axis, mod 2M = 2^b
    cos_tab, sin_tab = phasors  # cos and sin of pi i/M for i < 2M

    def errors(kind: str | None) -> int:
        """Wrong decisions of receiver `kind`: the one decision kernel of Bob and Eve.

        A keyed receiver picks the point of the pair (m, m+M) on whose side of
        the basis axis its outcome falls; "optimal" errs with the Helstrom
        probability.  kind None has no key: it snaps a canonical-phase outcome
        to the nearest of all 2M points and reads that point's bit.
        """
        if kind == "optimal":
            return int(np.count_nonzero(rng.random(n) < p_flip))
        if kind is None:
            phi_hat = wrap_angle(sampler.sample(rng, n) + np.pi * j / m_count)
            j_hat = np.rint(phi_hat * m_count / np.pi).astype(np.int64) % (2 * m_count)
            return int(np.count_nonzero(const.point_bit(j_hat) != bits))
        if kind == "phase":
            cdf_lo, cdf_width = planes
            u = rng.random(n) - cdf_lo[k]
            u += u < 0  # mod 1, as both terms lie in [0, 1); a float % is 3x slower
            far = u > cdf_width[k]
        elif kind == "heterodyne":
            far = sample_heterodyne(cfg.s, cos_tab[k], cos_tab[m], sin_tab[m], rng, n) < 0
        else:
            far = sample_homodyne(cfg.s, cos_tab[k], rng, n) < 0
        return int(np.count_nonzero(far != sent_far))

    bob_err = errors(cfg.bob_receiver.kind)
    eve_err = errors(EVE_STRATEGIES[cfg.eve_strategy]) if cfg.eve_strategy != "none" else 0
    return bob_err, eve_err


def run_simulation(cfg: SimConfig, workers: int = 1) -> TrialReport:
    """Simulate cfg.trials symbols; deterministic for a fixed master_seed.

    The calling thread draws each batch's bases, in batch order, while the pool
    works on earlier batches; at most 2 * workers batches are in flight.
    """
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    const = Constellation(cfg.m_bases, cfg.mapping)
    gen = KeystreamGen.from_hex(cfg.seed_key)

    eve_kind = EVE_STRATEGIES.get(cfg.eve_strategy)
    needs_phase = cfg.bob_receiver.kind == "phase" or \
        (cfg.eve_strategy != "none" and eve_kind in ("phase", None))
    sampler = PhaseSampler(coherent_amplitudes(cfg.s, 0.0)) if needs_phase else None
    planes = sampler.half_planes(cfg.m_bases) if needs_phase else None
    angles = np.pi * np.arange(2 * cfg.m_bases) / cfg.m_bases
    phasors = np.cos(angles), np.sin(angles)
    p_flip = helstrom_pure_antipodal(cfg.s).exact

    task = partial(_run_batch, cfg, const, sampler, planes, phasors, p_flip)
    counts = []
    in_flight = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for batch, lo in enumerate(range(0, cfg.trials, BATCH_SIZE)):
            m = gen.bases(cfg.m_bases, min(BATCH_SIZE, cfg.trials - lo))
            in_flight.append(pool.submit(task, batch, m))
            if len(in_flight) >= 2 * workers:
                counts.append(in_flight.popleft().result())
        counts += [f.result() for f in in_flight]
    bob_err = sum(c[0] for c in counts)
    eve_err = sum(c[1] for c in counts)

    analytic_bob = cfg.bob_receiver.law(cfg.s).exact
    analytic_eve = ReceiverModel(eve_kind).law(cfg.s).exact if eve_kind else None

    eve = BerEstimate.from_counts(eve_err, cfg.trials) if cfg.eve_strategy != "none" else None
    return TrialReport(cfg, BerEstimate.from_counts(bob_err, cfg.trials), eve,
                       analytic_bob, analytic_eve)
