"""End-to-end Monte Carlo engine for the keyed-constellation link.

Quadrature convention: x = (a + a^dag)/2, vacuum variance 1/4 per
quadrature.  Homodyne sees that vacuum noise directly; heterodyne pays
one extra vacuum unit, i.e. variance 1/2 per quadrature.  With this
convention the antipodal BERs are 1/2 erfc(sqrt(2S)) and 1/2 erfc(sqrt(S)).

Trials run in fixed batches of 65536; batch i draws from an RNG stream
keyed by (master_seed, i), so results are bit-identical regardless of
how many workers execute the batches.
"""

from __future__ import annotations

import math
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


def sample_heterodyne(s: float, phi, rng: np.random.Generator, size: int | None = None):
    """Heterodyne outcome z = sqrt(S) e^{i phi} + g, Var(Re g) = Var(Im g) = 1/2."""
    mean = math.sqrt(s) * np.exp(1j * np.asarray(phi))
    noise = rng.normal(scale=math.sqrt(0.5), size=size) \
        + 1j * rng.normal(scale=math.sqrt(0.5), size=size)
    return mean + noise


def sample_homodyne(s: float, phi_signal, phi_lo, rng: np.random.Generator,
                    size: int | None = None):
    """Homodyne outcome x = sqrt(S) cos(phi_signal - phi_lo) + g, Var g = 1/4."""
    mean = math.sqrt(s) * np.cos(np.asarray(phi_signal) - np.asarray(phi_lo))
    return mean + rng.normal(scale=0.5, size=size)


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


def _run_batch(cfg: SimConfig, const: Constellation, sampler: PhaseSampler | None,
               bases: np.ndarray, p_flip: float, batch: int) -> tuple[int, int]:
    m_count = cfg.m_bases
    lo = batch * BATCH_SIZE
    hi = min(lo + BATCH_SIZE, cfg.trials)
    n = hi - lo
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, batch]))

    m = bases[lo:hi]
    bits = rng.integers(0, 2, size=n, dtype=np.int64)
    sent = encode(bits, m, const)
    sent_far = sent >= m_count  # the bit sits on point m+M of its pair, not on m
    j = dsr_offset(rng, cfg.dsr_d, sent, m_count)
    theta_j = np.pi * j / m_count
    theta_m = np.pi * m / m_count

    def errors(kind: str | None) -> int:
        """Wrong decisions of receiver `kind`: the one decision kernel of Bob and Eve.

        A keyed receiver picks the point of the pair (m, m+M) on whose side of
        the basis axis its outcome falls; "optimal" errs with the Helstrom
        probability.  kind None has no key: it snaps a canonical-phase outcome
        to the nearest of all 2M points and reads that point's bit.
        """
        if kind == "optimal":
            return int(np.count_nonzero(rng.random(n) < p_flip))
        if kind == "heterodyne":
            z = sample_heterodyne(cfg.s, theta_j, rng, n)
            far = np.real(z * np.exp(-1j * theta_m)) < 0
        elif kind == "homodyne":
            far = sample_homodyne(cfg.s, theta_j, theta_m, rng, n) < 0
        else:  # phase, or keyless nearest-point
            phi_hat = wrap_angle(sampler.sample(rng, n) + theta_j)
            if kind is None:
                j_hat = np.rint(phi_hat * m_count / np.pi).astype(np.int64) % (2 * m_count)
                return int(np.count_nonzero(const.point_bit(j_hat) != bits))
            far = np.cos(phi_hat - theta_m) < 0
        return int(np.count_nonzero(far != sent_far))

    bob_err = errors(cfg.bob_receiver.kind)
    eve_err = errors(EVE_STRATEGIES[cfg.eve_strategy]) if cfg.eve_strategy != "none" else 0
    return bob_err, eve_err


def run_simulation(cfg: SimConfig, workers: int = 1) -> TrialReport:
    """Simulate cfg.trials symbols; deterministic for a fixed master_seed."""
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    const = Constellation(cfg.m_bases, cfg.mapping)
    gen = KeystreamGen.from_hex(cfg.seed_key)
    bases = gen.bases(cfg.m_bases, cfg.trials)

    eve_kind = EVE_STRATEGIES.get(cfg.eve_strategy)
    needs_phase = cfg.bob_receiver.kind == "phase" or \
        (cfg.eve_strategy != "none" and eve_kind in ("phase", None))
    sampler = PhaseSampler(coherent_amplitudes(cfg.s, 0.0)) if needs_phase else None
    p_flip = helstrom_pure_antipodal(cfg.s).exact

    n_batches = (cfg.trials + BATCH_SIZE - 1) // BATCH_SIZE
    task = partial(_run_batch, cfg, const, sampler, bases, p_flip)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(task, range(n_batches)))
    else:
        counts = [task(b) for b in range(n_batches)]
    bob_err = sum(c[0] for c in counts)
    eve_err = sum(c[1] for c in counts)

    analytic_bob = cfg.bob_receiver.law(cfg.s).exact
    analytic_eve = ReceiverModel(eve_kind).law(cfg.s).exact if eve_kind else None

    eve = BerEstimate.from_counts(eve_err, cfg.trials) if cfg.eve_strategy != "none" else None
    return TrialReport(cfg, BerEstimate.from_counts(bob_err, cfg.trials), eve,
                       analytic_bob, analytic_eve)
