"""Fresh-key generation rate from the Bob/Eve error-probability gap.

The rate model is the binary-symmetric-channel secrecy-capacity gap:
rate = line_rate * max(0, h(p_eve) - h(p_bob)), clamped to the line rate.
This is the standard minimal privacy-amplification accounting; published
order-of-magnitude figures for this scheme use an unspecified accounting
and need not match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .names import EVE_STRATEGIES, KEYRATE_EVE_STRATEGIES
from .receivers import BER_LAWS, helstrom_pure_antipodal


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@dataclass(frozen=True)
class KeyRateReport:
    p_bob: float
    p_eve: float
    line_rate: float
    fraction: float
    rate: float


def key_rate(p_bob: float, p_eve: float, line_rate: float) -> KeyRateReport:
    """Distillable key bits per second at the given line rate."""
    if not 0 < line_rate < math.inf:  # also rejects NaN
        raise ValueError("line rate must be positive and finite")
    fraction = binary_entropy(p_eve) - binary_entropy(p_bob)
    fraction = min(1.0, max(0.0, fraction))
    return KeyRateReport(p_bob, p_eve, line_rate, fraction, line_rate * fraction)


def key_rate_at_s(s: float, eve_strategy: str, line_rate: float) -> KeyRateReport:
    """Key rate at signal level s, with Bob at the optimum keyed receiver and Eve
    deferring her decision."""
    if eve_strategy not in KEYRATE_EVE_STRATEGIES:
        raise ValueError(f"{eve_strategy!r} is not a deferred eve strategy")
    eve_law = BER_LAWS[EVE_STRATEGIES[eve_strategy]]
    return key_rate(helstrom_pure_antipodal(s).exact, eve_law(s).exact, line_rate)
