"""Slow, direct references that tests check the engine against: the bit-serial LFSR
behind cipher.KeystreamGen, and the least-squares decay exponent of a BER law."""

import numpy as np


def lfsr_fill(state, tap_shifts, top, out):
    """Bit-serial reference: emit the LSB, feed the tap parity back at the top.

    Fills out with the next len(out) keystream bits of the register `state` and
    returns the register after them.
    """
    for i in range(len(out)):
        out[i] = state & 1
        fb = 0
        for s in tap_shifts:
            fb ^= (state >> s) & 1
        state = (state >> 1) | (fb << top)
    return state


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
