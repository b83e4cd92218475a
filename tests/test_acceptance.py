"""End-to-end acceptance checks for the full toolkit.

Each test exercises one release criterion and prints a single
"ACCEPTANCE n (name): PASS/FAIL" line before asserting, so a plain
pytest run doubles as an acceptance report.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from alphaeta.cli import main
from alphaeta.cipher import Constellation
from alphaeta.keyrate import key_rate_at_s
from alphaeta.montecarlo import SimConfig, run_simulation
from alphaeta.receivers import (
    canonical_phase_antipodal,
    eve_nokey_helstrom,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
)
from references import exponent_fit

S_GRID = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")
    return ok


def test_01_asymptotic_hierarchy_at_s7():
    t0 = time.perf_counter()
    code, out = run_cli("ber-table", "--s-min", "7", "--s-max", "7",
                        "--steps", "2", "--format", "json")
    elapsed = time.perf_counter() - t0
    row = json.loads(out)[0]
    got = [row["optimal_asymptotic"], row["phase_asymptotic"],
           row["heterodyne_asymptotic"]]
    want = [6.9e-13, 8.3e-7, 9.1e-4]
    factors = [max(g / w, w / g) for g, w in zip(got, want)]
    ok = code == 0 and all(f < 10 for f in factors) and elapsed < 1.0
    assert report(1, "asymptotic hierarchy at S=7", ok,
                  f"asymptotics={got}, worst factor={max(factors):.3f}, "
                  f"runtime={elapsed:.2f}s")


def test_02_fitted_decay_exponents():
    t0 = time.perf_counter()
    slopes = {
        "optimal": exponent_fit([(s, helstrom_pure_antipodal(s).exact)
                                 for s in S_GRID]),
        "phase": exponent_fit([(s, canonical_phase_antipodal(s).exact)
                               for s in S_GRID]),
        "heterodyne": exponent_fit([(s, heterodyne_antipodal(s).exact)
                                    for s in S_GRID]),
    }
    elapsed = time.perf_counter() - t0
    targets = {"optimal": -4.0, "phase": -2.0, "heterodyne": -1.0}
    offs = {k: abs(slopes[k] - targets[k]) for k in targets}
    ok = all(v <= 0.3 for v in offs.values()) and elapsed < 10.0
    assert report(2, "fitted decay exponents", ok,
                  f"slopes={{{', '.join(f'{k}: {v:.3f}' for k, v in slopes.items())}}}, "
                  f"targets (-4, -2, -1) within 0.3, runtime={elapsed:.2f}s")


def test_03_phase_to_optimal_slope_ratio():
    t0 = time.perf_counter()
    slope_opt = exponent_fit([(s, helstrom_pure_antipodal(s).exact)
                              for s in S_GRID])
    slope_ph = exponent_fit([(s, canonical_phase_antipodal(s).exact)
                             for s in S_GRID])
    elapsed = time.perf_counter() - t0
    ratio = slope_ph / slope_opt
    ok = 0.4 <= ratio <= 0.6 and elapsed < 10.0
    assert report(3, "phase/optimal slope ratio", ok,
                  f"ratio={ratio:.3f} (want [0.4, 0.6]), runtime={elapsed:.2f}s")


def test_04_keyed_measurement_advantage():
    t0 = time.perf_counter()
    rows = {s: (helstrom_pure_antipodal(s).exact,
                canonical_phase_antipodal(s).exact,
                heterodyne_antipodal(s).exact)
            for s in (1.0, 2.0, 4.0, 7.0)}
    elapsed = time.perf_counter() - t0
    strict = all(o < p < h for o, p, h in rows.values())
    o7, p7, h7 = rows[7.0]
    margins = (p7 / o7, h7 / p7)
    ok = strict and min(margins) >= 10.0 and elapsed < 5.0
    assert report(4, "keyed measurement advantage", ok,
                  f"strict ordering={strict}, S=7 margins="
                  f"(phase/opt={margins[0]:.3g}, het/phase={margins[1]:.3g}), "
                  f"runtime={elapsed:.2f}s")


def test_05_nokey_masking_trend():
    t0 = time.perf_counter()
    ms = [2, 4, 8, 16, 32, 64]
    vals = [eve_nokey_helstrom(7.0, Constellation(m, "alternating")) for m in ms]
    elapsed = time.perf_counter() - t0
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    ok = nondecreasing and vals[-1] > 0.4 and elapsed < 30.0
    assert report(5, "no-key masking trend", ok,
                  f"p_e over M={ms}: {[f'{v:.4f}' for v in vals]}, "
                  f"runtime={elapsed:.2f}s")


def test_06_monte_carlo_matches_analytic():
    t0 = time.perf_counter()
    base = dict(m_bases=32, mapping="alternating", seed_key="deadbeef",
                trials=10 ** 7, master_seed=2026, dsr_d=0)
    checks = []

    rep = run_simulation(SimConfig(s=7.0, bob_receiver="heterodyne",
                                   eve_strategy="none", **base))
    checks.append(("S=7 heterodyne Bob", rep.bob, rep.analytic_bob))

    rep = run_simulation(SimConfig(s=2.0, bob_receiver="homodyne",
                                   eve_strategy="none", **base))
    checks.append(("S=2 homodyne Bob", rep.bob, rep.analytic_bob))

    rep = run_simulation(SimConfig(s=7.0, bob_receiver="heterodyne",
                                   eve_strategy="phase-deferred", **base))
    checks.append(("S=7 phase-deferred Eve", rep.eve, rep.analytic_eve))

    elapsed = time.perf_counter() - t0
    contained = {name: est.ci_low <= exact <= est.ci_high
                 for name, est, exact in checks}
    ok = all(contained.values()) and elapsed < 120.0
    assert report(6, "Monte Carlo vs analytic", ok,
                  f"99% CI containment={contained}, runtime={elapsed:.1f}s")


def test_07_key_rate_orders():
    t0 = time.perf_counter()
    _, out_ph = run_cli("keyrate", "--s", "7", "--eve", "phase-deferred",
                        "--line-rate", "1e9")
    _, out_het = run_cli("keyrate", "--s", "7", "--eve", "heterodyne-deferred",
                         "--line-rate", "1e9")
    rate_ph = json.loads(out_ph)["rate"]
    rate_het = json.loads(out_het)["rate"]
    rate_s30 = key_rate_at_s(30.0, "phase-deferred", 1e9).rate
    elapsed = time.perf_counter() - t0
    ok_ph = 1e3 <= rate_ph <= 1e5
    ok_het = 1e6 <= rate_het <= 1e8
    annotated = "note" in json.loads(out_ph) and "reference_rate_order" in json.loads(out_ph)
    ok = ok_ph and ok_het and rate_s30 < 0.1 and annotated and elapsed < 5.0
    assert report(7, "key rate order brackets", ok,
                  f"phase-deferred={rate_ph:.3e} (want [1e3,1e5]), "
                  f"heterodyne-deferred={rate_het:.3e} (want [1e6,1e8]), "
                  f"rate(S=30)={rate_s30:.3e} bits/s, runtime={elapsed:.2f}s")


def test_08_cipher_round_trip(tmp_path):
    t0 = time.perf_counter()
    data = np.random.default_rng(8).integers(0, 256, 125_000, dtype=np.uint8).tobytes()
    pt, ct = tmp_path / "pt.bin", tmp_path / "ct.bin"
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    pt.write_bytes(data)
    run_cli("encrypt", "--input", str(pt), "--output", str(ct),
            "--seed-key", "0badc0de", "--m", "32")
    run_cli("decrypt", "--input", str(ct), "--output", str(good),
            "--seed-key", "0badc0de")
    run_cli("decrypt", "--input", str(ct), "--output", str(bad),
            "--seed-key", "5eed5eed")
    elapsed = time.perf_counter() - t0
    identity = good.read_bytes() == data
    a = np.unpackbits(np.frombuffer(data, np.uint8))
    b = np.unpackbits(np.frombuffer(bad.read_bytes(), np.uint8))
    ber = float(np.mean(a != b))
    ok = identity and abs(ber - 0.5) <= 0.02 and elapsed < 5.0
    assert report(8, "cipher round trip", ok,
                  f"round-trip identity={identity}, wrong-key BER={ber:.4f} "
                  f"(want 0.5 +/- 0.02), runtime={elapsed:.2f}s")


def test_09_simulation_determinism():
    t0 = time.perf_counter()
    argv = ["simulate", "--s", "3", "--bob", "heterodyne", "--eve",
            "heterodyne-deferred", "--trials", "1000000", "--master-seed", "99",
            "--workers", "4"]
    _, run_a = run_cli(*argv)
    _, run_b = run_cli(*argv)
    _, run_serial = run_cli(*argv[:-2], "--workers", "1")
    elapsed = time.perf_counter() - t0
    ok = run_a == run_b == run_serial and elapsed < 60.0
    assert report(9, "parallel simulation determinism", ok,
                  f"repeat identical={run_a == run_b}, "
                  f"serial==parallel={run_a == run_serial}, runtime={elapsed:.1f}s")
