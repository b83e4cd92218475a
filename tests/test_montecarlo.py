import math

import numpy as np
import pytest
from scipy import stats

from alphaeta.fock import coherent_amplitudes, wrap_angle
from alphaeta.montecarlo import (
    BerEstimate,
    PhaseSampler,
    SimConfig,
    run_simulation,
    sample_heterodyne,
    sample_homodyne,
    wilson_interval,
)
from alphaeta.receivers import (
    ReceiverModel,
    canonical_phase_antipodal,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
    homodyne_antipodal,
)


class TestWilson:
    def test_interval_brackets_p_hat(self):
        for errors, trials in [(0, 100), (3, 1000), (500, 1000), (999, 1000)]:
            low, high = wilson_interval(errors, trials)
            assert 0 <= low <= errors / trials <= high <= 1

    def test_zero_errors_upper_bound(self):
        low, high = wilson_interval(0, 10 ** 7)
        assert low == 0.0
        assert high == pytest.approx(2.5758 ** 2 / 10 ** 7, rel=1e-3)

    def test_estimate_from_counts(self):
        est = BerEstimate.from_counts(5, 100)
        assert est.p_hat == 0.05
        assert est.ci_low < 0.05 < est.ci_high

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestSamplers:
    def test_heterodyne_vacuum_moments(self):
        rng = np.random.default_rng(1)
        z = sample_heterodyne(0.0, 0.0, rng, 10 ** 6)
        n = z.size
        for quad in (z.real, z.imag):
            assert abs(np.mean(quad)) < 5 * math.sqrt(0.5 / n)
            assert abs(np.var(quad) - 0.5) < 5 * math.sqrt(2 * 0.25 / n)

    def test_heterodyne_mean_displacement(self):
        rng = np.random.default_rng(2)
        z = sample_heterodyne(4.0, math.pi / 2, rng, 10 ** 6)
        tol = 5 * math.sqrt(0.5 / z.size)
        assert abs(np.mean(z.real)) < tol
        assert np.mean(z.imag) == pytest.approx(2.0, abs=tol)

    def test_heterodyne_sign_decision_matches_erfc(self):
        rng = np.random.default_rng(3)
        n, s = 10 ** 7, 7.0
        z = sample_heterodyne(s, 0.0, rng, n)
        p_hat = np.count_nonzero(z.real < 0) / n
        p = heterodyne_antipodal(s).exact
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_homodyne_vacuum_variance(self):
        rng = np.random.default_rng(4)
        x = sample_homodyne(0.0, 0.0, 0.0, rng, 10 ** 6)
        assert abs(np.var(x) - 0.25) < 5 * math.sqrt(2 * 0.0625 / x.size)

    def test_homodyne_orthogonal_quadrature_mean_zero(self):
        rng = np.random.default_rng(5)
        x = sample_homodyne(9.0, math.pi / 2, 0.0, rng, 10 ** 6)
        assert abs(np.mean(x)) < 5 * math.sqrt(0.25 / x.size)

    def test_homodyne_sign_decision_matches_erfc(self):
        rng = np.random.default_rng(6)
        n, s = 10 ** 7, 2.0
        x = sample_homodyne(s, 0.0, 0.0, rng, n)
        p_hat = np.count_nonzero(x < 0) / n
        p = homodyne_antipodal(s).exact
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_phase_vacuum_uniform_ks(self):
        rng = np.random.default_rng(7)
        draws = PhaseSampler(coherent_amplitudes(0.0, 0.0, 8)).sample(rng, 10 ** 5)
        res = stats.kstest(draws, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf)
        assert res.pvalue > 0.01

    def test_phase_half_plane_error_rate(self):
        rng = np.random.default_rng(8)
        n, s = 10 ** 7, 7.0
        draws = PhaseSampler(coherent_amplitudes(s, 0.0)).sample(rng, n)
        p_hat = np.count_nonzero(np.abs(draws) > math.pi / 2) / n
        p = canonical_phase_antipodal(s, 16384).exact
        assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_phase_mode_follows_state_phase(self):
        rng = np.random.default_rng(9)
        theta = 1.25
        draws = PhaseSampler(coherent_amplitudes(7.0, theta)).sample(rng, 10 ** 5)
        hist, edges = np.histogram(draws, bins=256, range=(-math.pi, math.pi))
        mode = (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1]) / 2
        assert abs(wrap_angle(mode - theta)) < 0.05


def _cfg(**kw):
    base = dict(s=7.0, m_bases=32, mapping="alternating", seed_key="deadbeef",
                bob_receiver=ReceiverModel("heterodyne"), eve_strategy="none",
                trials=100_000, master_seed=1, dsr_d=0)
    base.update(kw)
    return SimConfig(**base)


class TestRunSimulation:
    def test_heterodyne_bob_within_ci(self):
        # frozen draw; a 99% interval misses for ~1 in 100 seeds
        rep = run_simulation(_cfg(trials=10 ** 6, master_seed=2), workers=2)
        assert rep.analytic_bob == heterodyne_antipodal(7.0).exact
        assert rep.bob.ci_low <= rep.analytic_bob <= rep.bob.ci_high

    def test_optimal_bob_nearly_error_free(self):
        rep = run_simulation(_cfg(bob_receiver=ReceiverModel("optimal"), trials=10 ** 6))
        assert rep.bob.errors == 0  # p ~ 1.7e-13
        assert rep.analytic_bob == helstrom_pure_antipodal(7.0).exact

    def test_no_signal_is_coin_flip(self):
        rep = run_simulation(_cfg(s=0.0, eve_strategy="heterodyne-deferred",
                                  trials=200_000))
        assert rep.bob.ci_low <= 0.5 <= rep.bob.ci_high
        assert rep.eve.ci_low <= 0.5 <= rep.eve.ci_high

    @pytest.mark.parametrize("kind,law", [
        ("homodyne", homodyne_antipodal),
        ("phase", canonical_phase_antipodal),
    ])
    def test_physical_receivers_match_analytic(self, kind, law):
        # S chosen so expected errors >= 50
        s, trials = 2.0, 10 ** 6
        rep = run_simulation(_cfg(s=s, bob_receiver=ReceiverModel(kind), trials=trials),
                             workers=2)
        assert rep.bob.ci_low <= law(s).exact <= rep.bob.ci_high

    @pytest.mark.parametrize("s,trials", [(1.0, 10 ** 5), (2.0, 10 ** 5), (4.0, 10 ** 6)])
    def test_eve_worse_than_keyed_bob(self, s, trials):
        rep = run_simulation(_cfg(s=s, bob_receiver=ReceiverModel("optimal"),
                                  eve_strategy="phase-deferred", trials=trials))
        assert rep.eve.p_hat > rep.analytic_bob

    def test_nearest_point_eve_confused_at_m64(self):
        rep = run_simulation(_cfg(m_bases=64, bob_receiver=ReceiverModel("optimal"),
                                  eve_strategy="nearest-point", trials=200_000))
        assert rep.eve.p_hat >= 0.25
        assert rep.analytic_eve is None

    def test_reproducible_across_workers(self):
        cfg = _cfg(eve_strategy="phase-deferred", trials=300_000, master_seed=77)
        reports = [run_simulation(cfg, workers=w).to_dict() for w in (1, 3, 8)]
        assert reports[0] == reports[1] == reports[2]

    def test_different_master_seed_changes_outcomes(self):
        a = run_simulation(_cfg(s=1.0, master_seed=1))
        b = run_simulation(_cfg(s=1.0, master_seed=2))
        assert a.bob.errors != b.bob.errors

    def test_dsr_with_phase_bob_stays_decodable(self):
        rep = run_simulation(_cfg(s=4.0, m_bases=8, dsr_d=3,
                                  bob_receiver=ReceiverModel("phase"), trials=200_000))
        # dithered points stay inside Bob's half-plane, so BER stays small
        assert rep.bob.p_hat < 0.05

    def test_rejects_optimal_bob_with_dsr(self):
        with pytest.raises(ValueError, match="DSR"):
            _cfg(bob_receiver=ReceiverModel("optimal"), dsr_d=1).validate()

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            _cfg(trials=0).validate()
        with pytest.raises(ValueError):
            _cfg(eve_strategy="guessing").validate()
        with pytest.raises(ValueError):
            _cfg(m_bases=6).validate()
        with pytest.raises(ValueError):
            _cfg(dsr_d=16).validate()
