import math
from dataclasses import asdict, replace

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from alphaeta.cipher import Constellation, KeystreamGen, encode
from alphaeta.fock import phase_grid, phase_tails
from alphaeta.montecarlo import (
    BATCH_SIZE,
    BerEstimate,
    PhaseSampler,
    SimConfig,
    _run_batch,
    cell_law,
    keyed_bases,
    nearest_point_table,
    offset_error_table,
    run_simulation,
    wilson_interval,
)
from alphaeta.names import EVE_STRATEGIES
from alphaeta.receivers import (
    BER_LAWS,
    canonical_phase_antipodal,
    eve_nokey_helstrom,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
    homodyne_antipodal,
)
from keyed_reference import (
    half_planes,
    nearest_point_bits,
    per_trial_errors,
    sample_heterodyne,
    sample_homodyne,
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

    @pytest.mark.parametrize("trials", [1, 7, 1000, 65536, 10 ** 7])
    def test_bounds_exact_at_no_or_all_errors(self, trials):
        # a rounded 1e-18 lower bound would exclude a true rate of 1e-40
        assert wilson_interval(0, trials, 5.0)[0] == 0.0
        assert wilson_interval(trials, trials, 5.0)[1] == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestSamplers:
    def test_heterodyne_vacuum_moments(self):
        rng = np.random.default_rng(1)
        n = 10 ** 6
        for axis in (0.0, math.pi / 2, 1.0):
            quad = sample_heterodyne(0.0, math.cos(axis), math.cos(axis), math.sin(axis), rng, n)
            assert abs(np.mean(quad)) < 5 * math.sqrt(0.5 / n)
            assert abs(np.var(quad) - 0.5) < 5 * math.sqrt(2 * 0.25 / n)

    def test_heterodyne_mean_displacement(self):
        rng = np.random.default_rng(2)
        n = 10 ** 6
        tol = 5 * math.sqrt(0.5 / n)
        # signal at pi/2, read on the axes 0 and pi/2
        assert abs(np.mean(sample_heterodyne(4.0, math.cos(math.pi / 2), 1.0, 0.0, rng, n))) < tol
        assert np.mean(sample_heterodyne(4.0, 1.0, math.cos(math.pi / 2), 1.0, rng, n)) \
            == pytest.approx(2.0, abs=tol)

    def test_heterodyne_sign_decision_matches_erfc(self):
        rng = np.random.default_rng(3)
        n, s = 10 ** 7, 7.0
        p_hat = np.count_nonzero(sample_heterodyne(s, 1.0, 1.0, 0.0, rng, n) < 0) / n
        p = heterodyne_antipodal(s).exact
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_homodyne_vacuum_variance(self):
        rng = np.random.default_rng(4)
        x = sample_homodyne(0.0, 1.0, rng, 10 ** 6)
        assert abs(np.var(x) - 0.25) < 5 * math.sqrt(2 * 0.0625 / x.size)

    def test_homodyne_orthogonal_quadrature_mean_zero(self):
        rng = np.random.default_rng(5)
        x = sample_homodyne(9.0, math.cos(math.pi / 2), rng, 10 ** 6)
        assert abs(np.mean(x)) < 5 * math.sqrt(0.25 / x.size)

    def test_homodyne_sign_decision_matches_erfc(self):
        rng = np.random.default_rng(6)
        n, s = 10 ** 7, 2.0
        x = sample_homodyne(s, 1.0, rng, n)
        p_hat = np.count_nonzero(x < 0) / n
        p = homodyne_antipodal(s).exact
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_phase_vacuum_uniform_ks(self):
        rng = np.random.default_rng(7)
        draws = PhaseSampler(0.0, 1).sample(rng, 10 ** 5)
        res = stats.kstest(draws, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf)
        assert res.pvalue > 0.01

    def test_phase_half_plane_error_rate(self):
        rng = np.random.default_rng(8)
        n, s = 10 ** 7, 7.0
        draws = PhaseSampler(s, 1).sample(rng, n)
        p_hat = np.count_nonzero(np.abs(draws) > math.pi / 2) / n
        p = canonical_phase_antipodal(s).exact
        assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_phase_mode_at_zero(self):
        rng = np.random.default_rng(9)
        draws = PhaseSampler(7.0, 1).sample(rng, 10 ** 5)
        hist, edges = np.histogram(draws, bins=256, range=(-math.pi, math.pi))
        mode = (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1]) / 2
        assert abs(mode) < 0.05


class TestKeyedDecisionIdentity:
    """The per-offset table decision has, offset by offset, the law of the sampled
    keyed receivers of keyed_reference: the heterodyne and homodyne axis sign
    and the inverse-CDF phase half-plane."""

    N = 1 << 16
    ALPHA = 2 * stats.norm.sf(5.0)  # the two-sided z=5 level

    def _trials(self, m_count, d, seed):
        """Bases m, the dithered sent points j, their offsets k and whether the bit
        sits on point m+M of its pair."""
        rng = np.random.default_rng([seed, m_count, d])
        m = rng.integers(0, m_count, self.N)
        sent_far = rng.integers(0, 2, self.N).astype(bool)
        j = (m + m_count * sent_far + rng.integers(-d, d + 1, self.N)) % (2 * m_count)
        return j, m, (j - m) % (2 * m_count), sent_far

    def _assert_covers(self, table, k, wrong):
        """Per offset k, the sampled error count passes the exact two-sided binomial
        test of p_err[k] at the z=5 level.  Not the Wilson interval: with ~1000 trials
        an offset, one error at p = 3e-5 (a 3% event) falls outside its z=5 bound."""
        for offset in np.unique(k):
            trials = k == offset
            test = stats.binomtest(int(np.count_nonzero(wrong[trials])),
                                   int(np.count_nonzero(trials)), float(table[offset]))
            assert test.pvalue >= self.ALPHA, offset

    @pytest.mark.parametrize("s", [0.3, 7.0, 100.0])
    @pytest.mark.parametrize("m_count,d", [(1, 0), (2, 0), (32, 0), (32, 1), (32, 15)])
    def test_heterodyne_axis_sign(self, s, m_count, d):
        j, m, k, sent_far = self._trials(m_count, d, 11)
        angle = np.pi * np.arange(2 * m_count) / m_count
        cos, sin = np.cos(angle), np.sin(angle)
        far = sample_heterodyne(s, cos[k], cos[m], sin[m], np.random.default_rng(12), self.N) < 0
        self._assert_covers(offset_error_table("heterodyne", s, m_count, None), k,
                            far != sent_far)

    @pytest.mark.parametrize("s", [0.3, 7.0, 100.0])
    @pytest.mark.parametrize("m_count,d", [(1, 0), (2, 0), (32, 0), (32, 1), (32, 15)])
    def test_homodyne_axis_sign(self, s, m_count, d):
        j, m, k, sent_far = self._trials(m_count, d, 15)
        far = sample_homodyne(s, np.cos(np.pi * k / m_count), np.random.default_rng(16),
                              self.N) < 0
        self._assert_covers(offset_error_table("homodyne", s, m_count, None), k,
                            far != sent_far)

    @pytest.mark.parametrize("s", [0.3, 7.0, 100.0])
    @pytest.mark.parametrize("m_count,d", [(1, 0), (2, 0), (32, 0), (32, 1), (32, 15)])
    def test_phase_cdf_interval(self, s, m_count, d):
        sampler = PhaseSampler(s, m_count)
        j, m, k, sent_far = self._trials(m_count, d, 13)
        phi = sampler.sample(np.random.default_rng(14), self.N) + np.pi * j / m_count
        far = np.cos(phi - np.pi * m / m_count) < 0
        self._assert_covers(offset_error_table("phase", s, m_count, sampler.tails), k,
                            far != sent_far)

    @pytest.mark.parametrize("kind", ["heterodyne", "homodyne", "optimal"])
    @pytest.mark.parametrize("s", [0.0, 0.3, 7.0, 100.0])
    @pytest.mark.parametrize("m_count", [1, 2, 32, 4096])
    def test_gaussian_table_is_law_at_projected_signal(self, kind, s, m_count):
        table = offset_error_table(kind, s, m_count, None)
        law = BER_LAWS[kind]
        for k in range(2 * m_count):
            steps = min(k % m_count, m_count - k % m_count)  # to the axis line
            assert table[k] == law(s * math.cos(math.pi * steps / m_count) ** 2).exact
            assert table[k] == pytest.approx(
                law(s * math.cos(math.pi * k / m_count) ** 2).exact, rel=1e-12)
        assert table[0] == table[m_count] == law(s).exact

    @pytest.mark.parametrize("s", [0.0, 0.3, 7.0, 100.0, 1000.0])
    @pytest.mark.parametrize("m_count", [1, 2, 32, 4096])
    def test_phase_table_is_far_half_plane_cdf_mass(self, s, m_count):
        tails = PhaseSampler(s, m_count).tails
        table = offset_error_table("phase", s, m_count, tails)
        lo, width = half_planes(tails, m_count)  # near side: (u - lo) mod 1 <= width
        cos = np.cos(np.pi * np.arange(2 * m_count) / m_count)
        sided = np.abs(cos) > 1e-9  # a point on the axis line has no side
        far_mass = np.where(cos < 0, width, 1.0 - width)
        np.testing.assert_allclose(table[sided], far_mass[sided], rtol=0, atol=1e-13)
        assert table[0] == table[m_count] == pytest.approx(
            canonical_phase_antipodal(s).exact, rel=1e-4, abs=1e-15)

    @pytest.mark.parametrize("s", [0.3, 7.0, 100.0])
    @pytest.mark.parametrize("m_count", [1, 2, 32])
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_nearest_point_snap(self, s, m_count, mapping):
        """Per cell (bit b, point j), the errors of snapping a sampled phase around j
        to the nearest point and reading its bit have the table's law."""
        sampler, const = PhaseSampler(s, m_count), Constellation(m_count, mapping)
        rng = np.random.default_rng([17, m_count])
        j, b = rng.integers(0, 2 * m_count, self.N), rng.integers(0, 2, self.N)
        wrong = nearest_point_bits(sampler, np.random.default_rng(18), j, const) != b
        self._assert_covers(nearest_point_table(sampler.tails, const), b * 2 * m_count + j,
                            wrong)


class TestNearestPointTable:
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("m_count", [1, 2, 8, 32])
    @pytest.mark.parametrize("s", [0.5, 2.0, 7.0, 30.0])
    def test_helstrom_nokey_bounds_the_law(self, s, m_count, mapping):
        """The Helstrom measurement is the best of all, nearest-point snapping included.
        Without DSR each point j is sent with its own bit, j uniform."""
        const = Constellation(m_count, mapping)
        table = nearest_point_table(PhaseSampler(s, m_count).tails, const)
        j = np.arange(2 * m_count)
        law = np.mean(table[const.point_bit(j) * 2 * m_count + j])
        assert eve_nokey_helstrom(s, const) <= law + 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.5, 7.0, 30.0, 1e4])
    def test_m1_is_the_keyed_phase_receiver(self, s):
        """At M = 1 the two points are the keyed pair: she errs as a phase Bob does."""
        tails = PhaseSampler(s, 1).tails
        table = nearest_point_table(tails, Constellation(1))
        far = offset_error_table("phase", s, 1, tails)[0]
        np.testing.assert_allclose(table, [far, 1 - far, 1 - far, far], rtol=0, atol=1e-15)


class TestCellLaw:
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("m_count,d", [(1, 0), (8, 0), (8, 3), (32, 15)])
    def test_is_the_mean_over_every_triple(self, m_count, d, mapping):
        """cell_law @ table is a table's mean over the 2M(2d+1) equally likely
        (bit, basis, dither) triples, listed one by one: over the keyed offsets
        k = (j - m) mod 2M for a 2M-entry table, over (b, j) for a 4M-entry one."""
        const = Constellation(m_count, mapping)
        n = const.num_points
        b, m, dither = (grid.ravel() for grid in np.meshgrid(
            [0, 1], np.arange(m_count), np.arange(-d, d + 1), indexing="ij"))
        j = (encode(b, m, const) + dither) % n
        rng = np.random.default_rng(m_count + d)
        for table, cells in ((rng.random(n), (j - m) % n), (rng.random(2 * n), b * n + j)):
            law = cell_law(const, d, table.size)
            assert law @ table == pytest.approx(np.mean(table[cells]), rel=1e-13)


def mpmath_arc_masses(s, arcs):
    """40-digit mass of the phase density of |sqrt S> on each arc (a pi, b pi), a < b.

    The mass is the double sum (1/2pi) sum_{n,m} c_n c_m int e^{i(n-m)phi} dphi,
    each integral in closed form: (b - a) pi at n = m, and the pair n, m = n + k
    gives 2 (sin k b pi - sin k a pi) / k.  c_n is cut where the Poisson tail is
    below 1e-40.
    """
    with mp.workdps(40):
        n_max = int(s + 20 * math.sqrt(s) + 30)
        c = [mp.exp((n * mp.log(s) - s - mp.loggamma(n + 1)) / 2) for n in range(n_max)]
        lag = [mp.fsum(c[n] * c[n + k] for n in range(n_max - k)) for k in range(n_max)]

        def mass(a, b):
            a, b = a * mp.pi, b * mp.pi
            cross = mp.fsum(lag[k] * (mp.sin(k * b) - mp.sin(k * a)) / k
                            for k in range(1, n_max))
            return ((b - a) * lag[0] + 2 * cross) / (2 * mp.pi)

        return [mass(a, b) for a, b in arcs]


class TestPhaseTables:
    @pytest.mark.parametrize("s", [0.0, 0.5, 7.0, 1e3, 1e4, 1e5])
    def test_phase_grid_rule(self, s):
        for m_count in (1 << e for e in range(17)):
            grid = phase_grid(s, m_count)
            assert grid & (grid - 1) == 0 and grid % (8 * m_count) == 0
            assert grid >= 128 * math.sqrt(s) and grid >= 4096
            if m_count <= 8192:
                assert grid <= 65536
        assert phase_grid(2.6e5, 8192) == 65536

    def test_phase_grid_values(self):
        assert phase_grid(7.0, 32) == 4096
        assert phase_grid(1e4, 4096) == 32768
        assert phase_grid(1e5, 4096) == 65536
        assert phase_grid(1e5, 1 << 14) == 131072
        assert phase_grid(2.7e5, 1) == 131072

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0, 3.0, 7.0, 8.0])
    @pytest.mark.parametrize("m_count", [1, 32, 512])
    def test_axis_entry_is_the_scalar_law(self, s, m_count):
        """Up to S = 1024 and M = 512 the tables and the scalar law read one tail
        vector on the same 4096-point grid, so the axis entry is the law itself."""
        table = offset_error_table("phase", s, m_count, PhaseSampler(s, m_count).tails)
        assert table[0] == canonical_phase_antipodal(s).exact

    @pytest.mark.parametrize("s", [0.0, 7.0, 1e3, 1e4, 1e5])
    def test_scalar_law_is_the_m1_table(self, s):
        """At every S the scalar law is the M = 1 table's entry: one grid, one tail."""
        assert canonical_phase_antipodal(s).exact == offset_error_table(
            "phase", s, 1, PhaseSampler(s, 1).tails)[0]

    @pytest.mark.parametrize("s", [2.0, 7.0])
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    def test_tables_match_mpmath_double_sum(self, s, mapping):
        m_count = 32
        sampler, const = PhaseSampler(s, m_count), Constellation(m_count, mapping)
        # keyed: the far arc of a state turned by pi i/M, i <= M/2
        far = mpmath_arc_masses(s, [((m_count / 2 - i) / m_count, (1.5 * m_count - i) / m_count)
                                    for i in range(m_count // 2 + 1)])
        steps = np.arange(2 * m_count) % m_count
        oracle = np.array([float(x) for x in far])[np.minimum(steps, m_count - steps)]
        np.testing.assert_allclose(offset_error_table("phase", s, m_count, sampler.tails), oracle,
                                   rtol=0, atol=1e-10)
        # nearest-point: the pi/M arcs around the 2M points
        n = const.num_points
        arcs = mpmath_arc_masses(s, [((2 * i - 1) / (2 * m_count), (2 * i + 1) / (2 * m_count))
                                     for i in range(n)])
        bit = const.point_bit(np.arange(n)).tolist()
        q = [float(mp.fsum(arcs[i] * bit[(j + i) % n] for i in range(n))) for j in range(n)]
        np.testing.assert_allclose(nearest_point_table(sampler.tails, const),
                                   q + [1.0 - x for x in q], rtol=0, atol=1e-10)

    @pytest.fixture(scope="class")
    def fine_1e4(self):
        """The phase tails at S = 1e4 on a 2^21-point grid: a reference for the
        tables at large S and M."""
        return phase_tails(1e4, 1 << 21)

    @pytest.mark.parametrize("m_count", [512, 4096])
    def test_deployed_regime_matches_fine_grid(self, fine_1e4, m_count):
        s, const = 1e4, Constellation(m_count)
        tails = PhaseSampler(s, m_count).tails
        fine = fine_1e4[::(1 << 21) // (8 * m_count)]  # T at the same nodes k pi/2M
        np.testing.assert_allclose(offset_error_table("phase", s, m_count, tails),
                                   offset_error_table("phase", s, m_count, fine),
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(nearest_point_table(tails, const),
                                   nearest_point_table(fine, const), rtol=0, atol=1e-6)


def _cfg(**kw):
    base = dict(s=7.0, m_bases=32, mapping="alternating", seed_key="deadbeef",
                bob_receiver="heterodyne", eve_strategy="none",
                trials=100_000, master_seed=1, dsr_d=0)
    base.update(kw)
    return SimConfig(**base)


class TestCountLevelDecisions:
    """The engine's keyed counts, one binomial draw per offset cell, have the law of
    the per-trial reference, which draws one uniform per trial against the table on
    keystream bases.  Each trial errs with the cell-averaged rate p_bar, whatever
    the basis, so both engines' counts are Binomial(N, p_bar), Bob's and Eve's
    correlated through the shared cells."""

    SEEDS, N = 300, 2000
    ALPHA = 2 * stats.norm.sf(5.0)  # the two-sided z=5 level

    def _assert_binomial_counts(self, counts, p_bar):
        mean, var = self.N * p_bar, self.N * p_bar * (1 - p_bar)
        assert abs(np.mean(counts) - mean) < 5 * math.sqrt(var / self.SEEDS)
        dof = self.SEEDS - 1
        chi2 = dof * np.var(counts, ddof=1) / var  # about chi^2 with dof degrees
        assert self.ALPHA / 2 < stats.chi2.cdf(chi2, dof) < 1 - self.ALPHA / 2

    def _assert_uniform_cells(self, hist, d):
        cells = np.flatnonzero(hist)
        assert cells.size == 2 * (2 * d + 1)
        assert stats.chisquare(hist[cells]).pvalue >= self.ALPHA

    def _triple_rates(self, cfg, tables):
        """Bob's and Eve's error probabilities on each of the 2M(2d+1) equally likely
        (bit, basis, dither) triples of a trial."""
        const, n = Constellation(cfg.m_bases, cfg.mapping), 2 * cfg.m_bases
        b, m, dither = (g.ravel() for g in np.meshgrid(
            [0, 1], np.arange(cfg.m_bases), np.arange(-cfg.dsr_d, cfg.dsr_d + 1), indexing="ij"))
        j = (encode(b, m, const) + dither) % n
        eve = EVE_STRATEGIES[cfg.eve_strategy]
        p_eve = tables[None][b * n + j] if eve is None else tables[eve][(j - m) % n]
        return tables["heterodyne"][(j - m) % n], p_eve

    @pytest.mark.parametrize("eve", ["phase-deferred", "nearest-point"])
    @pytest.mark.parametrize("mapping", ["alternating", "plain"])
    @pytest.mark.parametrize("d", [0, 2])
    def test_counts_match_per_trial_reference(self, eve, mapping, d):
        cfg = _cfg(s=1.0, m_bases=8, mapping=mapping, eve_strategy=eve, dsr_d=d, trials=self.N)
        sampler = PhaseSampler(cfg.s, cfg.m_bases)
        const = Constellation(cfg.m_bases, cfg.mapping)
        tables = {kind: offset_error_table(kind, cfg.s, cfg.m_bases, sampler.tails)
                  for kind in ("heterodyne", "phase")}
        tables[None] = nearest_point_table(sampler.tails, const)
        gen = KeystreamGen.from_hex(cfg.seed_key)
        nearest = eve == "nearest-point"
        law = cell_law(const, d, 2 * cfg.m_bases)
        count_level, per_trial = [], []
        ref_hist = np.zeros(2 * cfg.m_bases, dtype=np.int64)
        for seed in range(self.SEEDS):
            run = replace(cfg, master_seed=seed)
            bases = keyed_bases(gen, cfg.m_bases, self.N) if nearest else None
            count_level.append(_run_batch(run, const, tables, law, 0, self.N, bases))
            # batch 1: bits and dithers independent of the count-level batch's
            bob, eve_err, k = per_trial_errors(run, tables, 1,
                                               keyed_bases(gen, cfg.m_bases, self.N), sampler)
            per_trial.append((bob, eve_err))
            ref_hist += np.bincount(k, minlength=2 * cfg.m_bases)
        self._assert_uniform_cells(ref_hist, d)
        # the law the count-level batches draw from: the reference's cells, each exactly
        # 1 / (2(2d + 1))
        cells = np.flatnonzero(law)
        assert np.array_equal(cells, np.flatnonzero(ref_hist))
        assert np.array_equal(law[cells], np.full(cells.size, 1.0 / cells.size))

        p_bob, p_eve = self._triple_rates(cfg, tables)
        cov = self.N * (np.mean(p_bob * p_eve) - np.mean(p_bob) * np.mean(p_eve))
        count_level, per_trial = np.array(count_level), np.array(per_trial)
        for counts in (count_level, per_trial):
            self._assert_binomial_counts(counts[:, 0], np.mean(p_bob))
            self._assert_binomial_counts(counts[:, 1], np.mean(p_eve))
            sd = np.std(counts, axis=0, ddof=1)
            assert abs(np.cov(counts.T)[0, 1] - cov) < 5 * sd[0] * sd[1] / math.sqrt(self.SEEDS)
        for who in (0, 1):  # and the two engines' counts against each other
            a, b = count_level[:, who], per_trial[:, who]
            assert stats.ttest_ind(a, b, equal_var=False).pvalue >= self.ALPHA
            assert stats.levene(a, b).pvalue >= self.ALPHA

    @pytest.mark.parametrize("d", [0, 5])
    def test_occupied_cells_give_the_all_cells_counts(self, d, monkeypatch):
        """At M = 2^15 a batch draws its binomials on the occupied offset cells only;
        its counts, and the stream after each draw, are those of a draw over all 2M.
        The batch's generator records the histogram it draws and its state after it."""
        cfg = _cfg(s=3.0, m_bases=1 << 15, eve_strategy="phase-deferred", dsr_d=d)
        tails = PhaseSampler(cfg.s, cfg.m_bases).tails
        tables = {kind: offset_error_table(kind, cfg.s, cfg.m_bases, tails)
                  for kind in ("heterodyne", "phase")}
        const = Constellation(cfg.m_bases, cfg.mapping)
        law = cell_law(const, d, 2 * cfg.m_bases)
        drawn = []

        class Recording(np.random.Generator):
            def multinomial(self, n, pvals, size=None):
                counts = super().multinomial(n, pvals, size)
                drawn.append((counts, self.bit_generator.state))
                return counts

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Recording(np.random.PCG64(seed)))
        for batch in range(3):
            counts = _run_batch(cfg, const, tables, law, batch, BATCH_SIZE, None)
            [(occupied_counts, state)] = drawn  # one multinomial a batch
            drawn.clear()
            hist = np.zeros(2 * cfg.m_bases, dtype=np.int64)
            hist[np.flatnonzero(law)] = occupied_counts
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            all_cells = tuple(int(rng.binomial(hist, tables[kind]).sum())
                              for kind in ("heterodyne", "phase"))
            assert min(all_cells) > 0
            assert counts == all_cells

            occupied = np.flatnonzero(hist)
            rng_all, rng_occupied = np.random.default_rng(batch), np.random.default_rng(batch)
            p = tables["heterodyne"]
            assert rng_all.binomial(hist, p).sum() == \
                rng_occupied.binomial(hist[occupied], p[occupied]).sum()
            assert rng_all.random() == rng_occupied.random()

    def test_seed_key_moves_only_nearest_point_counts(self):
        def report(eve, key, d):
            rep = asdict(run_simulation(_cfg(s=1.0, m_bases=8, eve_strategy=eve,
                                             seed_key=key, dsr_d=d, trials=70_000)))
            assert rep["config"].pop("seed_key") == key  # validated and echoed
            return rep

        assert report("phase-deferred", "deadbeef", 3) == report("phase-deferred", "c0ffee", 3)
        assert report("nearest-point", "deadbeef", 0)["eve"] != \
            report("nearest-point", "c0ffee", 0)["eve"]
        for key in ("0", "zz"):  # a keyed-only run draws no keystream but checks the key
            with pytest.raises(ValueError):
                run_simulation(_cfg(seed_key=key, eve_strategy="phase-deferred"))


class TestRunSimulation:
    def test_heterodyne_bob_within_ci(self):
        # frozen draw; a 99% interval misses for ~1 in 100 seeds
        rep = run_simulation(_cfg(trials=10 ** 6, master_seed=2))
        assert rep.analytic_bob == heterodyne_antipodal(7.0).exact
        assert rep.bob.ci_low <= rep.analytic_bob <= rep.bob.ci_high

    def test_optimal_bob_nearly_error_free(self):
        rep = run_simulation(_cfg(bob_receiver="optimal", trials=10 ** 6))
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
        rep = run_simulation(_cfg(s=s, bob_receiver=kind, trials=trials))
        assert rep.bob.ci_low <= law(s).exact <= rep.bob.ci_high

    @pytest.mark.parametrize("s,trials", [(1.0, 10 ** 5), (2.0, 10 ** 5), (4.0, 10 ** 6)])
    def test_eve_worse_than_keyed_bob(self, s, trials):
        rep = run_simulation(_cfg(s=s, bob_receiver="optimal",
                                  eve_strategy="phase-deferred", trials=trials))
        assert rep.eve.p_hat > rep.analytic_bob

    def test_nearest_point_eve_confused_at_m64(self):
        rep = run_simulation(_cfg(m_bases=64, bob_receiver="optimal",
                                  eve_strategy="nearest-point", trials=200_000))
        assert rep.eve.p_hat >= 0.25
        low, high = wilson_interval(rep.eve.errors, rep.eve.trials, 5.0)
        assert low <= rep.analytic_eve <= high  # her law, from the cell law of (b, j)

    @pytest.mark.parametrize("s", [1490.0, 2000.0])
    def test_phase_receivers_where_e_minus_s_over_2_underflows(self, s):
        # phase Bob's law (~e^{-S}) reads as the density's ~2e-32 FFT rounding floor;
        # nearest-point Eve at M=1024 is about half-confused (the phase noise
        # 1/(2 sqrt S) spans about 4 point spacings pi/M).  Her exact error, the
        # density mass on the arcs of points with the other bit averaged over the
        # 2M sent points, is 0.499953 at S=1490 and 0.499946 at S=2000, so a bound
        # with 1/2 on one side holds only by draw order; 0.01 is about 6 sigma here.
        rep = run_simulation(_cfg(s=s, m_bases=1024, bob_receiver="phase",
                                  eve_strategy="nearest-point", trials=100_000))
        assert rep.bob.errors == 0 and rep.analytic_bob < 1e-24
        assert abs(rep.eve.p_hat - 0.5) < 0.01
        assert rep.analytic_eve == pytest.approx({1490.0: 0.499953, 2000.0: 0.499946}[s],
                                                 abs=5e-7)

    def test_different_master_seed_changes_outcomes(self):
        a = run_simulation(_cfg(s=1.0, master_seed=1))
        b = run_simulation(_cfg(s=1.0, master_seed=2))
        assert a.bob.errors != b.bob.errors

    def test_dsr_with_phase_bob_stays_decodable(self):
        rep = run_simulation(_cfg(s=4.0, m_bases=8, dsr_d=3,
                                  bob_receiver="phase", trials=200_000))
        # dithered points stay inside Bob's half-plane, so BER stays small
        assert rep.bob.p_hat < 0.05

    def test_rejects_optimal_bob_with_dsr(self):
        with pytest.raises(ValueError, match="DSR"):
            _cfg(bob_receiver="optimal", dsr_d=1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            _cfg(trials=0)
        with pytest.raises(ValueError):
            _cfg(bob_receiver="lidar")
        with pytest.raises(ValueError):
            _cfg(eve_strategy="guessing")
        with pytest.raises(ValueError):
            _cfg(m_bases=6)
        with pytest.raises(ValueError):
            _cfg(dsr_d=16)
        with pytest.raises(ValueError):
            _cfg(dsr_d=-1)
        with pytest.raises(ValueError):  # a config is checked whenever it is built
            replace(_cfg(), trials=0)
