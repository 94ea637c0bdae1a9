import math
from dataclasses import replace

import numpy as np
import pytest

from fusiongain import rng
from fusiongain.core import normal_cdf, normal_quantile
from fusiongain.errors import FusionGainError, OutOfRange
from fusiongain.linreg_utility import assess_linreg
from fusiongain.simulation import (
    DgpConfig,
    MonteCarloCell,
    SimulationReport,
    cell_seed,
    generate_dgp,
    run_monte_carlo,
    true_theta,
    true_theta_linreg,
    true_theta_mean,
    true_theta_quantile,
)
from reference_impl import ref_fisher_yates


class TestDgp:
    def test_no_signal_independence(self):
        data = generate_dgp(DgpConfig(b=0.0, n=10_000, seed=1))
        assert abs(np.corrcoef(data.y, data.x[:, 0])[0, 1]) <= 0.05

    def test_covariate_correlation(self):
        data = generate_dgp(DgpConfig(b=0.5, n=10_000, seed=2))
        assert np.corrcoef(data.x[:, 0], data.x[:, 1])[0, 1] == pytest.approx(
            0.2, abs=0.03
        )

    def test_response_variance_b1(self):
        data = generate_dgp(DgpConfig(b=1.0, n=10_000, seed=3))
        assert np.var(data.y) == pytest.approx(3.4, abs=0.15)

    def test_deterministic(self):
        a = generate_dgp(DgpConfig(b=0.5, n=100, seed=7))
        b = generate_dgp(DgpConfig(b=0.5, n=100, seed=7))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)

    def test_marginals_standard_normal(self):
        data = generate_dgp(DgpConfig(b=0.0, n=20_000, seed=4))
        for col in (data.x[:, 0], data.x[:, 1], data.y):
            assert np.mean(col) == pytest.approx(0.0, abs=0.03)
            assert np.std(col) == pytest.approx(1.0, abs=0.03)


class TestTruthValues:
    def test_mean_closed_form(self):
        assert true_theta_mean(0.0, 0.2, 0.5) == 1.0
        assert true_theta_mean(0.5, 0.2, 0.5) == pytest.approx(0.8125, abs=1e-15)
        assert true_theta_mean(1.0, 0.2, 0.5) == pytest.approx(0.5 / 3.4 + 0.5, abs=1e-15)

    def test_linreg_closed_form(self):
        assert true_theta_linreg(0.0, 0.2, 0.5) == pytest.approx(0.76, abs=1e-15)
        assert true_theta_linreg(0.5, 0.2, 0.5) == pytest.approx(
            1.0 - 0.48 / 2.48, abs=1e-12
        )
        assert true_theta_linreg(1.0, 0.2, 0.5) == pytest.approx(
            1.0 - 0.48 / 3.92, abs=1e-12
        )

    def test_quantile_no_signal(self):
        assert true_theta_quantile(0.0, 0.2, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert true_theta_quantile(0.0, 0.2, 0.5, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_quadrature_vs_monte_carlo(self):
        # 1e7-draw Monte Carlo of the defining expectation, 3-decimal agreement
        gen = np.random.default_rng(12345)
        b, rho, nu, tau = 1.0, 0.2, 0.5, 0.5
        signal = b * math.sqrt(2.0 * (1.0 + rho)) * gen.standard_normal(10_000_000)
        total_sd = math.sqrt(2.0 * b * b * (1.0 + rho) + 1.0)
        inner = np.asarray(normal_cdf(total_sd * normal_quantile(tau) - signal)) ** 2
        mc = (1.0 - nu) * (tau - float(np.mean(inner))) / (tau * (1.0 - tau)) + nu
        assert true_theta_quantile(b, rho, nu, tau) == pytest.approx(mc, abs=5e-4)

    def test_quantile_symmetry_tau_mirror(self):
        for b in (0.5, 1.0):
            low = true_theta_quantile(b, 0.2, 0.5, 0.25)
            high = true_theta_quantile(b, 0.2, 0.5, 0.75)
            assert low == pytest.approx(high, abs=1e-9)

    def test_all_truths_in_unit_interval(self):
        for b in (0.0, 0.25, 0.5, 1.0, 2.0):
            for nu in (0.0, 0.5, 0.9):
                assert 0.0 < true_theta_mean(b, 0.2, nu) <= 1.0
                assert 0.0 < true_theta_linreg(b, 0.2, nu) <= 1.0
                assert 0.0 < true_theta_quantile(b, 0.2, nu, 0.25) <= 1.0

    def test_monotone_in_signal(self):
        # mean target: stronger signal makes covariate data more valuable, the
        # ratio falls toward nu; regression target: stronger signal inflates
        # the S-moment in the denominator, the ratio rises toward 1 (matches
        # the closed forms and the worked values 0.76 / 0.8065 / 0.8776)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
        means = [true_theta_mean(b, 0.2, 0.5) for b in grid]
        linregs = [true_theta_linreg(b, 0.2, 0.5) for b in grid]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert all(a < b for a, b in zip(linregs, linregs[1:]))


class TestMonteCarlo:
    def test_single_replication_edge(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=200))
        result = run_monte_carlo(cell, reps=1, seed=5)
        assert result.sdae == 0.0
        assert result.cr in (0.0, 1.0)
        assert result.reps == 1

    def test_deterministic_rows(self):
        cell = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=0.5, n=100))
        a = run_monte_carlo(cell, reps=10, seed=9)
        b = run_monte_carlo(cell, reps=10, seed=9)
        assert a == b

    def test_workers_do_not_change_results(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=1.0, n=300))
        serial = run_monte_carlo(cell, reps=16, seed=11, workers=1)
        parallel = run_monte_carlo(cell, reps=16, seed=11, workers=2)
        assert serial == parallel

    def test_pool_size_capped_by_reps_and_cores(self, monkeypatch):
        # a fork pool starts all its workers at the first submit, so an
        # oversized --workers must never reach ProcessPoolExecutor
        import fusiongain.simulation as simulation

        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=1.0, n=100))
        for cores, reps in ((64, 2), (3, 4), (None, 4)):
            serial = run_monte_carlo(cell, reps=reps, seed=11)
            monkeypatch.setattr(simulation.os, "cpu_count", lambda: cores)
            assert run_monte_carlo(cell, reps=reps, seed=11, workers=5000) == serial
        assert opened == [2, 3]

    def test_coverage_is_exact_mean_of_indicators(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=200))
        reps = 25
        result = run_monte_carlo(cell, reps=reps, seed=13)
        theta0 = true_theta(cell)
        hits = 0
        for rep in range(reps):
            gen = rng.substream(rng.mix64(13, rep), rng.DOMAIN_DGP)
            data = generate_dgp(cell.dgp, stream=gen)
            assess_seed = int(gen.integers(0, 1 << 63))
            est = assess_linreg(data, 0, cell.dgp.nu, cell.alpha)
            hits += est.ci.contains(theta0)
        assert result.cr == hits / reps

    def test_reps_must_be_positive(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=100))
        with pytest.raises(OutOfRange):
            run_monte_carlo(cell, reps=0, seed=1)

    def test_failures_counted_and_flagged(self, monkeypatch):
        import fusiongain.simulation as sim

        original = sim.METHODS["linreg"]

        def flaky(data, *, seed, **settings):
            if seed % 3 == 0:
                raise FusionGainError("synthetic failure")
            return original.run(data, seed=seed, **settings)

        monkeypatch.setitem(sim.METHODS, "linreg", replace(original, run=flaky))
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=150))
        result = sim.run_monte_carlo(cell, reps=30, seed=17)
        assert result.n_failed > 0
        assert result.flagged
        assert result.reps == 30

    def test_all_failures_raise(self, monkeypatch):
        import fusiongain.simulation as sim

        def always_fail(data, **settings):
            raise FusionGainError("nope")

        monkeypatch.setitem(sim.METHODS, "linreg", replace(sim.METHODS["linreg"], run=always_fail))
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=150))
        with pytest.raises(FusionGainError):
            sim.run_monte_carlo(cell, reps=5, seed=19)


class TestReportFormats:
    def _rows(self):
        cell = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=0.5, n=100))
        return (run_monte_carlo(cell, reps=3, seed=21),)

    def test_csv_columns_and_roundtrip(self):
        report = SimulationReport(rows=self._rows())
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "method,b,n,extra,reps,seed,MAE,SDAE,AL,CR"
        fields = lines[1].split(",")
        assert fields[0] == "mean-linear"
        assert float(fields[1]) == 0.5
        assert int(fields[2]) == 100
        # repr-format floats parse back exactly
        row = self._rows()[0]
        assert float(fields[6]) == row.mae
        assert float(fields[9]) == row.cr

    def test_text_table_times_100(self):
        row = self._rows()[0]
        report = SimulationReport(rows=(row,))
        rendered = report.to_text()
        assert f"{100 * row.mae:.4f}" in rendered
        assert f"{100 * row.al:.4f}" in rendered

    def test_cell_seed_distinguishes_cells(self):
        c1 = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=0.5, n=100))
        c2 = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=1.0, n=100))
        c3 = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=100))
        seeds = {cell_seed(42, c) for c in (c1, c2, c3)}
        assert len(seeds) == 3
        assert cell_seed(42, c1) == cell_seed(42, c1)


class TestRngContract:
    def test_philox_substream_pinned_vectors(self):
        # frozen test vectors for the documented generator contract
        gen = rng.substream(0, 0)
        first = rng.uniforms_open(gen, 3)
        expected = [0.011546754286331617, 0.24154919656271817, 0.11142585551493828]
        assert first == pytest.approx(expected, abs=0)
        gen2 = rng.substream(42, 7)
        first2 = rng.uniforms_open(gen2, 3)
        expected2 = [0.6494200796137362, 0.8848813535936773, 0.5537339411764373]
        assert first2 == pytest.approx(expected2, abs=0)

    def test_uniforms_strictly_inside_unit_interval(self):
        gen = rng.substream(5, 5)
        u = rng.uniforms_open(gen, 10_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_fisher_yates_is_permutation(self):
        gen = rng.substream(1, 2)
        perm = rng.fisher_yates(gen, 257)
        assert np.array_equal(np.sort(perm), np.arange(257))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 999, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_fisher_yates_matches_reference(self, n, seed):
        perm = rng.fisher_yates(rng.substream(seed, rng.DOMAIN_SPLIT), n)
        expected = ref_fisher_yates(rng.substream(seed, rng.DOMAIN_SPLIT), n)
        assert perm.dtype == expected.dtype
        assert perm.tolist() == expected.tolist()
