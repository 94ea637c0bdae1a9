import inspect
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

import fusiongain
from fusiongain import rng
from fusiongain.core import normal_quantile
from fusiongain.errors import FusionGainError, OutOfRange
from fusiongain.linreg_utility import assess_linreg
from fusiongain.mean_utility import assess_mean
from fusiongain.simulation import (
    METHODS,
    DgpConfig,
    MonteCarloCell,
    SimulationReport,
    cell_seed,
    generate_dgp,
    _usable_cpus,
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
        # exactly 1, or a no-signal cell's intervals (clamped to [0, 1]) never cover it
        for tau in np.arange(1, 1000) / 1000:
            for nu in (0.0, 0.3, 0.5, 0.9):
                assert true_theta_quantile(0.0, 0.2, nu, tau) == 1.0, (tau, nu)

    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.2, 0.9])
    def test_quantile_matches_adaptive_quadrature(self, b, rho):
        # tau - E[Phi(c - sT)^2] = E[Phi(c - sT) Phi(sT - c)], integrated on
        # either side of t = c / s, where the Phi product peaks
        s = b * math.sqrt(2.0 * (1.0 + rho))
        for tau in (0.01, 0.25, 0.5, 0.75, 0.99):
            c = math.sqrt(1.0 + s * s) * normal_quantile(tau)
            split = c / s if s > 0.0 else 0.0

            def integrand(t):
                x = c - s * t
                return ndtr(x) * ndtr(-x) * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

            gap = sum(integrate.quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
                      for lo, hi in ((-np.inf, split), (split, np.inf)))
            core = gap / (tau * (1.0 - tau))
            for nu in (0.0, 0.5):
                assert true_theta_quantile(b, rho, nu, tau) == pytest.approx(
                    nu + (1.0 - nu) * core, abs=1e-12
                ), (b, rho, tau, nu)

    @pytest.mark.parametrize("b", [1e-10, 1e-8])
    def test_quantile_tiny_signal_at_most_one(self, b):
        for tau in np.arange(1, 1000) / 1000:
            for nu in (0.0, 0.5):
                assert true_theta_quantile(b, 0.2, nu, tau) <= 1.0, (tau, nu)

    def test_quantile_closed_form_vs_monte_carlo(self):
        # 1e7-draw Monte Carlo of the defining expectation, 3-decimal agreement
        gen = np.random.default_rng(12345)
        b, rho, nu, tau = 1.0, 0.2, 0.5, 0.5
        signal = b * math.sqrt(2.0 * (1.0 + rho)) * gen.standard_normal(10_000_000)
        total_sd = math.sqrt(2.0 * b * b * (1.0 + rho) + 1.0)
        inner = np.asarray(ndtr(total_sd * normal_quantile(tau) - signal)) ** 2
        mc = (1.0 - nu) * (tau - float(np.mean(inner))) / (tau * (1.0 - tau)) + nu
        assert true_theta_quantile(b, rho, nu, tau) == pytest.approx(mc, abs=5e-4)

    def test_quantile_symmetry_tau_mirror(self):
        for b in (0.5, 1.0):
            low = true_theta_quantile(b, 0.2, 0.5, 0.25)
            high = true_theta_quantile(b, 0.2, 0.5, 0.75)
            assert low == pytest.approx(high, abs=1e-9)

    def test_all_truths_in_unit_interval(self):
        for b in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            for nu in (0.0, 0.5, 0.9):
                assert 0.0 < true_theta_mean(b, 0.2, nu) <= 1.0
                assert 0.0 < true_theta_linreg(b, 0.2, nu) <= 1.0
                for tau in (0.25, 0.99):
                    assert 0.0 < true_theta_quantile(b, 0.2, nu, tau) <= 1.0

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


@pytest.fixture
def children(monkeypatch):
    """List every child process started while the test runs."""
    started = []
    start = multiprocessing.Process.start

    def recording_start(self):
        start(self)
        started.append(self)

    monkeypatch.setattr(multiprocessing.Process, "start", recording_start)
    return started


# The failure-path tests patch a method in this process; only a forked child
# sees the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the child must inherit this process's patched METHODS",
)


def _usable(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs, whatever the host has."""
    import fusiongain.simulation as simulation

    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class TestMethods:
    @pytest.mark.parametrize("name", list(METHODS))
    def test_settings_are_keyword_parameters_of_assess(self, name):
        params = inspect.signature(METHODS[name].assess).parameters
        for setting in ("nu", "alpha", *METHODS[name].settings):
            assert params[setting].kind is inspect.Parameter.KEYWORD_ONLY, setting

    def test_every_method_flag_feeds_a_setting(self):
        from fusiongain.cli import _FLAG_SETTINGS

        read = {s for method in METHODS.values() for s in method.settings}
        assert set(_FLAG_SETTINGS.values()) <= read

    def test_unread_setting_is_ignored(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=7))
        mean_linear = METHODS["mean-linear"]
        base = mean_linear.run(data, nu=0.5, alpha=0.95, seed=3)
        assert mean_linear.run(data, nu=0.5, alpha=0.95, seed=3, regressor="k-nn",
                               tau=0.25, s_index=1) == base
        assert base == assess_mean(data, nu=0.5, seed=3)
        linreg = METHODS["linreg"].run(data, nu=0.5, alpha=0.95, seed=3, tau=0.25,
                                       regressor="k-nn")
        assert linreg == assess_linreg(data, nu=0.5)

    def test_none_setting_takes_the_default(self):
        data = generate_dgp(DgpConfig(b=0.5, n=200, seed=8))
        quantile = METHODS["quantile"]
        explicit = quantile.run(data, nu=0.5, alpha=0.95, seed=4, tau=0.5,
                                regressor="local-linear")
        assert quantile.run(data, nu=0.5, alpha=0.95, seed=4, tau=None,
                            regressor=None) == explicit
        conditional = METHODS["mean-conditional"]
        explicit = conditional.run(data, nu=0.5, alpha=0.95, seed=0, regressor="local-linear")
        assert conditional.run(data, nu=0.5, alpha=0.95, seed=None, regressor=None) == explicit
        linreg = METHODS["linreg"]
        explicit = linreg.run(data, nu=0.5, alpha=0.95, s_index=0)
        assert linreg.run(data, nu=0.5, alpha=0.95, s_index=None) == explicit


class TestMonteCarlo:
    def test_single_replication_edge(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=200))
        [result] = run_monte_carlo([(cell, 5)], reps=1)
        assert result.sdae == 0.0
        assert result.cr in (0.0, 1.0)
        assert result.reps == 1

    def test_deterministic_rows(self):
        cell = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=0.5, n=100))
        a = run_monte_carlo([(cell, 9)], reps=10)
        b = run_monte_carlo([(cell, 9)], reps=10)
        assert a == b

    def test_workers_do_not_change_results(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=1.0, n=300))
        serial = run_monte_carlo([(cell, 11)], reps=16, workers=1)
        parallel = run_monte_carlo([(cell, 11)], reps=16, workers=2)
        assert serial == parallel

    def test_scipy_imported_before_the_pool_starts(self):
        # mean-linear truth values and scoring use no scipy, so after a pooled
        # run a fresh parent holds scipy.special only if run_monte_carlo
        # imported it before forking: the workers' own imports never reach it
        if _usable_cpus() < 2:
            pytest.skip("a process pool needs two usable CPUs")
        script = (
            "import sys\n"
            "from fusiongain.simulation import DgpConfig, MonteCarloCell, run_monte_carlo\n"
            "assert 'scipy.special' not in sys.modules\n"
            "table = [(MonteCarloCell(method='mean-linear', dgp=DgpConfig(b=b, n=100)), 5)\n"
            "         for b in (0.0, 0.5)]\n"
            "run_monte_carlo(table, reps=4, workers=2)\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fusiongain.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    def test_pool_size_capped_by_reps_and_cores(self, monkeypatch, children):
        # every share beyond the first starts a process at once, so an
        # oversized --workers must never reach the fan-out: the cap is the
        # table's replications and the CPUs this process may run on
        import fusiongain.simulation as simulation

        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=1.0, n=100))
        one = [(cell, 11)]
        two = [(cell, 11), (replace(cell, dgp=replace(cell.dgp, b=0.5)), 12)]
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 64)
        started = []
        # (usable CPUs, table, reps); one usable CPU of 64 is `taskset -c 0`
        for cpus, table, reps in ((64, one, 2), (3, one, 4), (64, two, 1), (1, one, 4)):
            serial = run_monte_carlo(table, reps)
            _usable(monkeypatch, cpus)
            before = len(children)
            assert run_monte_carlo(table, reps, workers=5000) == serial
            started.append(len(children) - before)
        # without an affinity mask the CPU count caps the fan-out
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
        serial = run_monte_carlo(one, 4)
        for cores in (3, None):
            monkeypatch.setattr(simulation.os, "cpu_count", lambda: cores)
            before = len(children)
            assert run_monte_carlo(one, 4, workers=5000) == serial
            started.append(len(children) - before)
        # w - 1 children for w shares of [2, 3, 2, 1, 3, 1]; the serial runs start none
        assert started == [1, 2, 1, 0, 2, 0]
        assert all(child.exitcode == 0 for child in children)

    def test_coverage_is_exact_mean_of_indicators(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=200))
        reps = 25
        [result] = run_monte_carlo([(cell, 13)], reps=reps)
        theta0 = true_theta(cell)
        hits = 0
        for rep in range(reps):
            gen = rng.substream(rng.mix64(13, rep), rng.DOMAIN_DGP)
            data = generate_dgp(cell.dgp, stream=gen)
            assess_seed = int(gen.integers(0, 1 << 63))
            est = assess_linreg(data, nu=cell.dgp.nu, alpha=cell.alpha)
            hits += est.ci.contains(theta0)
        assert result.cr == hits / reps

    def test_reps_must_be_positive(self):
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=100))
        with pytest.raises(OutOfRange):
            run_monte_carlo([(cell, 1)], reps=0)

    def test_failures_counted_and_flagged(self, monkeypatch):
        import fusiongain.simulation as sim

        original = sim.METHODS["linreg"]

        def flaky(data, *, seed, **settings):
            if seed % 3 == 0:
                raise FusionGainError("synthetic failure")
            return original.assess(data, **settings)

        # linreg reads no seed: list it, so that run hands the stub one
        flaky_linreg = replace(original, assess=flaky, settings=(*original.settings, "seed"))
        monkeypatch.setitem(sim.METHODS, "linreg", flaky_linreg)
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=150))
        [result] = sim.run_monte_carlo([(cell, 17)], reps=30)
        assert result.n_failed > 0
        assert result.flagged
        assert result.reps == 30

    def test_all_failures_raise(self, monkeypatch):
        import fusiongain.simulation as sim

        def always_fail(data, **settings):
            raise FusionGainError("nope")

        monkeypatch.setitem(sim.METHODS, "linreg",
                            replace(sim.METHODS["linreg"], assess=always_fail))
        cell = MonteCarloCell(method="linreg", dgp=DgpConfig(b=0.5, n=150))
        with pytest.raises(FusionGainError):
            sim.run_monte_carlo([(cell, 19)], reps=5)


def _fail_at(monkeypatch, fails):
    """Make linreg fail, with the signal b in its message, in replication r
    of a cell at b wherever ``fails(b, r)``; return the b of every dataset
    drawn.  Replications must run in this process, in table order."""
    import fusiongain.simulation as sim

    original = sim.METHODS["linreg"]
    drawn = []

    def recording_dgp(cfg, stream=None):
        drawn.append(cfg.b)
        return generate_dgp(cfg, stream)

    def failing(data, **settings):
        b = drawn[-1]
        if fails(b, drawn.count(b) - 1):
            raise FusionGainError(f"synthetic failure at b={b}")
        return original.assess(data, **settings)

    monkeypatch.setattr(sim, "generate_dgp", recording_dgp)
    monkeypatch.setitem(sim.METHODS, "linreg", replace(original, assess=failing))
    return drawn


def _linreg_table(signals, n=150):
    return [(MonteCarloCell(method="linreg", dgp=DgpConfig(b=b, n=n)), 20 + i)
            for i, b in enumerate(signals)]


class TestTable:
    def test_one_pool_per_simulate(self, tmp_path, monkeypatch, children):
        from fusiongain.cli import main

        _usable(monkeypatch, 2)
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            code = main(["simulate", "--method", "linreg", "--b", "0,0.5,1", "--n", "100",
                         "--reps", "4", "--seed", "1", "--workers", str(workers),
                         "--out", str(out)])
            assert code == 0
            outputs.append((out / "simulation.csv").read_bytes())
            # one worker runs every task here; two start one child for the
            # whole 3-cell table, which runs every other of its 12 tasks
            assert len(children) == workers - 1
        assert outputs[0] == outputs[1]
        assert children[0].exitcode == 0

    def test_mixed_table_bytes_independent_of_workers(self, tmp_path, monkeypatch):
        from fusiongain.cli import main

        # a real pool of up to 3 processes, however many CPUs the host has
        _usable(monkeypatch, 3)
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            code = main(["simulate", "--method", "mean-linear", "--b", "0,0.5",
                         "--n", "100,300", "--reps", "5", "--seed", "7",
                         "--workers", str(workers), "--out", str(out)])
            assert code == 0
            outputs.append(((out / "simulation.csv").read_bytes(),
                            (out / "simulation.txt").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0].count(b"\n") == 1 + 4

    def test_table_rows_match_one_cell_runs(self):
        table = _linreg_table([0.0, 0.5, 1.0])
        assert run_monte_carlo(table, reps=4, workers=2) == [
            run_monte_carlo([pair], reps=4)[0] for pair in table
        ]

    def test_failures_charged_to_their_cell(self, monkeypatch):
        table = _linreg_table([0.0, 0.5, 1.0])
        clean = run_monte_carlo(table, reps=6)
        drawn = _fail_at(monkeypatch, lambda b, rep: b == 0.5 and rep % 2 == 0)
        rows = run_monte_carlo(table, reps=6)
        assert [row.n_failed for row in rows] == [0, 3, 0]
        assert (rows[0], rows[2]) == (clean[0], clean[2])
        assert [row.flagged for row in rows] == [False, True, False]
        assert drawn == [0.0] * 6 + [0.5] * 6 + [1.0] * 6

    def test_all_failed_cell_raises_after_the_whole_table(self, monkeypatch):
        drawn = _fail_at(monkeypatch, lambda b, rep: b in (0.5, 1.0))
        table = _linreg_table([0.0, 0.5, 1.0, 1.5])
        with pytest.raises(FusionGainError) as err:
            run_monte_carlo(table, reps=3)
        # the parent's message, for the first all-failed cell in table order
        assert str(err.value) == ("all 3 replications failed; first error: "
                                  "FusionGainError: synthetic failure at b=0.5")
        assert len(drawn) == 4 * 3


def _linreg_in(monkeypatch, replace_assess):
    """Make linreg run ``replace_assess(original assess, data, **settings)``."""
    import fusiongain.simulation as sim

    original = sim.METHODS["linreg"]
    monkeypatch.setitem(sim.METHODS, "linreg", replace(
        original, assess=lambda data, **settings: replace_assess(original.assess, data,
                                                                 **settings)))


class TestChildren:
    """The child processes of run_monte_carlo: none outlives the call."""

    def test_no_child_left_running(self, monkeypatch, children):
        _usable(monkeypatch, 2)
        table = _linreg_table([0.0, 0.5])
        assert run_monte_carlo(table, reps=4, workers=2) == run_monte_carlo(table, reps=4)
        assert len(children) == 1
        # joined, so already reaped: active_children() alone would reap it here
        with pytest.raises(ChildProcessError):
            os.waitpid(children[0].pid, os.WNOHANG)
        assert multiprocessing.active_children() == []
        assert children[0].exitcode == 0

    @needs_fork
    def test_child_exception_keeps_its_type(self, monkeypatch, children):
        parent = os.getpid()

        def child_fails(assess, data, **settings):
            if os.getpid() != parent:
                raise KeyError("raised in a child")
            return assess(data, **settings)

        _linreg_in(monkeypatch, child_fails)
        _usable(monkeypatch, 2)
        with pytest.raises(KeyError, match="raised in a child") as err:
            run_monte_carlo(_linreg_table([0.0, 0.5]), reps=4, workers=2)
        # the child's traceback rides along as the cause
        assert "child_fails" in str(err.value.__cause__)
        assert len(children) == 1
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_own_share_failure_terminates_children(self, monkeypatch, children):
        parent = os.getpid()

        def parent_fails(assess, data, **settings):
            if os.getpid() == parent:
                raise ValueError("raised in the calling process")
            time.sleep(60)  # the test fails on time unless the child is terminated
            return assess(data, **settings)

        _linreg_in(monkeypatch, parent_fails)
        _usable(monkeypatch, 3)
        began = time.monotonic()
        with pytest.raises(ValueError, match="calling process"):
            run_monte_carlo(_linreg_table([0.0, 0.5]), reps=3, workers=3)
        assert time.monotonic() - began < 30
        assert len(children) == 2
        assert [child.exitcode for child in children] == [-signal.SIGTERM] * 2
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_child_that_dies_silently(self, monkeypatch, children):
        parent = os.getpid()

        def child_exits(assess, data, **settings):
            if os.getpid() != parent:
                os._exit(3)
            return assess(data, **settings)

        _linreg_in(monkeypatch, child_exits)
        _usable(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            run_monte_carlo(_linreg_table([0.0]), reps=2, workers=2)
        assert multiprocessing.active_children() == []


class TestReportFormats:
    def _rows(self):
        cell = MonteCarloCell(method="mean-linear", dgp=DgpConfig(b=0.5, n=100))
        return tuple(run_monte_carlo([(cell, 21)], reps=3))

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


# One failing call per input guard of this module.
GUARD_CASES = {
    "dgp-rho": (lambda: DgpConfig(b=0.5, rho=1.0), OutOfRange),
    "dgp-n": (lambda: DgpConfig(b=0.5, n=0), OutOfRange),
    "truth-mean-rho": (lambda: true_theta_mean(0.5, -1.0, 0.5), OutOfRange),
    "truth-linreg-rho": (lambda: true_theta_linreg(0.5, 1.0, 0.5), OutOfRange),
    "truth-quantile-rho": (lambda: true_theta_quantile(0.5, 1.0, 0.5, 0.5), OutOfRange),
    "truth-quantile-tau": (lambda: true_theta_quantile(0.5, 0.2, 0.5, 0.0), OutOfRange),
    "cell-method": (lambda: MonteCarloCell(method="median", dgp=DgpConfig(b=0.5)),
                    OutOfRange),
}


@pytest.mark.parametrize("call, error", GUARD_CASES.values(), ids=GUARD_CASES)
def test_guard_raises_typed(call, error):
    with pytest.raises(error):
        call()
