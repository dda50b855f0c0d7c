"""Tests for the sweep drivers and series summaries."""

from dataclasses import replace
from fractions import Fraction
import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dephasim import (
    BathConfig,
    CouplingConfig,
    EnsembleConfig,
    FitError,
    NumericalError,
    SpinInit,
    TimeSeries,
    ValidationError,
    collapse_time,
    fit_exponential,
    grid_pv,
    limits_compare,
    peak_concurrence,
    relative_spread,
    sweep_N,
    sweep_eta,
    sweep_kappa,
    time_series,
)
from dephasim import DephasingGrid, dephasing_grid, experiments
from dephasim.dynamics import evolve_series, initial_two_qubit
from dephasim.entanglement import _CHUNK, _concurrence_block, _pack, concurrence_series
from dephasim.experiments import COLLAPSE_FLOOR, _clip_v, _product_states


_SPIN = SpinInit(p=0.5, v=0.48)


@pytest.fixture(scope="module")
def bath():
    return BathConfig()


@pytest.fixture(scope="module")
def std_ens():
    spin = SpinInit(p=0.5, v=0.48)
    return EnsembleConfig(spin1=spin, spin2=spin)


def _series(tau, c):
    n = len(tau)
    z = np.zeros(n)
    return TimeSeries(
        t=np.asarray(tau, float), tau=np.asarray(tau, float),
        concurrence=np.asarray(c, float), abs_p_n=np.ones(n),
        S=z, gamma_l=z, gamma_c=z, meta={},
    )


class TestTimeSeries:
    def test_columns_and_shapes(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        ts = time_series(cfg, std_ens, bath, steps=200, tau_max=1.0)
        assert ts.columns == ("t", "tau", "concurrence", "abs_p_n", "s", "gamma_l", "gamma_c")
        rows = ts.rows()
        assert len(rows) == 200 and len(rows[0]) == 7
        assert ts.t[0] == 0.0
        assert ts.tau[-1] == pytest.approx(1.0)
        assert np.all(np.diff(ts.t) > 0)

    def test_zero_coupling_requires_t_max(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.0, N=4)
        with pytest.raises(ValidationError):
            time_series(cfg, std_ens, bath)
        ts = time_series(cfg, std_ens, bath, t_max=5.0, steps=50)
        assert np.all(ts.concurrence == ts.concurrence[0])

    def test_underflowing_coupling_requires_t_max(self, std_ens):
        # kappa_eff^2 = 5e-324 is not 0, but kappa_eff^2 nu_c underflows to 0
        cfg = CouplingConfig(kappa_c=2.3e-162, N=2)
        with pytest.raises(ValidationError, match="t_max is required"):
            time_series(cfg, std_ens, BathConfig(epsilon=0.1), steps=10)

    def test_auto_steps_grow_with_n(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.4, N=4000)
        ts = time_series(cfg, std_ens, bath, tau_max=2.0)
        assert len(ts.t) > 4000
        assert ts.meta["steps"] == len(ts.t)

    def test_explicit_grid_reused(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        grid = dephasing_grid(np.linspace(0.0, 100.0, 64), bath)
        ts = time_series(cfg, std_ens, bath, grid=grid)
        assert len(ts.t) == 64
        np.testing.assert_array_equal(ts.t, grid.t)

    @pytest.mark.parametrize("steps", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("shared", [False, True], ids=["own-grid", "shared-grid"])
    def test_blocks_match_whole_stack(self, bath, steps, shared):
        # time_series scores its times in blocks of _CHUNK; each C must keep its bits
        cfg = CouplingConfig(kappa_c=0.3, kappa_l=0.1, N=4)
        s1, s2 = SpinInit(p=0.5, v=0.48), SpinInit(p=0.4, v=0.3 + 0.2j)
        ens = EnsembleConfig(spin1=s1, spin2=s2, background_p=[0.2, 0.9])
        if shared:
            grid = dephasing_grid(np.linspace(0.0, 200.0, steps), bath)
            ts = time_series(cfg, ens, bath, grid=grid)
        else:
            ts = time_series(cfg, ens, bath, steps=steps)
            grid = dephasing_grid(ts.t, bath)
        want = concurrence_series(evolve_series(initial_two_qubit(s1, s2), grid, cfg, ens))
        assert ts.concurrence.shape == (steps,)
        np.testing.assert_array_equal(ts.concurrence, want)
        assert steps == 2 or np.any(ts.concurrence > 0)

    @pytest.mark.parametrize("field", ["S", "Gamma"])
    def test_non_finite_in_a_later_block(self, bath, std_ens, field):
        grid = dephasing_grid(np.linspace(0.0, 200.0, 2 * _CHUNK), bath)
        bad = {"t": grid.t, "S": grid.S.copy(), "Gamma": grid.Gamma.copy()}
        bad[field][_CHUNK + 7] = math.nan
        cfg = CouplingConfig(kappa_c=0.3, N=4)
        with pytest.raises(NumericalError, match="non-finite matrix entries"):
            time_series(cfg, std_ens, bath, grid=DephasingGrid(**bad))

    @pytest.mark.parametrize("steps", [
        2.5, 1e3 + 0.5, math.nan, math.inf,
        pytest.param(Fraction(10**400) + Fraction(1, 2), id="huge-fraction"),
    ])
    def test_non_integral_steps_rejected(self, bath, std_ens, steps):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        with pytest.raises(ValidationError, match="steps must be an integer"):
            time_series(cfg, std_ens, bath, steps=steps)

    @pytest.mark.parametrize("steps", [10**400, Fraction(10**400)], ids=["int", "fraction"])
    def test_huge_integral_steps_rejected(self, bath, std_ens, steps):
        # integrality is decided without float(steps), which overflows
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        with pytest.raises(ValidationError, match=r"^steps = 10{400} is too large"):
            time_series(cfg, std_ens, bath, steps=steps)

    @pytest.mark.parametrize("kwargs, field", [
        ({"t_max": 10**400}, "t_max"),
        ({"t_max": "5"}, "t_max"),
        ({"t_max": 0}, "t_max"),
        ({"tau_max": "x"}, "tau_max"),
        ({"tau_max": 10**400}, "tau_max"),
    ])
    def test_malformed_window_rejected(self, bath, std_ens, kwargs, field):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        with pytest.raises(ValidationError, match="^%s must be" % field):
            time_series(cfg, std_ens, bath, **kwargs)

    def test_integral_float_steps_accepted(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        ts = time_series(cfg, std_ens, bath, steps=3.0)
        np.testing.assert_array_equal(ts.concurrence, time_series(cfg, std_ens, bath, steps=3).concurrence)

    def test_memory_is_blocked(self, bath, std_ens):
        # 100 000 times: the whole factor and state stacks would be 24 MiB each
        cfg = CouplingConfig(kappa_c=0.05, N=4)
        time_series(cfg, std_ens, bath, steps=1000)
        tracemalloc.start()
        try:
            ts = time_series(cfg, std_ens, bath, steps=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.concurrence.size == 100_000
        assert peak < 24 * 2**20


class TestPeak:
    def test_simple_peak(self):
        pk = peak_concurrence(_series([0, 1, 2, 3], [0.0, 0.5, 0.2, 0.1]))
        assert pk.tau_peak == 1.0 and pk.c_max == 0.5 and not pk.all_zero

    def test_tie_breaks_to_earlier(self):
        pk = peak_concurrence(_series([0, 1, 2, 3], [0.0, 0.5, 0.5, 0.1]))
        assert pk.tau_peak == 1.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            peak_concurrence(_series([], []))

    def test_all_zero_flag(self):
        pk = peak_concurrence(_series([0, 1, 2], [0.0, 0.0, 0.0]))
        assert pk.all_zero and pk.c_max == 0.0

    def test_real_series(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, N=2)
        ts = time_series(cfg, std_ens, bath, tau_max=2.0)
        pk = peak_concurrence(ts)
        assert 0.8 < pk.c_max < 1.0
        assert ts.concurrence.max() == pk.c_max


class TestCollapse:
    def test_sustained_drop(self):
        tau = np.linspace(0.0, 10.0, 1001)
        c = np.where(tau < 4.0, 0.3 * np.sin(tau * math.pi / 4.0), 0.0)
        res = collapse_time(_series(tau, c))
        assert res.status == "ok"
        assert res.tau_c == pytest.approx(4.0, abs=0.02)

    def test_brief_dip_is_not_collapse(self):
        tau = np.linspace(0.0, 10.0, 1001)
        c = np.full_like(tau, 0.2)
        c[500:503] = 0.0  # shorter than the persistence window
        res = collapse_time(_series(tau, c))
        assert res.status == "no-collapse"

    def test_no_entanglement(self):
        res = collapse_time(_series([0, 1, 2], [0.0, 0.0, 0.0]))
        assert res.status == "no-entanglement"
        assert math.isnan(res.tau_c)

    def test_floor_is_respected(self):
        tau = np.linspace(0.0, 1.0, 101)
        c = np.full_like(tau, 2 * COLLAPSE_FLOOR)
        res = collapse_time(_series(tau, c))
        assert res.status == "no-collapse"

    def test_real_collapse(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.05, N=12)
        ts = time_series(cfg, std_ens, bath, tau_max=2.0)
        res = collapse_time(ts)
        assert res.status == "ok"
        pk = peak_concurrence(ts)
        assert res.tau_c > pk.tau_peak


class TestFit:
    def test_exact_exponential(self):
        n = np.arange(1, 21, dtype=float)
        fit = fit_exponential(n, np.exp(-0.1 * n))
        assert fit.slope == pytest.approx(-0.1, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.n_used == 20 and fit.n_excluded == 0

    def test_seeded_noise(self):
        rng = np.random.default_rng(42)
        n = np.arange(1, 101, dtype=float)
        y = np.exp(-0.1 * n) * (1.0 + 1e-3 * rng.uniform(-1, 1, size=n.size))
        fit = fit_exponential(n, y)
        assert fit.slope == pytest.approx(-0.1, abs=1e-3)

    def test_nonpositive_excluded(self):
        n = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([1.0, 0.5, 0.0, 0.25, -1.0])
        fit = fit_exponential(n, y)
        assert fit.n_used == 3 and fit.n_excluded == 2

    def test_range_filter(self):
        n = np.arange(1, 21, dtype=float)
        y = np.exp(-0.1 * n)
        y[n > 10] = 1e-30  # garbage outside the window must not matter
        fit = fit_exponential(n, y, n_range=(1, 10))
        assert fit.slope == pytest.approx(-0.1, abs=1e-12)
        assert fit.n_range == (1.0, 10.0)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_exponential(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
        with pytest.raises(FitError):
            fit_exponential(
                np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0])
            )


    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValidationError, match="matching 1-D arrays"):
            fit_exponential(np.arange(4.0), np.ones(3))
        with pytest.raises(ValidationError, match="matching 1-D arrays"):
            fit_exponential(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n_range", [None, (-math.inf, math.inf)])
    def test_non_finite_n_excluded(self, bad, n_range):
        # dropped and counted like y <= 0, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential([1.0, 2.0, bad, 4.0], [1.0, 0.5, 0.25, 0.125], n_range)
        want = fit_exponential([1.0, 2.0, 4.0], [1.0, 0.5, 0.125], n_range)
        assert fit == replace(want, n_excluded=1)

    @pytest.mark.parametrize("n_range", [(math.nan, 10.0), (1.0, math.nan), (math.nan, math.nan),
                                         (np.float64("nan"), math.inf)])
    def test_nan_bound_rejected(self, n_range):
        # every point would fall outside the range, a FitError of the input's making
        n = np.arange(1.0, 11.0)
        with pytest.raises(ValidationError, match="n_range must not hold NaN"):
            fit_exponential(n, np.exp(-0.1 * n), n_range)

    def test_equal_n_rejected(self):
        with pytest.raises(FitError, match="distinct n"):
            fit_exponential(np.full(4, 3.0), np.array([1.0, 0.5, 0.25, 0.125]))


class TestSpread:
    def test_constant_is_zero(self):
        assert relative_spread(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            relative_spread([])

    def test_zero_mean_rejected(self):
        with pytest.raises(ValidationError, match="zero mean"):
            relative_spread([-1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="relative_spread needs finite values"):
                relative_spread([1.0, bad])

    def test_known_value(self):
        x = np.array([1.0, 3.0])
        assert relative_spread(x) == pytest.approx(0.5)


class TestSweeps:
    def test_sweep_n_matches_single_runs(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.05, N=2)
        res = sweep_N([2, 6, 10], cfg, std_ens, bath)
        assert res.columns == ("n", "c_max", "tau_peak", "tau_c", "status")
        n = res.column("n")
        assert list(n) == [2, 6, 10]
        for row_n, row_c in zip(res.column("n"), res.column("c_max")):
            cfg_n = CouplingConfig(kappa_c=0.05, N=int(row_n))
            single = peak_concurrence(time_series(cfg_n, std_ens, bath))
            assert row_c == pytest.approx(single.c_max, abs=1e-12)

    def test_sweep_n_monotone(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.05, N=2)
        res = sweep_N(list(range(2, 31, 2)), cfg, std_ens, bath)
        c = np.array(res.column("c_max"))
        assert np.all(np.diff(c) <= 1e-9)

    @pytest.mark.parametrize("n_values", [[1], [4, 1]])
    def test_sweep_n_rejects_small_n(self, bath, std_ens, n_values):
        with pytest.raises(ValidationError, match="all N must be >= 2"):
            sweep_N(n_values, CouplingConfig(kappa_c=0.05, N=2), std_ens, bath)

    @pytest.mark.parametrize("kappa_values", [[0.0], [0.1, -0.1]])
    def test_sweep_kappa_rejects_nonpositive(self, bath, std_ens, kappa_values):
        with pytest.raises(ValidationError, match="positive couplings"):
            sweep_kappa(kappa_values, CouplingConfig(kappa_c=0.1, N=4), std_ens, bath)

    @pytest.mark.parametrize(
        "sweep, field",
        [
            (lambda cfg, ens, bath: sweep_kappa(["x"], cfg, ens, bath), "kappa_values"),
            (lambda cfg, ens, bath: sweep_kappa([0.1, 10**400], cfg, ens, bath), "kappa_values"),
            (lambda cfg, ens, bath: sweep_eta(["x"], [4], cfg, ens, bath), "eta_values"),
            (lambda cfg, ens, bath: sweep_eta([0.1, None], [4], cfg, ens, bath), "eta_values"),
        ],
        ids=["kappa-str", "kappa-huge", "eta-str", "eta-none"],
    )
    def test_non_number_sweep_values_rejected(self, bath, std_ens, sweep, field):
        with pytest.raises(ValidationError, match="^%s must be" % field):
            sweep(CouplingConfig(kappa_c=0.1, N=4), std_ens, bath)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_too_few_steps_rejected(self, bath, std_ens, steps):
        with pytest.raises(ValidationError, match="steps must be >= 2"):
            time_series(CouplingConfig(kappa_c=0.1, N=4), std_ens, bath, steps=steps)

    def test_sweep_kappa_order_preserved(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        values = [0.4, 0.04, 0.2]
        res = sweep_kappa(values, cfg, std_ens, bath, tau_max=2.0)
        assert list(res.column("kappa_c")) == values

    def test_sweep_eta_zero_column_matches_sweep_n(self, bath, std_ens):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        ns = [4, 8, 12]
        res_e = sweep_eta([0.0], ns, cfg, std_ens, bath)
        res_n = sweep_N(ns, cfg, std_ens, bath)
        np.testing.assert_allclose(
            res_e.column("c_max"), res_n.column("c_max"), atol=1e-12
        )

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda cfg, ens, bath: sweep_N([], cfg, ens, bath),
            lambda cfg, ens, bath: sweep_kappa([], cfg, ens, bath),
            lambda cfg, ens, bath: sweep_eta([], [4, 8], cfg, ens, bath),
        ],
        ids=["n", "kappa", "eta"],
    )
    def test_empty_sweep_rejected(self, bath, std_ens, sweep):
        with pytest.raises(ValidationError, match="no points"):
            sweep(CouplingConfig(kappa_c=0.1, N=4), std_ens, bath)

    _N_SWEEPS = pytest.mark.parametrize(
        "sweep",
        [
            lambda n, cfg, ens, bath: sweep_N([4, n], cfg, ens, bath, steps=50),
            lambda n, cfg, ens, bath: sweep_eta([0.1], [4, n], cfg, ens, bath, steps=50),
            lambda n, cfg, ens, bath: limits_compare(0.1, [100, n], 30.0, ens.spin1, ens.spin2,
                                                     kappa_c=0.2, bath=bath),
        ],
        ids=["sweep_N", "sweep_eta", "limits_compare"],
    )

    @pytest.mark.parametrize("n", [
        4.5, 100.7, math.nan, math.inf, -math.inf,
        pytest.param(Fraction(10**400) + Fraction(1, 2), id="huge-fraction"),
    ])
    @_N_SWEEPS
    def test_non_integral_n_rejected(self, bath, std_ens, sweep, n):
        # int(n) would run 4.5 as 4 and 100.7 as 100, and raise ValueError on NaN
        with pytest.raises(ValidationError, match="N must be an integer"):
            sweep(n, CouplingConfig(kappa_c=0.1, N=4), std_ens, bath)

    @pytest.mark.parametrize("n", [10**400, Fraction(10**400)], ids=["int", "fraction"])
    @_N_SWEEPS
    def test_huge_integral_n_rejected(self, bath, std_ens, sweep, n):
        with pytest.raises(ValidationError, match=r"^N\^eta must be finite"):
            sweep(n, CouplingConfig(kappa_c=0.1, N=4), std_ens, bath)

    @pytest.mark.parametrize("n", [8.0, np.int64(8), np.float64(8.0)])
    def test_integral_n_accepted(self, bath, std_ens, n):
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        res = sweep_N([n], cfg, std_ens, bath, steps=50)
        assert res.rows == sweep_N([8], cfg, std_ens, bath, steps=50).rows
        assert type(res.rows[0][0]) is int


class TestSweepWarnings:
    """A sweep reports each point's grid warnings, prefixed by the point's key."""

    def test_sweep_kappa_keeps_point_warnings(self, std_ens):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        res = sweep_kappa([0.1, 0.2], cfg, std_ens, steps=50)
        want = [
            "kappa_c=%s: %s" % (k, w)
            for k in (0.1, 0.2)
            for w in time_series(replace(cfg, kappa_c=k), std_ens, steps=50).meta["warnings"]
        ]
        assert any("exceeds a tenth of the background peak width" in w for w in want)
        assert res.meta["warnings"] == want

    @pytest.mark.parametrize(
        "sweep,prefix",
        [
            (lambda cfg, ens: sweep_eta([0.3], [3000], cfg, ens), "eta=0.3, n=3000: "),
            (lambda cfg, ens: sweep_N([3000], replace(cfg, eta=0.3), ens), "n=3000: "),
        ],
        ids=["sweep_eta", "sweep_N-eta"],
    )
    def test_per_point_grids_keep_step_cap(self, std_ens, sweep, prefix):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        res = sweep(cfg, std_ens)
        single = time_series(CouplingConfig(kappa_c=0.2, eta=0.3, N=3000), std_ens)
        assert single.meta["warnings"][0].startswith("auto step cap reached")
        assert res.meta["warnings"] == [prefix + w for w in single.meta["warnings"]]

    def test_shared_grid_warns_once(self, std_ens):
        # eta = 0: the points share the grid of the largest N, which warns once, unprefixed
        res = sweep_N([3000], CouplingConfig(kappa_c=0.2, N=2), std_ens)
        assert res.meta["warnings"][0].startswith("auto step cap reached")
        single = time_series(CouplingConfig(kappa_c=0.2, N=3000), std_ens)
        assert res.meta["warnings"] == single.meta["warnings"]


class _Stop(BaseException):
    """Raised in the parent's share, past _share's Exception handler."""


class TestForkedSweeps:
    """_sweep splits its points across forked workers; rows, meta and errors are a serial run's."""

    SWEEPS = {
        "sweep_N-shared-grid": lambda cfg, ens: sweep_N([2, 5, 9, 4, 12], cfg, ens, tau_max=1.0,
                                                         steps=300),
        "sweep_N-eta": lambda cfg, ens: sweep_N([2, 5, 9, 4, 12], replace(cfg, eta=0.3), ens,
                                                tau_max=1.0, steps=300),
        "sweep_kappa-warns": lambda cfg, ens: sweep_kappa([0.1, 0.2, 0.05], cfg, ens, steps=50),
        "sweep_eta-odd": lambda cfg, ens: sweep_eta([0.0, 0.3, 0.5], [4, 10, 22], cfg, ens,
                                                    tau_max=1.0, steps=300),
    }
    # child-share: only point 1 fails, and a child runs it on 2 or 3 CPUs.
    # both-shares: points 2 and 3 fail, differently (test_failures_differ_by_point);
    # on 2 CPUs the parent runs point 2, on 3 CPUs the parent runs point 3.
    FAILING = {
        "child-share": lambda cfg, ens: sweep_eta([0.0, 400.0, 0.0], [4], cfg, ens, steps=50),
        "both-shares": lambda cfg, ens: sweep_eta([0.0, 400.0], [4, 1000], cfg, ens, steps=50),
    }

    @staticmethod
    def _cpus(monkeypatch, n):
        """Make n CPUs available, and return the list that records each os.fork."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @staticmethod
    def _all_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
    def test_rows_and_meta_match_serial(self, monkeypatch, std_ens, sweep):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        forks = self._cpus(monkeypatch, 1)
        serial = sweep(cfg, std_ens)
        assert not forks
        forks = self._cpus(monkeypatch, 3)
        split = sweep(cfg, std_ens)
        assert len(forks) == 2
        assert repr(split.rows) == repr(serial.rows)
        assert split.meta == serial.meta
        self._all_reaped()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("sweep", FAILING.values(), ids=FAILING.keys())
    def test_earliest_failure_raised(self, monkeypatch, std_ens, sweep, cpus):
        cfg = CouplingConfig(kappa_c=0.1, N=2)
        self._cpus(monkeypatch, 1)
        with pytest.raises(ValidationError) as serial:
            sweep(cfg, std_ens)
        forks = self._cpus(monkeypatch, cpus)
        with pytest.raises(ValidationError) as split:
            sweep(cfg, std_ens)
        assert forks
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)
        self._all_reaped()

    def test_failures_differ_by_point(self, std_ens):
        # so the test above tells the earliest failure from a later one
        cfg = CouplingConfig(kappa_c=0.1, N=2)
        with pytest.raises(ValidationError, match="collective coupling is zero"):
            sweep_eta([400.0], [4], cfg, std_ens, steps=50)
        with pytest.raises(ValidationError, match=r"N\^eta must be finite"):
            sweep_eta([400.0], [1000], cfg, std_ens, steps=50)

    def test_worker_without_results_is_an_error(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                os._exit(3)
            return x

        with pytest.raises(RuntimeError, match="ended without its results"):
            experiments._forked_map(fn, [1, 2, 3])
        self._all_reaped()

    def test_parent_failure_kills_workers(self, monkeypatch):
        self._cpus(monkeypatch, 3)
        parent = os.getpid()

        def fn(x):
            if os.getpid() == parent:
                raise _Stop
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(_Stop):
            experiments._forked_map(fn, [1, 2, 3])
        assert time.monotonic() - start < 30
        self._all_reaped()

    def test_live_thread_runs_serially(self, monkeypatch, std_ens):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        sweep = self.SWEEPS["sweep_eta-odd"]
        forks = self._cpus(monkeypatch, 3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            res = sweep(cfg, std_ens)
        finally:
            stop.set()
            thread.join()
        assert not forks
        assert repr(res.rows) == repr(sweep(cfg, std_ens).rows)
        assert len(forks) == 2

    def test_without_fork_runs_serially(self, monkeypatch, std_ens):
        cfg = CouplingConfig(kappa_c=0.2, N=2)
        sweep = self.SWEEPS["sweep_kappa-warns"]
        self._cpus(monkeypatch, 3)
        split = sweep(cfg, std_ens)
        monkeypatch.delattr(os, "fork")
        assert repr(sweep(cfg, std_ens).rows) == repr(split.rows)


class TestMeta:
    """Each driver's meta dict, keys and values."""

    BATH = BathConfig(epsilon=2.0, theta=0.5)

    def _fixed(self, **extra):
        return dict(epsilon=2.0, theta=0.5, warnings=[], **extra)

    def test_time_series(self, std_ens):
        cfg = CouplingConfig(kappa_c=0.1, kappa_l=0.2, eta=0.1, N=4)
        ts = time_series(cfg, std_ens, self.BATH, tau_max=1.0)
        t_max = 1.0 / ((0.1 / 4**0.1) ** 2 * self.BATH.nu_c)
        assert ts.meta == self._fixed(
            experiment="timeseries", kappa_c=0.1, kappa_l=0.2, eta=0.1, n=4, steps=4000,
            t_max=pytest.approx(t_max, rel=1e-14),
        )

    @pytest.mark.parametrize("eta", [0.0, 0.3], ids=["shared-grid", "per-point-grids"])
    def test_sweep_n(self, std_ens, eta):
        cfg = CouplingConfig(kappa_c=0.05, kappa_l=0.1, eta=eta, N=7)
        res = sweep_N([6, 4], cfg, std_ens, self.BATH, tau_max=1.0)
        assert res.meta == self._fixed(
            experiment="sweep-n", kappa_c=0.05, kappa_l=0.1, eta=eta, n_values=[6, 4]
        )

    def test_sweep_kappa(self, std_ens):
        cfg = CouplingConfig(kappa_c=0.3, kappa_l=0.1, eta=0.2, N=4)
        res = sweep_kappa([0.2, 0.1], cfg, std_ens, self.BATH, tau_max=1.0)
        assert res.meta == self._fixed(
            experiment="sweep-kappa", kappa_l=0.1, eta=0.2, n=4, kappa_values=[0.2, 0.1]
        )

    def test_sweep_eta(self, std_ens):
        cfg = CouplingConfig(kappa_c=0.2, kappa_l=0.1, eta=0.7, N=9)
        res = sweep_eta([0.5, 0.0], [6, 4], cfg, std_ens, self.BATH, tau_max=1.0)
        assert res.meta == self._fixed(
            experiment="sweep-eta", kappa_c=0.2, kappa_l=0.1, eta_values=[0.5, 0.0],
            n_values=[6, 4],
        )

    def _argmax(self, res):
        best = max((r for r in res.rows if not r[3]), key=lambda r: r[2])
        return {"argmax": (best[0], best[1]), "c_max": best[2]}

    def test_grid_pv_symmetric(self):
        res = grid_pv([0.0, 0.5], [0.1, 0.5], s_knob=1.1, gamma_l_knob=0.2, gamma_c_knob=0.3)
        assert res.meta == {
            "experiment": "grid-pv", "mode": "symmetric-pv", "warnings": [], "s_knob": 1.1,
            "gamma_l_knob": 0.2, "gamma_c_knob": 0.3, **self._argmax(res),
        }

    def test_grid_pv_dynamic_corner(self):
        cfg = CouplingConfig(kappa_c=0.05, kappa_l=0.1, eta=0.2, N=8)
        res = grid_pv([0.0, 0.5], [0.1, 0.5], mode="dynamic-corner", cfg=cfg,
                      ens_background=0.4, bath=self.BATH, tau_max=1.0)
        assert res.meta == self._fixed(
            experiment="grid-pv", mode="dynamic-corner", kappa_c=0.05, kappa_l=0.1, eta=0.2,
            n=8, background_p=0.4, **self._argmax(res),
        )

    def test_limits_compare(self):
        spin = SpinInit(p=0.5, v=0.48)
        res = limits_compare(0.1, [100], 30.0, spin, spin, kappa_c=0.2, kappa_l=0.1,
                             background_p=0.4, bath=self.BATH)
        assert res.meta == self._fixed(
            experiment="limits", eta=0.1, t=30.0, kappa_c=0.2, kappa_l=0.1, background_p=0.4,
            regime="small-eta",
        )


class TestGridPV:
    def test_symmetric_mode(self):
        res = grid_pv(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 0.5, 11))
        assert res.meta["argmax"] == (0.5, 0.5)
        assert len(res.rows) == 121
        p = np.array(res.column("p"))
        v = np.array(res.column("v"))
        c = np.array(res.column("c_max"))
        assert np.all(c[(p == 0.0) | (p == 1.0)] == 0.0)
        clipped = np.array(res.column("clipped"))
        assert np.any(clipped == 1)
        # all clipped cells sit where v^2 > p(1-p)
        viol = v**2 > p * (1 - p) + 1e-12
        np.testing.assert_array_equal(clipped.astype(bool), viol)

    def test_dynamic_mode(self, bath):
        cfg = CouplingConfig(kappa_c=0.05, N=8)
        vals = np.linspace(0.0, 0.5, 6)
        res = grid_pv(vals, vals, mode="dynamic-corner", cfg=cfg, bath=bath)
        assert len(res.rows) == 36
        assert res.meta["argmax"] == (0.5, 0.5)
        p1 = np.array(res.column("p1"))
        c = np.array(res.column("c_max"))
        assert np.all(c[p1 == 0.0] == 0.0)

    @pytest.mark.parametrize(
        "mode,kwargs,axes",
        [
            ("dynamic-corner", {"cfg": CouplingConfig(kappa_c=0.05, N=8)}, (6, 0.5, 6, 0.5)),
            ("dynamic-corner", {"cfg": CouplingConfig(kappa_c=0.05, N=40)}, (4, 0.5, 4, 0.5)),
            ("dynamic-corner",
             {"cfg": CouplingConfig(kappa_c=0.3, kappa_l=0.2, eta=0.3, N=12), "steps": 700},
             (5, 0.5, 5, 0.5)),
            ("symmetric-pv", {}, (21, 1.0, 21, 0.5)),
            ("symmetric-pv", {"s_knob": 1.1, "gamma_l_knob": 0.2, "gamma_c_knob": 0.3},
             (21, 1.0, 21, 0.5)),
        ],
        ids=["corner-n8", "corner-n40", "corner-local-scaled", "symmetric", "symmetric-knobs"],
    )
    def test_matches_formed_states(self, monkeypatch, bath, mode, kwargs, axes):
        # the factored screen against forming and scoring every state, the
        # loop grid_pv ran before; F is the stack grid_pv screens
        blocks = []

        def spy(cells, F):
            blocks.append(_pack(F))
            return screen(cells, F)

        screen = experiments._certified_separable
        monkeypatch.setattr(experiments, "_certified_separable", spy)
        n1, top1, n2, top2 = axes
        res = grid_pv(np.linspace(0.0, top1, n1), np.linspace(0.0, top2, n2), mode=mode,
                      bath=bath, **kwargs)
        F = np.concatenate(blocks)
        cells = []
        for a, b in ((r[0], r[1]) for r in res.rows):
            if mode == "symmetric-pv":
                s = SpinInit(p=a, v=_clip_v(a, b)[0])
                cells.append(initial_two_qubit(s, s))
            else:
                cells.append(initial_two_qubit(SpinInit(p=a, v=_clip_v(a, a)[0]),
                                               SpinInit(p=b, v=_clip_v(b, b)[0])))
        cells = np.array(cells)
        block = max(1, int(2e5 / F.shape[0]))
        want = np.empty(len(cells))
        for start in range(0, len(cells), block):
            sub = cells[start : start + block, None, :, :] * F[None, :, :, :]
            want[start : start + block] = concurrence_series(sub).max(axis=1)
        np.testing.assert_array_equal(res.column("c_max"), want)
        assert want.max() > 0.0

    def test_zero_row_cells_not_formed(self, monkeypatch, bath):
        # a spin at p = 0 (v = 0) zeroes a row of rho0^{T_B}: such cells
        # score exactly 0 without forming a state
        formed = []

        def spy(E):
            formed.append(_pack(E))
            return _concurrence_block(E)

        monkeypatch.setattr(experiments, "_concurrence_block", spy)
        vals = np.linspace(0.0, 0.5, 6)
        res = grid_pv(vals, vals, mode="dynamic-corner", cfg=CouplingConfig(kappa_c=0.05, N=8),
                      bath=bath)
        rhos = np.concatenate(formed)
        assert len(rhos) and not np.any(np.all(rhos == 0.0, axis=2))
        c = np.array(res.column("c_max"))
        assert np.all(c[(np.array(res.column("p1")) == 0.0) | (np.array(res.column("p2")) == 0.0)] == 0.0)
        assert c.max() > 0.0

    def test_nonfinite_factors_rejected(self, monkeypatch, bath):
        entries = experiments._evolution_entries

        def broken(*args, **kwargs):
            F = list(entries(*args, **kwargs))
            F[2] = F[2].copy()  # F_03
            F[2][3] = math.nan
            return F

        monkeypatch.setattr(experiments, "_evolution_entries", broken)
        vals = np.linspace(0.0, 0.5, 3)
        with pytest.raises(NumericalError):
            grid_pv(vals, vals, mode="dynamic-corner", cfg=CouplingConfig(kappa_c=0.05, N=8),
                    bath=bath, steps=50)

    @pytest.mark.parametrize(
        "cfg, p1, p2",
        [
            (CouplingConfig(kappa_c=0.05, kappa_l=0.1, eta=0.2, N=8), 0.5, 0.5),
            (CouplingConfig(kappa_c=0.05, kappa_l=0.1, eta=0.2, N=8), 0.45, 0.45),
            (CouplingConfig(kappa_c=0.05, N=40), 0.5, 0.5),
        ],
        ids=["n8-pure", "n8-mixed", "n40-pure"],
    )
    def test_cell_matches_time_series(self, bath, cfg, p1, p2):
        # one corner cell (v = p) and time_series score the same states, so
        # their peaks agree bit for bit
        res = grid_pv([p1], [p2], mode="dynamic-corner", cfg=cfg, bath=bath, steps=3000)
        ens = EnsembleConfig(SpinInit(p=p1, v=p1), SpinInit(p=p2, v=p2))
        want = time_series(cfg, ens, bath, steps=3000).concurrence.max()
        assert want > 0.0
        assert res.column("c_max")[0] == want

    def test_product_states_match_kron(self):
        spins = [SpinInit(p=0.0), SpinInit(p=1.0), SpinInit(p=0.3, v=0.2),
                 SpinInit(p=0.2, v=0.3j), SpinInit(p=0.5, v=0.5), SpinInit(p=0.7, v=-0.1 + 0.25j)]
        s1 = [a for a in spins for _ in spins]
        s2 = [b for _ in spins for b in spins]
        want = np.array([initial_two_qubit(a, b) for a, b in zip(s1, s2)])
        got = _product_states(s1, s2)
        assert got.tobytes() == want.tobytes()

    def test_dynamic_mode_needs_cfg(self):
        with pytest.raises(ValidationError):
            grid_pv(np.linspace(0, 0.5, 3), mode="dynamic-corner")

    def test_non_integral_steps_rejected(self, bath):
        vals = np.linspace(0.0, 0.5, 3)
        with pytest.raises(ValidationError, match="steps must be an integer"):
            grid_pv(vals, vals, mode="dynamic-corner", cfg=CouplingConfig(kappa_c=0.05, N=8),
                    bath=bath, steps=2.5)

    @pytest.mark.parametrize("mode", ["symmetric-pv", "dynamic-corner"])
    def test_empty_axis_rejected(self, bath, mode):
        cfg = CouplingConfig(kappa_c=0.05, N=8)
        with pytest.raises(ValidationError):
            grid_pv([], mode=mode, cfg=cfg, bath=bath, steps=100)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            grid_pv(np.linspace(0, 1, 3), mode="diagonal")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"s_knob": math.nan},
            {"s_knob": math.inf},
            {"gamma_l_knob": math.nan},
            {"gamma_l_knob": math.inf},
            {"gamma_l_knob": -5.0},
            {"gamma_c_knob": math.nan},
            {"gamma_c_knob": -math.inf},
            {"gamma_c_knob": -1e-300},
            {"s_knob": "x"},
            {"gamma_l_knob": None},
            {"gamma_c_knob": 10**400},
        ],
    )
    def test_rejects_bad_knobs(self, knobs):
        with pytest.raises(ValidationError, match=next(iter(knobs))):
            grid_pv(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 0.5, 3), **knobs)

    @pytest.mark.parametrize("axes, field", [
        ((["x"],), "values1"),
        (([0.5], [None]), "values2"),
        (([10**400],), "values1"),
    ])
    def test_rejects_non_number_axis_values(self, axes, field):
        with pytest.raises(ValidationError, match="^%s must be" % field):
            grid_pv(*axes)


class TestLimitsCompare:
    def test_small_eta_monotone(self, bath):
        spin = SpinInit(p=0.5, v=0.48)
        res = limits_compare(0.1, [100, 1000, 10000], 30.0, spin, spin,
                             kappa_c=0.2, bath=bath)
        d = np.array(res.column("distance"))
        assert np.all(np.diff(d) < 0)
        assert res.meta["regime"] == "small-eta"
        assert np.all(np.array(res.column("concurrence_limit")) == 0.0)

    def test_large_eta_monotone(self, bath):
        spin = SpinInit(p=0.5, v=0.48)
        res = limits_compare(0.5, [100, 1000, 10000], 30.0, spin, spin,
                             kappa_c=0.2, bath=bath)
        d = np.array(res.column("distance"))
        assert np.all(np.diff(d) < 0)
        assert res.meta["regime"] == "large-eta"

    @pytest.mark.parametrize("n_values", [[1, 100], [100, 1]])
    def test_small_n_rejected(self, bath, n_values):
        spin = SpinInit(p=0.5, v=0.48)
        with pytest.raises(ValidationError, match="N must be an integer >= 2"):
            limits_compare(0.1, n_values, 30.0, spin, spin, kappa_c=0.2, bath=bath)

    @pytest.mark.parametrize("args, field", [
        (("x", [5], 3.0, _SPIN, _SPIN), "eta"),
        ((10**400, [5], 3.0, _SPIN, _SPIN), "eta"),
        ((0.1, [5], "x", _SPIN, _SPIN), "t"),
        ((0.1, [5], 3.0, None, _SPIN), "spin1"),
        ((0.1, [5], 3.0, _SPIN, 0.5), "spin2"),
    ])
    def test_malformed_argument_rejected(self, bath, args, field):
        with pytest.raises(ValidationError, match="^%s must be" % field):
            limits_compare(*args, 0.2, bath=bath)

    def test_boundary_rejected(self, bath):
        spin = SpinInit(p=0.5, v=0.48)
        with pytest.raises(ValidationError):
            limits_compare(0.25, [100], 30.0, spin, spin, kappa_c=0.2, bath=bath)
        with pytest.raises(ValidationError):
            limits_compare(0.0, [100], 30.0, spin, spin, kappa_c=0.2, bath=bath)
