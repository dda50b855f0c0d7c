"""Acceptance gate: every reproduced study checked at its stated tolerance.

Each test prints a single PASS/FAIL line; a FAIL here means the
corresponding published behavior is not met by the implementation at the
stated tolerance (see notes in the repository history for analysis).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dephasim
from dephasim import (
    BathConfig,
    CouplingConfig,
    EnsembleConfig,
    SpinInit,
    concurrence,
    concurrence_series,
    decay_Gamma,
    dephasing_grid,
    evolve_series,
    fit_exponential,
    grid_pv,
    initial_two_qubit,
    limit_state_large_eta,
    limit_state_small_eta,
    limits_compare,
    phase_S,
    ppt_negative,
    relative_spread,
    sweep_N,
    sweep_eta,
    sweep_kappa,
    x_state_concurrence,
)
from oracle import _phase_oracle

BATH = BathConfig()
SPIN = SpinInit(p=0.5, v=0.48)
ENS = EnsembleConfig(spin1=SPIN, spin2=SPIN)

COLLAPSE_WINDOW = (10.0, 150.0)
SCALED_WINDOW = (10.0, 180.0)
TAU_FIRST_BURST = 2.0


def _check(label, ok, detail):
    print("ACCEPTANCE %-42s %s  (%s)" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


@pytest.fixture(scope="module")
def abstract_grid():
    start = time.perf_counter()
    res = grid_pv(np.linspace(0.0, 1.0, 51), np.linspace(0.0, 0.5, 51))
    return res, time.perf_counter() - start


@pytest.fixture(scope="module")
def kappa_peaks():
    cfg4 = CouplingConfig(kappa_c=0.04, N=4)
    res4 = sweep_kappa([0.04, 0.1, 0.2, 0.4], cfg4, ENS, BATH, tau_max=TAU_FIRST_BURST)
    cfg2 = CouplingConfig(kappa_c=0.04, N=2)
    res2 = sweep_kappa([0.04, 0.4], cfg2, ENS, BATH, tau_max=TAU_FIRST_BURST)
    return res4, res2


@pytest.fixture(scope="module")
def collapse_sweep():
    cfg = CouplingConfig(kappa_c=0.05, N=2)
    start = time.perf_counter()
    res = sweep_N(list(range(2, 201, 2)), cfg, ENS, BATH)
    return res, time.perf_counter() - start


@pytest.fixture(scope="module")
def corner_grid():
    cfg = CouplingConfig(kappa_c=0.05, N=40)
    vals = np.linspace(0.0, 0.5, 26)
    return grid_pv(vals, vals, mode="dynamic-corner", cfg=cfg, bath=BATH)


@pytest.fixture(scope="module")
def scaled_sweep():
    cfg = CouplingConfig(kappa_c=0.2, N=2)
    n_values = list(range(4, 61, 2)) + list(range(70, 181, 10))
    res = sweep_eta([0.0, 0.1, 0.25, 0.3, 0.4, 0.5], n_values, cfg, ENS, BATH)
    eta = np.array(res.column("eta"))
    n = np.array(res.column("n"))
    c = np.array(res.column("c_max"))
    return eta, n, c


def _slopes(scaled_sweep, etas, window):
    eta, n, c = scaled_sweep
    out = {}
    for e in etas:
        m = eta == e
        fit = fit_exponential(n[m], c[m], n_range=window)
        out[e] = fit
    return out


class TestSymmetricGridStudy:
    def test_argmax_at_center(self, abstract_grid):
        res, _ = abstract_grid
        _check("symmetric grid argmax", res.meta["argmax"] == (0.5, 0.5),
               "argmax=%s" % (res.meta["argmax"],))

    def test_runtime(self, abstract_grid):
        _, elapsed = abstract_grid
        _check("symmetric grid runtime < 10 s", elapsed < 10.0,
               "elapsed=%.2fs" % elapsed)


class TestCouplingStudy:
    def test_peak_alignment(self, kappa_peaks):
        res4, _ = kappa_peaks
        taus = np.array(res4.column("tau_peak"))
        spread = relative_spread(taus)
        _check("rescaled peak alignment <= 5%", spread <= 0.05,
               "spread=%.3f%% taus=%s" % (100 * spread, np.round(taus, 4)))

    def test_amplitude_drop(self, kappa_peaks):
        _, res2 = kappa_peaks
        c = res2.column("c_max")
        drop = (c[0] - c[1]) / c[0]
        _check("pair amplitude drop 27% +- 5pp", abs(drop - 0.27) <= 0.05,
               "drop=%.1f%%" % (100 * drop))


class TestCollapseScalingStudy:
    def test_peak_fit_quality(self, collapse_sweep):
        res, _ = collapse_sweep
        n = np.array(res.column("n"))
        c = np.array(res.column("c_max"))
        fit = fit_exponential(n, c, n_range=COLLAPSE_WINDOW)
        _check("peak decay linear fit r^2 >= 0.98", fit.r_squared >= 0.98,
               "r2=%.4f slope=%.4f usable=%d" % (fit.r_squared, fit.slope, fit.n_used))

    def test_residuals_outside_window(self, collapse_sweep):
        res, _ = collapse_sweep
        n = np.array(res.column("n"))
        c = np.array(res.column("c_max"))
        fit = fit_exponential(n, c, n_range=COLLAPSE_WINDOW)
        outside = ((n < COLLAPSE_WINDOW[0]) | (n > COLLAPSE_WINDOW[1])) & (c > 0)
        below = np.log(c[outside]) < fit.intercept + fit.slope * n[outside]
        _check("outside residuals below the fit", bool(np.all(below)),
               "below=%s at N=%s" % (below.tolist(), n[outside].tolist()))

    def test_collapse_time_exponent(self, collapse_sweep):
        res, _ = collapse_sweep
        n = np.array(res.column("n"))
        tc = np.array(res.column("tau_c"))
        ok = np.isfinite(tc) & (tc > 0)
        fit = fit_exponential(n[ok], tc[ok], n_range=COLLAPSE_WINDOW)
        alpha = -fit.slope
        _check("collapse exponent within 10% of 0.0838",
               abs(alpha - 0.0838) <= 0.1 * 0.0838,
               "alpha=%.4f rel=%.1f%%" % (alpha, 100 * abs(alpha - 0.0838) / 0.0838))

    def test_large_n_peak_negligible(self, collapse_sweep):
        res, _ = collapse_sweep
        n = np.array(res.column("n"))
        c = np.array(res.column("c_max"))
        val = c[n == 200][0]
        _check("peak at N=200 <= 1e-3", val <= 1e-3, "c_max(200)=%.3g" % val)

    def test_sweep_runtime(self, collapse_sweep):
        _, elapsed = collapse_sweep
        _check("collapse sweep runtime <= 5 min", elapsed <= 300.0,
               "elapsed=%.1fs" % elapsed)


class TestCornerGridStudy:
    def test_argmax_at_corner(self, corner_grid):
        am = corner_grid.meta["argmax"]
        within = abs(am[0] - 0.5) <= 0.02 + 1e-12 and abs(am[1] - 0.5) <= 0.02 + 1e-12
        _check("corner grid argmax at (1/2, 1/2)", within, "argmax=%s" % (am,))


class TestScaledCouplingStudy:
    def test_common_slope_value(self, scaled_sweep):
        fits = _slopes(scaled_sweep, (0.3, 0.4, 0.5), SCALED_WINDOW)
        mags = {e: -f.slope for e, f in fits.items()}
        ok = all(abs(m - 0.0177) <= 0.15 * 0.0177 for m in mags.values())
        _check("scaled slopes within 15% of 0.0177", ok,
               "slopes=%s" % {e: round(m, 4) for e, m in mags.items()})

    def test_slopes_pairwise_close(self, scaled_sweep):
        fits = _slopes(scaled_sweep, (0.3, 0.4, 0.5), SCALED_WINDOW)
        mags = np.array([-f.slope for f in fits.values()])
        spread = (mags.max() - mags.min()) / mags.mean()
        _check("scaled slopes pairwise within 5%", spread <= 0.05,
               "spread=%.1f%% slopes=%s" % (100 * spread, np.round(mags, 4)))

    def test_unscaled_regime_concave(self, scaled_sweep):
        eta, n, c = scaled_sweep
        ok = True
        detail = []
        for e in (0.0, 0.1, 0.25):
            m = (eta == e) & (c > 0) & (n >= SCALED_WINDOW[0])
            d2 = np.diff(np.log(c[m]), 2)
            ok = ok and bool(np.all(d2 <= 1e-9))
            detail.append("eta=%g max_d2=%.3g" % (e, d2.max()))
        _check("unscaled regime concave", ok, "; ".join(detail))


class TestLimitStudy:
    @pytest.mark.parametrize("eta", [0.1, 0.5])
    def test_distance_monotone(self, eta):
        res = limits_compare(eta, [100, 1000, 10000, 100000], 30.0, SPIN, SPIN,
                             kappa_c=0.2, bath=BATH)
        d = np.array(res.column("distance"))
        cl = np.array(res.column("concurrence_limit"))
        ok = bool(np.all(np.diff(d) < 0)) and bool(np.all(cl == 0.0))
        _check("limit approach monotone (eta=%g)" % eta, ok,
               "distances=%s" % np.array2string(d, precision=2))

    def test_limit_states_unentangled(self):
        t = np.linspace(0.0, 60.0, 25)
        cfg_s = CouplingConfig(kappa_c=0.2, eta=0.1, N=1000)
        cfg_l = CouplingConfig(kappa_c=0.2, eta=0.5, N=1000)
        cs = [concurrence(limit_state_small_eta(tk, SPIN, SPIN, cfg_s, bath=BATH)).value
              for tk in t]
        cl = [concurrence(limit_state_large_eta(tk, SPIN, SPIN, cfg_l, ENS, bath=BATH)).value
              for tk in t]
        ok = max(cs) == 0.0 and max(cl) == 0.0
        _check("limit states carry no entanglement", ok,
               "max small=%.3g large=%.3g" % (max(cs), max(cl)))


class TestOracleSuite:
    def test_phase_vs_quadrature(self):
        times = np.logspace(-3, 3, 100)
        got = phase_S(times, BATH)
        want = np.array([_phase_oracle(t, BATH) for t in times])
        worst = np.max(np.abs(got - want) / np.abs(want))
        _check("phase matches quadrature <= 1e-8", worst <= 1e-8, "worst=%.2e" % worst)

    def test_decay_vs_riemann(self):
        worst = 0.0
        for t in (0.5, 5.0, 20.0):
            h = BATH.k_c / 1_000_000
            w = (np.arange(1_000_000) + 0.5) * h
            ref = np.sum(w / np.tanh(0.5 * BATH.beta * w) * np.sin(0.5 * w * t) ** 2) * h
            worst = max(worst, abs(decay_Gamma(t, BATH) - ref) / ref)
        _check("decay matches riemann <= 1e-6", worst <= 1e-6, "worst=%.2e" % worst)

    def test_concurrence_vs_transpose_witness(self):
        rho0 = initial_two_qubit(SPIN, SPIN)
        total = checked = 0
        for N in (2, 4, 8, 16, 32):
            for kappa in (0.04, 0.2):
                cfg = CouplingConfig(kappa_c=kappa, N=N)
                t_max = 2.0 * math.pi / (kappa**2 * BATH.nu_c)
                grid = dephasing_grid(np.linspace(0.0, t_max, 1000), BATH)
                rhos = evolve_series(rho0, grid, cfg, ENS)
                cs = concurrence_series(rhos)
                for rho, c in zip(rhos, cs):
                    total += 1
                    if c > 1e-9:
                        assert ppt_negative(rho)
                        checked += 1
                    elif c == 0.0:
                        assert not ppt_negative(rho)
                        checked += 1
        _check("witness sign agreement on 1e4 states", total == 10000,
               "states=%d decided=%d" % (total, checked))

    def test_xstate_closed_form(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            p1, p2 = rng.uniform(0, 1, 2)
            v1 = math.sqrt(p1 * (1 - p1)) * rng.uniform(0, 1)
            v2 = math.sqrt(p2 * (1 - p2)) * rng.uniform(0, 1)
            g = rng.uniform(0.0, 0.4)
            rho = np.diag([p1 * p2, p1 * (1 - p2), (1 - p1) * p2,
                           (1 - p1) * (1 - p2)]).astype(complex)
            rho[1, 2] = v1 * v2 * math.exp(-2 * g)
            rho[2, 1] = rho[1, 2]
            got = x_state_concurrence(p1, p2, v1, v2, gamma_l=g)
            want = concurrence(rho).value
            worst = max(worst, abs(got - want))
        _check("x-state closed form <= 1e-12", worst <= 1e-12, "worst=%.2e" % worst)

    def test_population_conservation(self):
        rho0 = initial_two_qubit(SPIN, SPIN)
        exact = True
        for N in (2, 7, 40):
            cfg = CouplingConfig(kappa_c=0.3, kappa_l=0.2, N=N)
            grid = dephasing_grid(np.linspace(0.0, 50.0, 500), BATH)
            rhos = evolve_series(rho0, grid, cfg, ENS)
            diag = np.diagonal(rhos, axis1=-2, axis2=-1)
            exact = exact and bool(np.all(diag == np.diag(rho0)))
        _check("populations exactly conserved", exact, "bitwise equality")


class TestDeterminism:
    def _cli(self, tmp_path, threads, name, argv):
        outdir = tmp_path / ("threads-%s-%s" % (threads, name))
        outdir.mkdir()
        # the child runs in outdir, so a relative PYTHONPATH (such as src)
        # would miss the package; point it at the one imported here
        pkg_root = os.path.dirname(os.path.dirname(dephasim.__file__))
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")
        # the sweeps split their points across processes, not threads, so
        # OpenBLAS's pool is the only thread count the program sees
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        cmd = [sys.executable, "-m", "dephasim.cli"] + argv + ["--output", "out.csv"]
        proc = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True)
        assert proc.returncode == 0, "%s exited %d:\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr.decode(errors="replace"))
        return (outdir / "out.csv").read_bytes()

    def test_thread_count_invariant(self, tmp_path):
        sweeps = {
            "kappa": ["sweep-kappa", "--n", "4", "--tau-max", "1.0", "--steps", "500"],
            "eta": ["sweep-eta", "--eta-values", "0.0,0.4", "--n-min", "4",
                    "--n-max", "12", "--n-step", "4", "--tau-max", "1.0",
                    "--steps", "500"],
            # eta = 0: every N shares one grid resolved for the largest N
            "n": ["sweep-n", "--eta", "0", "--n-min", "2", "--n-max", "12",
                  "--tau-max", "1.0", "--steps", "500"],
            "grid": ["grid-pv", "--mode", "dynamic-corner", "--grid-points", "3",
                     "--steps", "200", "--n", "8"],
        }
        ok = True
        for name, argv in sweeps.items():
            one = self._cli(tmp_path, "1", name, argv)
            eight = self._cli(tmp_path, "8", name, argv)
            ok = ok and one == eight
        _check("outputs byte-identical for 1 vs 8 BLAS threads", ok,
               "%d sweeps compared" % len(sweeps))
