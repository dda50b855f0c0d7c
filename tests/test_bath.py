"""Oracle and property tests for the reservoir integrals."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from dephasim import bath as bath_module
from dephasim import (
    BathConfig,
    QuadratureError,
    ValidationError,
    decay_Gamma,
    dephasing_grid,
    gamma_saturation,
    phase_S,
)
from oracle import _phase_oracle


def _gamma_riemann(t, bath, panels):
    # midpoint rule; the w -> 0 limit of the integrand is regular
    h = bath.k_c / panels
    w = (np.arange(panels) + 0.5) * h
    f = w / np.tanh(0.5 * bath.beta * w) * np.sin(0.5 * w * t) ** 2
    return float(np.sum(f) * h)


def _gamma_gauss(t, bath):
    # composite 20-node Gauss-Legendre on the whole w coth(beta w/2)
    # sin^2(wt/2): panels no wider than half a period of sin^2, 2/beta or
    # k_c/8, and a sum of positive terms
    width = min(math.pi / t, 2.0 / bath.beta, bath.k_c / 8.0)
    panels = int(math.ceil(bath.k_c / width))
    x, weights = special.roots_legendre(20)
    half = 0.5 * bath.k_c / panels
    w = ((np.arange(panels) + 0.5) * (2.0 * half))[:, None] + half * x
    f = w / np.tanh(0.5 * bath.beta * w) * np.sin(0.5 * w * t) ** 2
    return float(half * np.sum(f @ weights))


class TestPhase:
    def test_zero_time(self):
        assert phase_S(0.0, BathConfig()) == 0.0

    def test_nonpositive(self):
        bath = BathConfig()
        t = np.linspace(0.0, 50.0, 301)
        assert np.all(phase_S(t, bath) <= 0.0)

    def test_vs_quadrature_oracle(self):
        bath = BathConfig()
        times = np.logspace(-3, 3, 100)
        got = phase_S(times, bath)
        want = np.array([_phase_oracle(t, bath) for t in times])
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_vs_quadrature_oracle_other_cutoff(self):
        bath = BathConfig(epsilon=0.5, theta=4.0)
        assert bath.k_c == pytest.approx(2.0)
        times = np.logspace(-2, 2, 40)
        got = phase_S(times, bath)
        want = np.array([_phase_oracle(t, bath) for t in times])
        np.testing.assert_allclose(got, want, rtol=1e-8)

    @pytest.mark.parametrize("k_c", [0.5, 1.0, 2.0])
    def test_large_time_slope(self, k_c):
        bath = BathConfig(epsilon=k_c, theta=1.0)
        t = 1e5
        assert phase_S(t, bath) / t == pytest.approx(-k_c**3 / 6.0, abs=1e-8)

    def test_series_branch_continuity(self):
        # the series/direct switch sits at k_c t = 0.5
        bath = BathConfig()
        t = np.linspace(0.45, 0.55, 21)
        s = phase_S(t, bath)
        assert np.all(np.diff(s) < 0.0)
        want = np.array([_phase_oracle(x, bath) for x in t])
        np.testing.assert_allclose(s, want, rtol=1e-8)

    def test_vector_matches_scalar(self):
        bath = BathConfig()
        t = np.array([0.0, 1e-3, 0.7, 12.0, 3e3])
        vec = phase_S(t, bath)
        for ti, si in zip(t, vec):
            assert phase_S(float(ti), bath) == si

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            phase_S(-1.0, BathConfig())

    def test_depends_only_on_cutoff(self):
        # theta and epsilon enter S only through k_c = epsilon * theta
        t = np.linspace(0.0, 20.0, 50)
        a = phase_S(t, BathConfig(epsilon=1.0, theta=1.0))
        b = phase_S(t, BathConfig(epsilon=2.0, theta=0.5))
        np.testing.assert_array_equal(a, b)


class TestDecay:
    def test_zero_time(self):
        assert decay_Gamma(0.0, BathConfig()) == 0.0

    @pytest.mark.parametrize("t", [0.5, 5.0, 20.0])
    def test_vs_riemann_oracle(self, t):
        bath = BathConfig()
        want = _gamma_riemann(t, bath, 1_000_000)
        assert decay_Gamma(t, bath) == pytest.approx(want, rel=1e-6)

    def test_riemann_refinement_converges(self):
        bath = BathConfig()
        got = decay_Gamma(5.0, bath)
        errs = [abs(got - _gamma_riemann(5.0, bath, p)) for p in (10**3, 10**4, 10**5)]
        assert errs[0] > errs[1] > errs[2]

    def test_nonnegative(self):
        bath = BathConfig()
        t = np.linspace(0.0, 100.0, 401)
        assert np.all(decay_Gamma(t, bath) >= 0.0)

    def test_saturation_value(self):
        bath = BathConfig()
        want, _ = integrate.quad(
            lambda w: 0.5 * w / math.tanh(0.5 * bath.beta * w), 0.0, bath.k_c,
            epsabs=1e-14, epsrel=1e-12,
        )
        assert gamma_saturation(bath) == pytest.approx(want, rel=1e-10)

    def test_overshoot_and_saturation(self):
        # hard cutoff: Gamma rings around its limit with a sin(k_c t)/t tail
        bath = BathConfig()
        sat = gamma_saturation(bath)
        t = np.linspace(1.0, 60.0, 240)
        g = decay_Gamma(t, bath)
        assert g.max() > sat
        tail = decay_Gamma(np.array([300.0, 500.0, 1000.0]), bath)
        assert np.all(np.abs(tail - sat) < 1.2 / 300.0)

    def test_branch_crossover_consistency(self):
        # k_c t = 50 was where an earlier adaptive rule switched branches
        bath = BathConfig()
        for t in (49.0, 51.0):
            want = _gamma_riemann(t, bath, 1_000_000)
            assert decay_Gamma(t, bath) == pytest.approx(want, rel=1e-6)

    def test_larger_cutoff(self):
        bath = BathConfig(epsilon=2.0, theta=1.0)
        for t in (0.7, 9.0):
            want = _gamma_riemann(t, bath, 1_000_000)
            assert decay_Gamma(t, bath) == pytest.approx(want, rel=1e-6)

    def test_series_switch(self):
        # the Gauss rule covers h = k_c t/2 < K, the Legendre series h >= K
        bath = BathConfig()
        t_k = 2.0 * bath_module._TERMS / bath.k_c
        below, at = decay_Gamma(np.array([np.nextafter(t_k, 0.0), t_k]), bath)
        assert at == pytest.approx(below, rel=1e-13)
        for t in (0.999 * t_k, 1.001 * t_k):
            want = _gamma_riemann(t, bath, 1_000_000)
            assert decay_Gamma(t, bath) == pytest.approx(want, rel=1e-6)

    def test_large_cutoff_vs_gauss_oracle(self):
        # epsilon = 1e3: the Bose part is cut at beta w = 40, so its series
        # switches at t = 2.4 and the linear part's at t = 0.096
        bath = BathConfig(epsilon=1e3, theta=1.0)
        times = np.logspace(-6, 2, 17)
        want = np.array([_gamma_gauss(t, bath) for t in times])
        np.testing.assert_allclose(decay_Gamma(times, bath), want, rtol=1e-13)
        sat = 0.5 * (bath.k_c**2 / 2.0 + math.pi**2 / (3.0 * bath.beta**2))
        assert gamma_saturation(bath) == pytest.approx(sat, rel=1e-13)

    def test_tail_guard(self, monkeypatch):
        # eight terms cannot represent the Bose part up to beta w = 40
        x, w = np.polynomial.legendre.leggauss(16)
        monkeypatch.setattr(bath_module, "_RULE", (x, w))
        monkeypatch.setattr(bath_module, "_VANDER", np.polynomial.legendre.legvander(x, 7))
        with pytest.raises(QuadratureError):
            decay_Gamma(np.array([0.1, 10.0]), BathConfig(epsilon=100.0))


class TestGaussRule:
    def test_matches_leggauss(self):
        x, w = bath_module._RULE
        x_ref, w_ref = np.polynomial.legendre.leggauss(2 * bath_module._TERMS)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=2e-12)

    def test_discrete_orthogonality(self):
        # sum_i w_i P_j(x_i) P_k(x_i) = 2 delta_jk/(2j + 1) while j + k < 2n
        x, w = bath_module._RULE
        top = 2 * x.size - 1
        V = np.polynomial.legendre.legvander(x, top)
        gram = V.T @ (w[:, None] * V)
        j = np.arange(top + 1)
        exact = (j[:, None] + j[None, :]) <= top
        want = np.diag(2.0 / (2 * j + 1))
        np.testing.assert_allclose(gram[exact], want[exact], rtol=0.0, atol=1e-14)


class TestLinearPart:
    @staticmethod
    def _oracle(x, L):
        # int_0^L w sin^2(w t/2) dw at t = x/L, scaled to g(x) = 2 I/L^2
        t = x / L
        val, _ = integrate.quad(
            lambda w: w * math.sin(0.5 * w * t) ** 2, 0.0, L, epsabs=0.0, epsrel=1e-13, limit=500
        )
        return 2.0 * val / (L * L)

    @pytest.mark.parametrize("L", [1.0, 40.0])
    def test_vs_quadrature_oracle(self, L):
        switch = bath_module._LINEAR_SERIES_X
        x = np.array([1e-6, 1e-3, 0.1, 1.0, 0.999 * switch, 1.001 * switch, 3.0, 10.0, 1e3])
        want = np.array([self._oracle(v, L) for v in x])
        np.testing.assert_allclose(bath_module._linear_part(x), want, rtol=1e-14)

    def test_series_switch(self):
        switch = bath_module._LINEAR_SERIES_X
        below, at = bath_module._linear_part(np.array([np.nextafter(switch, 0.0), switch]))
        assert at == pytest.approx(below, rel=1e-15)


class TestGrid:
    def test_matches_pointwise(self):
        bath = BathConfig()
        t = np.linspace(0.0, 30.0, 31)
        grid = dephasing_grid(t, bath)
        np.testing.assert_array_equal(grid.S, phase_S(t, bath))
        np.testing.assert_array_equal(grid.Gamma, decay_Gamma(t, bath))

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            dephasing_grid(np.array([0.0, 2.0, 1.0]), BathConfig())

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            dephasing_grid(np.array([-1.0, 0.0]), BathConfig())

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            dephasing_grid(np.zeros((2, 2)), BathConfig())


class TestNonFiniteTime:
    @pytest.mark.parametrize("func", [phase_S, decay_Gamma, dephasing_grid])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejected_before_evaluation(self, func, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                func(np.array([0.0, 1.0, bad]), BathConfig())
            if func is not dephasing_grid:
                with pytest.raises(ValidationError, match="finite"):
                    func(bad, BathConfig())


class TestNonNumericTime:
    @pytest.mark.parametrize("func", [phase_S, decay_Gamma])
    @pytest.mark.parametrize("t", ["x", [0.0, "x"], [[0.0], [1.0, 2.0]], 10**400])
    def test_rejected_as_validation(self, func, t):
        with pytest.raises(ValidationError, match="requires finite t >= 0"):
            func(t, BathConfig())

    @pytest.mark.parametrize("times", [["x"], [0, 10**400]], ids=["str", "huge-int"])
    def test_dephasing_grid_rejects_as_validation(self, times):
        with pytest.raises(ValidationError, match="^dephasing_grid requires finite t >= 0"):
            dephasing_grid(times, BathConfig())


class TestHugeTime:
    # k_c t = 1e280: the squares in the direct branches overflow to inf, and
    # the quotients they divide go to their limit 0 without a warning
    def test_phase_is_its_linear_limit(self):
        bath = BathConfig(epsilon=1e-20)
        x = bath.k_c * 1e300
        assert phase_S(1e300, bath) == -(bath.k_c**2) * x / 6.0
        np.testing.assert_array_equal(phase_S(np.array([1e300]), bath), [phase_S(1e300, bath)])

    def test_gamma_is_its_saturation(self):
        bath = BathConfig(epsilon=1e-20)
        assert decay_Gamma(1e300, bath) == pytest.approx(gamma_saturation(bath), rel=1e-14)


class TestOverflowingInput:
    # the input is finite, but k_c t or S(t) is not a float; a RuntimeWarning
    # fails the test (pyproject.toml)
    @pytest.mark.parametrize("func, t, epsilon", [
        (phase_S, 1e300, 1e10),
        (decay_Gamma, 1e300, 1e10),
        (dephasing_grid, np.array([0.0, 1e300]), 1e10),
        # k_c t = 1e250 is finite, and only S = -k_c^3 t / 6 overflows
        (phase_S, 1e150, 1e100),
        (phase_S, np.array([0.0, 1.0, 1e150]), 1e100),
    ])
    def test_rejected_as_validation(self, func, t, epsilon):
        with pytest.raises(ValidationError, match="overflows"):
            func(t, BathConfig(epsilon=epsilon))

    def test_largest_finite_phase_is_kept(self):
        # k_c^3 t / 6 just inside the float range
        bath = BathConfig(epsilon=1e100)
        assert phase_S(1e8, bath) == pytest.approx(-1e308 / 6.0, rel=1e-15)


class TestConfig:
    def test_derived_cutoff(self):
        bath = BathConfig(epsilon=2.0, theta=3.0)
        assert bath.k_c == pytest.approx(6.0)
        assert bath.beta == pytest.approx(1.0 / 3.0)
        assert bath.nu_c == pytest.approx(6.0 / (2.0 * math.pi))

    @pytest.mark.parametrize("field, value", [
        ("epsilon", "1"), ("theta", "1"), ("epsilon", None), ("theta", 1j),
    ])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(ValidationError, match="^%s must be a" % field):
            BathConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, match", [
        ({"epsilon": 10**400}, "^epsilon must be positive and finite"),
        ({"theta": 10**400}, "^theta must be positive and finite"),
        # each is a float, but k_c is an int too large for one
        ({"epsilon": 10**200, "theta": 10**200}, "^k_c = epsilon\\*theta must be positive"),
        ({"epsilon": 10**160}, "^k_c\\^2"),
    ])
    def test_rejects_ints_too_large_for_a_float(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            BathConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        assert BathConfig(epsilon=np.int64(2), theta=np.float32(3.0)).k_c == 6.0

    def test_replace_moves_cutoff(self):
        # k_c is derived, so replacing epsilon or theta cannot leave it stale
        assert dataclasses.replace(BathConfig(), epsilon=2.0).k_c == 2.0
        assert dataclasses.replace(BathConfig(epsilon=2.0), theta=3.0).k_c == 6.0
        with pytest.raises(TypeError):
            BathConfig(k_c=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"theta": 0.0},
        {"theta": -2.0},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"theta": math.nan},
        {"theta": math.inf},
        {"epsilon": 1e200, "theta": 1e200},
        # k_c is finite, but phase_S squares it
        {"theta": 1e200},
        {"epsilon": 1e300},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValidationError):
            BathConfig(**kwargs)
