"""Tests for the closed-form two-qubit evolution and its limits."""

import cmath
from dataclasses import replace
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import optimize

from dephasim import (
    BathConfig,
    CouplingConfig,
    EnsembleConfig,
    SpinInit,
    ValidationError,
    background_factor,
    concurrence_series,
    decay_Gamma,
    dephasing_grid,
    evolve,
    evolve_series,
    initial_two_qubit,
    limit_state_large_eta,
    limit_state_small_eta,
    phase_S,
    t_of_tau,
    tau_of_t,
    validate_two_qubit,
)


def _slow_state(t, S, G, cfg, ens, frame):
    """Scalar entrywise construction of rho_t, retyped independently."""
    k2 = cfg.effective_kappa_c**2
    kl2 = cfg.kappa_l**2
    ps = ens.background_array(cfg.N)
    P = 1.0 + 0.0j
    Pt = 1.0 + 0.0j
    for pj in ps:
        P *= pj * cmath.exp(1j * k2 * S) + (1.0 - pj) * cmath.exp(-1j * k2 * S)
        Pt *= pj * cmath.exp(2j * k2 * S) + (1.0 - pj) * cmath.exp(-2j * k2 * S)
    rho0 = initial_two_qubit(ens.spin1, ens.spin2)
    ph = cmath.exp(1j * k2 * S)
    dl = math.exp(-kl2 * G)
    dc = math.exp(-k2 * G)
    rho = np.array(rho0, dtype=complex)
    rho[0, 1] *= ph * dl * dc * P
    rho[0, 2] *= ph * dl * dc * P
    rho[0, 3] *= dl**2 * dc**4 * Pt
    rho[1, 2] *= dl**2
    rho[1, 3] *= ph.conjugate() * dl * dc * P
    rho[2, 3] *= ph.conjugate() * dl * dc * P
    if frame == "lab":
        w1, w2 = ens.omega1, ens.omega2
        rho[0, 1] *= cmath.exp(1j * w2 * t)
        rho[0, 2] *= cmath.exp(1j * w1 * t)
        rho[0, 3] *= cmath.exp(1j * (w1 + w2) * t)
        rho[1, 2] *= cmath.exp(1j * (w1 - w2) * t)
        rho[1, 3] *= cmath.exp(1j * w1 * t)
        rho[2, 3] *= cmath.exp(1j * w2 * t)
    iu = np.triu_indices(4, k=1)
    rho[iu[1], iu[0]] = rho[iu[0], iu[1]].conj()
    return rho


def _full_system_state(spins, S, G, cfg):
    """Reduced state of spins 1 and 2 from the exact 2^N dephasing dynamics.

    The N spin product state is built in full, background coherences
    included.  Element (m, n) of the joint density matrix is multiplied by

        exp(i k^2 S (M_m^2 - M_n^2) - k^2 G (M_m - M_n)^2
            - kl^2 G sum_j (s_j^m - s_j^n)^2),

    with s_j = +-1/2 the z projections, M their sum, k = kappa_c / N^eta
    and kl = kappa_l; the other N - 2 spins are then traced out.
    """
    N = len(spins)
    k2 = cfg.effective_kappa_c**2
    kl2 = cfg.kappa_l**2
    rho = np.ones((1, 1), dtype=complex)
    for s in spins:
        rho = np.kron(rho, s.matrix())
    # basis index bit j (most significant first) is 0 for s_j = +1/2
    bits = (np.arange(2**N)[:, None] >> np.arange(N - 1, -1, -1)[None, :]) & 1
    s = 0.5 - bits
    M = s.sum(axis=1)
    dM = M[:, None] - M[None, :]
    flips = ((s[:, None, :] - s[None, :, :]) ** 2).sum(axis=-1)
    rho = rho * np.exp(
        1j * k2 * S * (M[:, None] ** 2 - M[None, :] ** 2) - k2 * G * dM**2 - kl2 * G * flips
    )
    rest = 2 ** (N - 2)
    return np.trace(rho.reshape(4, rest, 4, rest), axis1=1, axis2=3)


class TestFullSystemOracle:
    """The closed form against the full N spin dynamics, traced by brute force."""

    BACKGROUND = [
        SpinInit(p=0.2, v=0.3 * cmath.exp(0.4j)),
        SpinInit(p=0.7, v=-0.25j),
        SpinInit(p=0.45, v=0.1 + 0.2j),
    ]

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.4])
    @pytest.mark.parametrize("kappa_l", [0.0, 0.3])
    def test_matches_partial_trace(self, N, eta, kappa_l):
        bath = BathConfig()
        s1 = SpinInit(p=0.55, v=0.4 - 0.1j)
        s2 = SpinInit(p=0.35, v=0.3j)
        background = self.BACKGROUND[: N - 2]
        ens = EnsembleConfig(
            spin1=s1, spin2=s2,
            background_p=[b.p for b in background] if background else 0.5,
        )
        cfg = CouplingConfig(kappa_c=0.6, kappa_l=kappa_l, eta=eta, N=N)
        rho0 = initial_two_qubit(s1, s2)
        t = np.array([0.0, 0.7, 3.1, 12.5])
        grid = dephasing_grid(t, bath)
        series = evolve_series(rho0, grid, cfg, ens)
        for k, tk in enumerate(t):
            want = _full_system_state([s1, s2] + background, grid.S[k], grid.Gamma[k], cfg)
            np.testing.assert_allclose(series[k], want, rtol=0, atol=1e-13)
            got = evolve(rho0, tk, cfg, ens, bath=bath)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestSpinInit:
    def test_matrix(self):
        m = SpinInit(p=0.3, v=0.2 + 0.1j).matrix()
        np.testing.assert_allclose(
            m, [[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]], atol=0.0
        )

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_population_bounds(self, p):
        with pytest.raises(ValidationError):
            SpinInit(p=p)

    def test_coherence_bound(self):
        SpinInit(p=0.5, v=0.5)
        with pytest.raises(ValidationError):
            SpinInit(p=0.5, v=0.51)
        with pytest.raises(ValidationError):
            SpinInit(p=0.1, v=0.4)

    @pytest.mark.parametrize(
        "v", [math.nan, math.inf, -math.inf, complex(0.1, math.nan), complex(math.inf, 0.0)]
    )
    def test_non_finite_coherence(self, v):
        with pytest.raises(ValidationError, match="finite"):
            SpinInit(p=0.5, v=v)

    @pytest.mark.parametrize("kwargs, field", [
        ({"p": "0.5"}, "p"),
        ({"p": 0.5 + 0j}, "p"),
        ({"p": None}, "p"),
        ({"p": 0.5, "v": "0.1"}, "coherence v"),
        ({"p": 0.5, "v": None}, "coherence v"),
    ])
    def test_rejects_non_numbers(self, kwargs, field):
        with pytest.raises(ValidationError, match="^%s must be a" % field):
            SpinInit(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"p": 10**400}, r"^p must be in \[0, 1\]"),
        ({"p": 0.5, "v": 10**400}, r"^coherence \|v\| must be finite"),
        ({"p": 0.5, "v": complex(1.5e308, 1.5e308)}, r"^coherence \|v\| must be finite"),
        ({"p": 0.5, "v": 1e200}, r"^\|v\|\^2 <= p\(1-p\) violated"),
    ])
    def test_rejects_numbers_too_large_for_a_float(self, kwargs, match):
        # abs() of the complex and the square of 1e200 raise OverflowError
        with pytest.raises(ValidationError, match=match):
            SpinInit(**kwargs)

    def test_numpy_numbers_accepted(self):
        spin = SpinInit(p=np.float32(0.5), v=np.complex64(0.25j))
        assert spin.matrix()[0, 1] == 0.25j
        assert SpinInit(p=1, v=np.int64(0)).matrix()[1, 1] == 0.0

    def test_initial_product(self):
        s1 = SpinInit(p=0.5, v=0.48)
        s2 = SpinInit(p=0.3, v=0.1j)
        rho = initial_two_qubit(s1, s2)
        want = np.kron(s1.matrix(), s2.matrix())
        np.testing.assert_array_equal(rho, want)
        assert rho[1, 2] == s1.v * np.conj(s2.v)
        assert np.trace(rho) == pytest.approx(1.0)


class TestBackground:
    def test_two_spins_trivial(self):
        cfg = CouplingConfig(kappa_c=0.3, N=2)
        ens = EnsembleConfig(spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5))
        t = np.linspace(0.0, 10.0, 7)
        np.testing.assert_array_equal(background_factor(t, cfg, ens), np.ones(7))

    def test_empty_background_at_two_spins(self):
        cfg = CouplingConfig(kappa_c=0.3, N=2)
        ens = EnsembleConfig(spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=[])
        assert ens.homogeneous_background is True
        t = np.linspace(0.0, 10.0, 7)
        np.testing.assert_array_equal(background_factor(t, cfg, ens), np.ones(7))

    def test_zero_coupling_is_one(self):
        cfg = CouplingConfig(kappa_c=0.0, N=50)
        ens = EnsembleConfig(spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5))
        t = np.linspace(0.0, 10.0, 7)
        np.testing.assert_array_equal(background_factor(t, cfg, ens), np.ones(7))

    def test_closed_form_vs_direct_product(self):
        # homogeneous closed form against the literal product
        bath = BathConfig()
        t = np.linspace(0.0, 40.0, 97)
        S = phase_S(t, bath)
        for N, p in ((5, 0.5), (40, 0.5), (200, 0.3), (501, 0.9)):
            cfg = CouplingConfig(kappa_c=0.3, N=N)
            ens = EnsembleConfig(
                spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=p
            )
            got = background_factor(t, cfg, ens, bath=bath)
            a = cfg.effective_kappa_c**2 * S
            want = (p * np.exp(1j * a) + (1 - p) * np.exp(-1j * a)) ** (N - 2)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "ps",
        [
            np.random.default_rng(7).uniform(0.0, 1.0, size=23),
            # repeated populations and both endpoints
            [0.2, 0.2, 0.7, 0.7, 0.7, 0.0, 1.0],
        ],
        ids=["distinct", "repeats"],
    )
    def test_heterogeneous_vs_direct_product(self, ps):
        bath = BathConfig()
        t = np.linspace(0.0, 20.0, 41)
        S = phase_S(t, bath)
        cfg = CouplingConfig(kappa_c=0.4, N=len(ps) + 2)
        ens = EnsembleConfig(
            spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=ps
        )
        got = background_factor(t, cfg, ens, bath=bath)
        a = cfg.effective_kappa_c**2 * S
        want = np.ones_like(t, dtype=complex)
        for pj in ps:
            want *= pj * np.exp(1j * a) + (1 - pj) * np.exp(-1j * a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_polarized_background_pure_phase(self):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.5, N=12)
        ens = EnsembleConfig(
            spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=1.0
        )
        t = np.linspace(0.0, 15.0, 31)
        got = background_factor(t, cfg, ens, bath=bath)
        a = cfg.effective_kappa_c**2 * phase_S(t, bath)
        np.testing.assert_allclose(got, np.exp(1j * 10 * a), atol=1e-14)
        np.testing.assert_allclose(np.abs(got), 1.0, atol=1e-14)

    def test_unbiased_background_zero_at_quarter_period(self):
        # p = 1/2 gives cos(a)^(N-2), which vanishes where a = pi/2
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=1.0, N=42)
        ens = EnsembleConfig(spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5))
        t_star = optimize.brentq(
            lambda t: phase_S(t, bath) + math.pi / 2.0, 1.0, 20.0
        )
        got = background_factor(np.array([t_star]), cfg, ens, bath=bath)
        assert abs(got[0]) < 1e-14

    def test_modulus_bounds(self):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.3, N=30)
        for p in (0.2, 0.5, 0.8):
            ens = EnsembleConfig(
                spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=p
            )
            t = np.linspace(0.0, 60.0, 301)
            mod = np.abs(background_factor(t, cfg, ens, bath=bath))
            assert np.all(mod <= 1.0 + 1e-12)
            assert np.all(mod >= abs(2 * p - 1) ** 28 - 1e-12)

    @pytest.mark.parametrize(
        "background_p", [math.nan, math.inf, -math.inf, [0.5, math.nan], np.array([math.inf, 0.2])]
    )
    def test_non_finite_background(self, background_p):
        with pytest.raises(ValidationError, match="finite"):
            EnsembleConfig(spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5), background_p=background_p)

    def test_background_length_mismatch(self):
        ens = EnsembleConfig(
            spin1=SpinInit(p=0.5), spin2=SpinInit(p=0.5),
            background_p=np.array([0.1, 0.9]),
        )
        with pytest.raises(ValidationError):
            ens.background_array(5)


class TestEvolve:
    def _setup(self, N=6, kappa_c=0.2, kappa_l=0.15, eta=0.0, p_bg=0.4,
               omega1=0.0, omega2=0.0):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=kappa_c, kappa_l=kappa_l, eta=eta, N=N)
        ens = EnsembleConfig(
            spin1=SpinInit(p=0.55, v=0.4), spin2=SpinInit(p=0.35, v=0.3j),
            background_p=p_bg, omega1=omega1, omega2=omega2,
        )
        return bath, cfg, ens

    def test_identity_at_zero(self):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        rho = evolve(rho0, 0.0, cfg, ens, bath=bath)
        np.testing.assert_array_equal(rho, rho0)

    @pytest.mark.parametrize("frame", ["interaction", "lab"])
    def test_matches_scalar_construction(self, frame):
        bath, cfg, ens = self._setup(omega1=1.0, omega2=0.7)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.array([0.0, 0.3, 2.0, 7.7, 31.0])
        grid = dephasing_grid(t, bath)
        got = evolve_series(rho0, grid, cfg, ens, frame=frame)
        for k, tk in enumerate(t):
            want = _slow_state(tk, grid.S[k], grid.Gamma[k], cfg, ens, frame)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-14)

    def test_populations_exactly_constant(self):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.linspace(0.0, 40.0, 101)
        rhos = evolve_series(rho0, dephasing_grid(t, bath), cfg, ens)
        diag = np.diagonal(rhos, axis1=-2, axis2=-1)
        np.testing.assert_array_equal(diag, np.broadcast_to(np.diag(rho0), diag.shape))

    def test_states_remain_physical(self):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.linspace(0.0, 40.0, 101)
        for rho in evolve_series(rho0, dephasing_grid(t, bath), cfg, ens):
            validate_two_qubit(rho)

    def test_protected_coherence(self):
        # the (2,3) element sees only the local reservoirs
        bath, cfg, ens = self._setup(kappa_l=0.3)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.linspace(0.0, 20.0, 41)
        rhos = evolve_series(rho0, dephasing_grid(t, bath), cfg, ens)
        want = rho0[1, 2] * np.exp(-2 * cfg.kappa_l**2 * decay_Gamma(t, bath))
        np.testing.assert_allclose(rhos[:, 1, 2], want, rtol=0, atol=1e-15)

    def test_protected_coherence_constant_without_local(self):
        bath, cfg, ens = self._setup(kappa_l=0.0)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.linspace(0.0, 20.0, 41)
        rhos = evolve_series(rho0, dephasing_grid(t, bath), cfg, ens)
        np.testing.assert_array_equal(
            rhos[:, 1, 2], np.full(41, rho0[1, 2])
        )

    def test_concurrence_frame_independent(self):
        bath, cfg, ens = self._setup(omega1=1.3, omega2=0.6)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        grid = dephasing_grid(np.linspace(0.0, 25.0, 60), bath)
        c_int = concurrence_series(evolve_series(rho0, grid, cfg, ens, frame="interaction"))
        c_lab = concurrence_series(evolve_series(rho0, grid, cfg, ens, frame="lab"))
        np.testing.assert_allclose(c_int, c_lab, atol=1e-12)

    def test_lab_frame_phases(self):
        bath, cfg, ens = self._setup(omega1=1.3, omega2=0.6)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        t = np.array([0.0, 1.0, 5.0])
        grid = dephasing_grid(t, bath)
        r_int = evolve_series(rho0, grid, cfg, ens, frame="interaction")
        r_lab = evolve_series(rho0, grid, cfg, ens, frame="lab")
        np.testing.assert_allclose(
            r_lab[:, 1, 2], r_int[:, 1, 2] * np.exp(1j * (1.3 - 0.6) * t), atol=1e-15
        )
        np.testing.assert_allclose(
            r_lab[:, 0, 3], r_int[:, 0, 3] * np.exp(1j * (1.3 + 0.6) * t), atol=1e-15
        )

    @pytest.mark.parametrize("omega1, omega2", [
        (math.nan, 0.0), (0.0, math.inf), (1e308, 1e308), (-1e308, 1e308), (np.float64(1e308), 1e308),
    ])
    def test_non_finite_frequencies_rejected(self, omega1, omega2):
        # a RuntimeWarning fails the test (pyproject.toml)
        with pytest.raises(ValidationError, match="finite"):
            self._setup(omega1=omega1, omega2=omega2)

    @pytest.mark.parametrize("t", [1e10, 1e300])
    def test_non_finite_lab_phase_rejected(self, t):
        bath, cfg, ens = self._setup(omega1=1e300, omega2=0.5)
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        with pytest.raises(ValidationError, match="finite"):
            evolve(rho0, t, cfg, ens, bath=bath, frame="lab")
        # the interaction frame has no free phases
        evolve(rho0, t, cfg, ens, bath=bath)

    @pytest.mark.parametrize("kwargs, field", [
        ({"omega1": "1.5"}, "omega1"),
        ({"omega1": 1j}, "omega1"),
        ({"omega2": None}, "omega2"),
        ({"background_p": "x"}, "background_p"),
        ({"background_p": "0.5"}, "background_p"),
        ({"background_p": [0.5, "0.2"]}, "background_p"),
        ({"background_p": [[0.5], [0.2, 0.3]]}, "background_p"),
    ])
    def test_ensemble_rejects_non_numbers(self, kwargs, field):
        spin = SpinInit(p=0.5)
        with pytest.raises(ValidationError, match="^%s must be a" % field):
            EnsembleConfig(spin, spin, **kwargs)

    @pytest.mark.parametrize("field", ["omega1", "omega2"])
    def test_ensemble_rejects_int_too_large_for_a_float(self, field):
        spin = SpinInit(p=0.5)
        with pytest.raises(ValidationError, match="^%s must be finite" % field):
            EnsembleConfig(spin, spin, **{field: 10**400})

    @pytest.mark.parametrize("spins, field", [
        ((None, SpinInit(p=0.5)), "spin1"),
        ((SpinInit(p=0.5), 0.5), "spin2"),
        ((SpinInit(p=0.5), (0.5, 0.0)), "spin2"),
    ])
    def test_ensemble_rejects_non_spins(self, spins, field):
        with pytest.raises(ValidationError, match="^%s must be a SpinInit" % field):
            EnsembleConfig(*spins)

    def test_frequencies_stored_as_floats(self):
        spin = SpinInit(p=0.5)
        ens = EnsembleConfig(spin, spin, background_p=np.float32(0.25),
                             omega1=np.float64(1.5), omega2=2)
        assert (ens.omega1, ens.omega2) == (1.5, 2.0)
        assert type(ens.omega1) is float and type(ens.omega2) is float
        np.testing.assert_array_equal(ens.background_array(4), [0.25, 0.25])

    def test_negative_time_rejected(self):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        with pytest.raises(ValidationError, match="t >= 0"):
            evolve(rho0, -1.0, cfg, ens, bath=bath)

    @pytest.mark.parametrize("t", ["x", None, 1j, 10**400, math.nan, np.array([1.0, 2.0])])
    def test_malformed_time_rejected(self, t):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        with pytest.raises(ValidationError, match="^t must be"):
            evolve(rho0, t, cfg, ens, bath=bath)

    def test_invalid_frame(self):
        bath, cfg, ens = self._setup()
        rho0 = initial_two_qubit(ens.spin1, ens.spin2)
        with pytest.raises(ValidationError):
            evolve(rho0, 1.0, cfg, ens, bath=bath, frame="rotating")

    @pytest.mark.parametrize(
        "rho0",
        [np.eye(5) / 5.0, np.eye(3) / 3.0, np.stack([np.eye(4) / 4.0] * 2),
         np.full((4, 4), math.nan), np.diag([0.25, 0.25, 0.25, math.inf])],
        ids=["5x5", "3x3", "stack", "nan", "inf"],
    )
    def test_rejects_malformed_rho0(self, rho0):
        # one finite 4x4 matrix only: read entry by entry, a 5x5 would be cut
        # to its top-left block, and a 3x3 or a NaN would fail past validation
        bath, cfg, ens = self._setup()
        with pytest.raises(ValidationError, match="rho0"):
            evolve(rho0, 1.0, cfg, ens, bath=bath)
        with pytest.raises(ValidationError, match="rho0"):
            evolve_series(rho0, dephasing_grid(np.array([0.0, 1.0]), bath), cfg, ens)

    def test_large_n_suppression(self):
        # every background-dressed coherence dies; (2,3) survives untouched
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.05, N=10**6)
        spin = SpinInit(p=0.5, v=0.48)
        ens = EnsembleConfig(spin1=spin, spin2=spin)
        rho0 = initial_two_qubit(spin, spin)
        rho = evolve(rho0, 30.0, cfg, ens, bath=bath)
        for idx in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
            assert abs(rho[idx]) <= 1e-12
        assert rho[1, 2] == rho0[1, 2]


class TestLimits:
    def test_small_eta_structure(self):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.2, kappa_l=0.1, eta=0.1, N=100)
        s1 = SpinInit(p=0.55, v=0.4)
        s2 = SpinInit(p=0.35, v=0.3j)
        t = 12.0
        rho = limit_state_small_eta(t, s1, s2, cfg, bath=bath)
        d = math.exp(-2 * cfg.kappa_l**2 * decay_Gamma(t, bath))
        want = np.diag([
            s1.p * s2.p, s1.p * (1 - s2.p), (1 - s1.p) * s2.p,
            (1 - s1.p) * (1 - s2.p),
        ]).astype(complex)
        want[1, 2] = s1.v * np.conj(s2.v) * d
        want[2, 1] = np.conj(want[1, 2])
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_large_eta_structure(self):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.2, kappa_l=0.1, eta=0.4, N=1000)
        s1 = SpinInit(p=0.55, v=0.4)
        s2 = SpinInit(p=0.35, v=0.3j)
        ens = EnsembleConfig(spin1=s1, spin2=s2, background_p=0.3)
        t = 12.0
        rho = limit_state_large_eta(t, s1, s2, cfg, ens, bath=bath)
        S = phase_S(t, bath)
        d = math.exp(-cfg.kappa_l**2 * decay_Gamma(t, bath))
        P = cmath.exp(-1j * cfg.kappa_c**2 * S * (1 - 2 * 0.3) * 1000 ** (1 - 2 * 0.4))
        f1 = np.array([[s1.p, s1.v * d * P], [np.conj(s1.v * d * P), 1 - s1.p]])
        f2 = np.array([[s2.p, s2.v * d * P], [np.conj(s2.v * d * P), 1 - s2.p]])
        np.testing.assert_allclose(rho, np.kron(f1, f2), atol=1e-15)

    def test_large_eta_unbiased_background_is_undressed(self):
        # p = 1/2 background leaves no residual twist
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.2, eta=0.3, N=500)
        s1 = SpinInit(p=0.5, v=0.48)
        ens = EnsembleConfig(spin1=s1, spin2=s1, background_p=0.5)
        t = 8.0
        rho = limit_state_large_eta(t, s1, s1, cfg, ens, bath=bath)
        d = 1.0  # kappa_l = 0
        m = np.array([[0.5, 0.48 * d], [0.48 * d, 0.5]])
        np.testing.assert_allclose(rho, np.kron(m, m), atol=1e-15)

    def test_large_eta_without_background_spins(self):
        # N = 2 has no background, so P_inf = 1 like P_N
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.2, kappa_l=0.1, eta=0.5, N=2)
        s1 = SpinInit(p=0.55, v=0.4)
        s2 = SpinInit(p=0.35, v=0.3j)
        ens = EnsembleConfig(spin1=s1, spin2=s2, background_p=[])
        t = 12.0
        rho = limit_state_large_eta(t, s1, s2, cfg, ens, bath=bath)
        d = math.exp(-cfg.kappa_l**2 * decay_Gamma(t, bath))
        f1 = np.array([[s1.p, s1.v * d], [np.conj(s1.v * d), 1 - s1.p]])
        f2 = np.array([[s2.p, s2.v * d], [np.conj(s2.v * d), 1 - s2.p]])
        np.testing.assert_allclose(rho, np.kron(f1, f2), atol=1e-15)
        short = EnsembleConfig(spin1=s1, spin2=s2, background_p=[0.3, 0.3])
        with pytest.raises(ValidationError):
            limit_state_large_eta(t, s1, s2, replace(cfg, N=10), short, bath=bath)

    @pytest.mark.parametrize("eta", [0.1, 0.4])
    def test_shares_finite_n_bits(self, eta):
        # the populations and rho_23 do not depend on P_N, so finite N and
        # the limit must agree to the last bit there
        bath = BathConfig()
        s1 = SpinInit(p=0.55, v=0.4)
        s2 = SpinInit(p=0.35, v=0.3j)
        ens = EnsembleConfig(spin1=s1, spin2=s2, background_p=0.3)
        rho0 = initial_two_qubit(s1, s2)
        for kappa_l in (0.1, 0.3, 0.7, 1.3):
            cfg = CouplingConfig(kappa_c=0.2, kappa_l=kappa_l, eta=eta, N=1000)
            for t in (1.0, 5.0, 12.0, 30.0, 77.7):
                rho = evolve(rho0, t, cfg, ens, bath)
                if eta < 0.25:
                    lim = limit_state_small_eta(t, s1, s2, cfg, bath=bath)
                else:
                    lim = limit_state_large_eta(t, s1, s2, cfg, ens, bath=bath)
                assert np.all(np.diag(rho) == np.diag(lim))
                assert rho[1, 2] == lim[1, 2] and rho[2, 1] == lim[2, 1]

    @pytest.mark.parametrize("eta", [0.1, 0.5])
    def test_finite_n_converges(self, eta):
        bath = BathConfig()
        spin = SpinInit(p=0.5, v=0.48)
        ens = EnsembleConfig(spin1=spin, spin2=spin)
        t = 30.0
        grid = dephasing_grid(np.array([t]), bath)
        dists = []
        for N in (100, 1000, 10000, 100000):
            cfg = CouplingConfig(kappa_c=0.2, eta=eta, N=N)
            rho = evolve_series(initial_two_qubit(spin, spin), grid, cfg, ens)[0]
            if eta < 0.25:
                lim = limit_state_small_eta(t, spin, spin, cfg, bath=bath)
            else:
                lim = limit_state_large_eta(t, spin, spin, cfg, ens, bath=bath)
            dists.append(np.abs(rho - lim).max())
        assert dists[0] > dists[1] > dists[2] > dists[3]


class TestLargeEtaBackground:
    def test_inhomogeneous_background_rejected(self):
        spin = SpinInit(p=0.5, v=0.48)
        ens = EnsembleConfig(spin, spin, background_p=[0.2, 0.4])
        cfg = CouplingConfig(kappa_c=0.2, eta=0.5, N=4)
        with pytest.raises(ValidationError, match="homogeneous background"):
            limit_state_large_eta(1.0, spin, spin, cfg, ens, bath=BathConfig())


class TestRescaledTime:
    def test_roundtrip(self):
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.3, eta=0.2, N=10)
        t = np.linspace(0.0, 100.0, 11)
        back = t_of_tau(tau_of_t(t, cfg, bath), cfg, bath)
        np.testing.assert_allclose(back, t, rtol=1e-14)

    @pytest.mark.parametrize("func, name", [
        (lambda t, cfg, ens: tau_of_t(t, cfg), "tau_of_t"),
        (lambda t, cfg, ens: t_of_tau(t, cfg), "t_of_tau"),
        (background_factor, "background_factor"),
    ])
    @pytest.mark.parametrize("t", ["x", [0.0, "x"], 10**400])
    def test_non_numeric_time_rejected(self, func, name, t):
        spin = SpinInit(p=0.5, v=0.48)
        ens = EnsembleConfig(spin1=spin, spin2=spin)
        with pytest.raises(ValidationError, match="^%s requires" % name):
            func(t, CouplingConfig(kappa_c=0.3, N=4), ens)

    def test_zero_coupling_has_no_inverse(self):
        with pytest.raises(ValidationError, match="kappa_c = 0"):
            t_of_tau(1.0, CouplingConfig(kappa_c=0.0, N=4), BathConfig())

    def test_scaling(self):
        # tau = kappa_eff^2 nu_c t
        bath = BathConfig()
        cfg = CouplingConfig(kappa_c=0.1, N=4)
        assert tau_of_t(1.0, cfg, bath) == pytest.approx(
            0.01 * bath.k_c / (2 * math.pi)
        )


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _spins(draw):
    p = draw(_UNIT)
    size = draw(_UNIT) * math.sqrt(p * (1.0 - p))
    if draw(st.booleans()):
        v = cmath.rect(size, draw(st.floats(min_value=-math.pi, max_value=math.pi)))
    else:
        v = draw(st.sampled_from([1.0, -1.0])) * size
    return SpinInit(p=p, v=v)


@st.composite
def _evolutions(draw):
    """(rho0, evolved states) for a drawn configuration on a drawn time grid."""
    N = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        background = draw(_UNIT)
    else:
        background = draw(st.lists(_UNIT, min_size=N - 2, max_size=N - 2))
    freq = st.floats(min_value=-5.0, max_value=5.0)
    s1, s2 = draw(_spins()), draw(_spins())
    ens = EnsembleConfig(s1, s2, background_p=background, omega1=draw(freq), omega2=draw(freq))
    cfg = CouplingConfig(
        kappa_c=draw(st.floats(min_value=0.0, max_value=2.0)),
        kappa_l=draw(st.floats(min_value=0.0, max_value=2.0)),
        eta=draw(st.floats(min_value=0.0, max_value=1.0)),
        N=N,
    )
    bath = BathConfig(epsilon=draw(st.floats(min_value=0.2, max_value=5.0)))
    t_max = draw(st.floats(min_value=1e-3, max_value=200.0))
    frame = draw(st.sampled_from(["interaction", "lab"]))
    rho0 = initial_two_qubit(s1, s2)
    grid = dephasing_grid(np.linspace(0.0, t_max, 25), bath)
    return rho0, evolve_series(rho0, grid, cfg, ens, frame=frame)


class TestEvolvedStateProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_evolutions())
    def test_hermitian_unit_trace_psd_fixed_populations(self, case):
        rho0, rhos = case
        np.testing.assert_array_equal(rhos, np.conj(np.swapaxes(rhos, 1, 2)))
        np.testing.assert_allclose(np.trace(rhos, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12
        # dephasing never moves the populations
        np.testing.assert_array_equal(
            np.diagonal(rhos, axis1=1, axis2=2), np.broadcast_to(np.diag(rho0), (len(rhos), 4))
        )


@st.composite
def _limit_cases(draw):
    """(t, s1, s2, cfg, ens, bath) for the N -> infinity limit states."""
    s1, s2 = draw(_spins()), draw(_spins())
    ens = EnsembleConfig(s1, s2, background_p=draw(_UNIT))
    cfg = CouplingConfig(
        kappa_c=draw(st.floats(min_value=0.0, max_value=2.0)),
        kappa_l=draw(st.floats(min_value=0.0, max_value=2.0)),
        eta=draw(st.floats(min_value=0.0, max_value=1.0)),
        N=draw(st.integers(min_value=2, max_value=10**6)),
    )
    bath = BathConfig(epsilon=draw(st.floats(min_value=0.2, max_value=5.0)))
    t = draw(st.floats(min_value=0.0, max_value=500.0))
    return t, s1, s2, cfg, ens, bath


class TestLimitStateProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_limit_cases())
    def test_small_eta_is_an_unentangled_x_state(self, case):
        t, s1, s2, cfg, _, bath = case
        rho = limit_state_small_eta(t, s1, s2, cfg, bath=bath)
        off = ~np.eye(4, dtype=bool)
        off[1, 2] = off[2, 1] = False
        assert np.all(rho[off] == 0.0)
        # rho_11 rho_44 - |rho_23|^2 >= 0 is the X state's separability margin
        margin = (rho[0, 0] * rho[3, 3]).real - abs(rho[1, 2]) ** 2
        decay = math.exp(-4.0 * cfg.kappa_l**2 * decay_Gamma(t, bath))
        want = s1.p * s2.p * (1 - s1.p) * (1 - s2.p) - decay * abs(s1.v) ** 2 * abs(s2.v) ** 2
        assert margin == pytest.approx(want, rel=0, abs=1e-16)
        # |v|^2 <= p (1 - p) makes want >= 0; rounding leaves a few ulps of 1/16
        assert want >= -1e-16

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_limit_cases())
    def test_large_eta_is_the_product_of_its_marginals(self, case):
        t, s1, s2, cfg, ens, bath = case
        rho = limit_state_large_eta(t, s1, s2, cfg, ens, bath=bath)
        r = rho.reshape(2, 2, 2, 2)
        first, second = np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)
        np.testing.assert_allclose(rho, np.kron(first, second), rtol=0, atol=1e-15)


class TestValidateState:
    def test_accepts_physical(self):
        spin = SpinInit(p=0.5, v=0.48)
        validate_two_qubit(initial_two_qubit(spin, spin))

    def test_rejects_nonhermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValidationError):
            validate_two_qubit(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            validate_two_qubit(np.eye(4, dtype=complex))

    def test_rejects_negative(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValidationError):
            validate_two_qubit(rho)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValidationError, match="4x4"):
            validate_two_qubit(np.zeros(shape))

    @pytest.mark.parametrize("entry,value", [((0, 0), math.nan), ((1, 2), math.nan), ((3, 3), math.inf)])
    def test_rejects_nonfinite(self, entry, value):
        # a NaN passes the Hermiticity and trace comparisons
        rho = np.eye(4, dtype=complex) / 4.0
        rho[entry] = value
        with pytest.raises(ValidationError, match="non-finite"):
            validate_two_qubit(rho)


class TestCouplingConfig:
    def test_effective_coupling(self):
        cfg = CouplingConfig(kappa_c=0.2, eta=0.5, N=100)
        assert cfg.effective_kappa_c == pytest.approx(0.02)

    def test_eta_zero_identity(self):
        cfg = CouplingConfig(kappa_c=0.2, eta=0.0, N=100)
        assert cfg.effective_kappa_c == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"kappa_c": -0.1},
        {"kappa_c": 0.1, "kappa_l": -1.0},
        {"kappa_c": 0.1, "N": 1},
        {"kappa_c": 0.1, "N": 2.5},
        {"kappa_c": 0.1, "eta": -0.2},
        {"kappa_c": float("nan")},
        {"kappa_c": float("inf")},
        {"kappa_c": 0.1, "kappa_l": float("nan")},
        {"kappa_c": 0.1, "kappa_l": float("inf")},
        {"kappa_c": 0.1, "eta": float("nan")},
        {"kappa_c": 0.1, "eta": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            CouplingConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"kappa_c": "0.1"}, "kappa_c"),
        ({"kappa_c": 0.1, "eta": None}, "eta"),
        ({"kappa_c": 0.1, "kappa_l": 0.1j}, "kappa_l"),
    ])
    def test_rejects_non_numbers(self, kwargs, field):
        with pytest.raises(ValidationError, match="^%s must be a" % field):
            CouplingConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"kappa_c": 10**400}, "^kappa_c must be finite"),
        ({"kappa_c": 0.1, "kappa_l": 10**400}, "^kappa_l must be finite"),
        ({"kappa_c": 0.1, "eta": 10**400}, "^eta must be finite"),
        # finite as floats, but their squares or N^eta are not
        ({"kappa_c": 10**200}, r"^kappa_c\^2 must be finite"),
        ({"kappa_c": 0.1, "kappa_l": 10**200}, r"^kappa_l\^2 must be finite"),
        ({"kappa_c": 0.1, "eta": 2000, "N": 4}, r"^N\^eta must be finite"),
    ])
    def test_rejects_ints_too_large_for_a_float(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            CouplingConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        cfg = CouplingConfig(kappa_c=np.float32(0.5), kappa_l=np.int64(0), eta=1, N=np.int64(4))
        assert cfg.effective_kappa_c == 0.125
