"""Tests for concurrence and the positive-partial-transpose witness."""

import cmath
import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from dephasim import (
    BathConfig,
    CouplingConfig,
    EnsembleConfig,
    NumericalError,
    SpinInit,
    ValidationError,
    concurrence,
    concurrence_series,
    dephasing_grid,
    evolve_series,
    initial_two_qubit,
    limit_state_small_eta,
    ppt_negative,
    spin_flip,
    t_of_tau,
    time_series,
    x_state_concurrence,
)
from dephasim import entanglement
from dephasim.dynamics import _evolved, _factor_entries
from dephasim.entanglement import (
    _SIGN,
    _certified_separable,
    _cholesky,
    _entries,
    _lambdas,
    _pack,
    _partial_transpose,
    _pivoted,
    _pt_laplace,
    _pt_terms,
    _take,
)
from dephasim.experiments import _clip_v, _product_states
from oracle import _YY, _mp_concurrence, _mu_eigh


def _concurrence_oracle(rho):
    # non-Hermitian route: eigenvalues of rho.rhotilde, no matrix square roots
    tilde = _YY @ rho.conj() @ _YY
    ev = np.linalg.eigvals(rho @ tilde)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _knob_factors(k2S, kl2Gl, k2Gc):
    # the (1, 4, 4) factor stack of the exponents, F = 1 o F
    return _pack(_evolved(np.ones((4, 4)), np.atleast_1d(*_factor_entries(k2S, kl2Gl, k2Gc))))


def _lambdas_stack(rhos):
    # the kernel on a (n, 4, 4) stack
    return _lambdas(_entries(rhos))


def _pt_det(rhos):
    # det of the transpose over the second qubit, for a (n, 4, 4) stack
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.det(pt).real


def _witness_states():
    # 10 000 evolved states: N in {2, 4, 8, 16, 32}, kappa in {0.04, 0.2}
    bath = BathConfig()
    spin = SpinInit(p=0.5, v=0.48)
    ens = EnsembleConfig(spin1=spin, spin2=spin)
    rho0 = initial_two_qubit(spin, spin)
    stacks = []
    for N in (2, 4, 8, 16, 32):
        for kappa in (0.04, 0.2):
            cfg = CouplingConfig(kappa_c=kappa, N=N)
            t_max = 2.0 * math.pi / (kappa**2 * bath.nu_c)
            grid = dephasing_grid(np.linspace(0.0, t_max, 1000), bath)
            stacks.append(evolve_series(rho0, grid, cfg, ens))
    return np.concatenate(stacks)


def _corner_slice():
    # the N = 40 corner grid (kappa_c = 0.05, v_i = p_i) at p1 = 0.5, all p2:
    # spin 1 is pure, and only the cell p2 = 0.5 is ever entangled
    cfg = CouplingConfig(kappa_c=0.05, N=40)
    grid = dephasing_grid(t_of_tau(np.linspace(0.0, 2.0 * math.pi, 4000), cfg), BathConfig())
    s1 = SpinInit(p=0.5, v=0.5)
    stacks = []
    for p2 in np.round(np.linspace(0.0, 0.5, 11), 12):
        s2 = SpinInit(p=p2, v=p2)
        ens = EnsembleConfig(spin1=s1, spin2=s2)
        stacks.append(evolve_series(initial_two_qubit(s1, s2), grid, cfg, ens))
    return np.concatenate(stacks)


def _bell():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


class TestEntryArrays:
    """Every entry of an entry array is a pair of (n,) float64 arrays."""

    @staticmethod
    def _assert_pairs(E, n):
        assert sorted(E) == [(i, j) for i in range(4) for j in range(i + 1)]
        for pair in E.values():
            assert len(pair) == 2
            for part in pair:
                assert isinstance(part, np.ndarray) and part.dtype == np.float64
                assert part.shape == (n,)

    def test_entries_evolved_and_take_are_float_pairs(self):
        rng = np.random.default_rng(11)
        rhos = np.stack([_random_density(rng) for _ in range(5)])
        E = _entries(rhos)
        self._assert_pairs(E, 5)
        self._assert_pairs(_take(E, np.array([4, 1])), 2)
        # a real and a complex factor entry: F_23 = e^{-2 kl2Gl} is real
        F = _factor_entries(np.linspace(0.0, 2.0, 3), np.full(3, 0.1), np.full(3, 0.2))
        assert not np.iscomplexobj(F[3]) and np.iscomplexobj(F[0])
        E = _evolved(rhos[0], F)
        self._assert_pairs(E, 3)
        for i in range(4):
            assert not np.signbit(E[i, i][1]).any() and not E[i, i][1].any()

    def test_pack_is_hermitian_completion_of_lower_triangle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        # signed zeros below the diagonal; the upper triangle and the
        # diagonal's imaginary part are not read
        x[0, 2, 1] = complex(0.5, -0.0)
        x[1, 3, 0] = complex(-0.0, 0.0)
        expected = np.empty_like(x)
        for i in range(4):
            expected[:, i, i] = x.real[:, i, i]
            for j in range(i):
                expected[:, i, j] = x[:, i, j]
                expected[:, j, i] = np.conj(x[:, i, j])
        packed = _pack(_entries(x))
        np.testing.assert_array_equal(packed.view(np.uint64), expected.view(np.uint64))
        diag = packed.imag[:, range(4), range(4)]
        assert not diag.any() and not np.signbit(diag).any()

    def test_non_finite_state_reads_all_nan(self):
        rng = np.random.default_rng(13)
        x = np.stack([_random_density(rng) for _ in range(3)])
        x[1, 0, 3] = np.inf  # in the upper triangle, which is not read
        E = _entries(x)
        good = _entries(x[[0, 2]])
        for key, (re, im) in E.items():
            assert np.isnan(re[1]) and np.isnan(im[1])
            np.testing.assert_array_equal(re[[0, 2]], good[key][0])
            np.testing.assert_array_equal(im[[0, 2]], good[key][1])


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(_bell()).value == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        spin = SpinInit(p=0.3, v=0.2)
        rho = initial_two_qubit(spin, spin)
        assert concurrence(rho).value == 0.0

    @pytest.mark.parametrize("w,want", [
        (1.0, 1.0),
        (0.8, 0.7),
        (0.5, 0.25),
        (1.0 / 3.0, 0.0),
        (0.2, 0.0),
    ])
    def test_werner_family(self, w, want):
        rho = w * _bell() + (1.0 - w) * np.eye(4) / 4.0
        assert concurrence(rho).value == pytest.approx(want, abs=1e-12)

    def test_vs_eigenvalue_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = _random_density(rng)
            got = concurrence(rho).value
            assert got == pytest.approx(_concurrence_oracle(rho), abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = _random_density(rng)
            u = np.kron(_random_unitary(rng), _random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated).value == pytest.approx(
                concurrence(rho).value, abs=1e-10
            )

    def test_series_matches_single(self):
        rng = np.random.default_rng(3)
        rhos = np.stack([_random_density(rng) for _ in range(50)])
        series = concurrence_series(rhos)
        singles = [concurrence(r).value for r in rhos]
        np.testing.assert_allclose(series, singles, atol=1e-12)

    def test_lambdas_sorted(self):
        res = concurrence(_bell())
        assert np.all(np.diff(res.lambdas) <= 0)
        assert float(res) == res.value

    def test_range_clamped(self):
        rng = np.random.default_rng(9)
        rhos = np.stack([_random_density(rng) for _ in range(100)])
        c = concurrence_series(rhos)
        assert np.all((c >= 0.0) & (c <= 1.0))

    def test_validation_toggle(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(ValidationError):
            concurrence(bad)
        concurrence(bad / 4.0 + 0.0, validate=False)

    @pytest.mark.parametrize("pure", [SpinInit(p=0.0), SpinInit(p=0.5, v=0.5)])
    @pytest.mark.parametrize("other", [
        SpinInit(p=0.3, v=0.2),
        SpinInit(p=0.45, v=0.45),
        SpinInit(p=0.2, v=0.3j),
    ])
    def test_pure_spin_product_is_exactly_zero(self, pure, other):
        for rho in (initial_two_qubit(pure, other), initial_two_qubit(other, pure)):
            assert concurrence(rho).value == 0.0
            assert np.all(concurrence_series(np.stack([rho, rho, rho])) == 0.0)

    @pytest.mark.parametrize("entangled", [True, False])
    def test_one_kernel_call(self, monkeypatch, entangled):
        calls = []

        def counted(E):
            calls.append(len(E[0, 0][0]))
            return _lambdas(E)

        monkeypatch.setattr(entanglement, "_lambdas", counted)
        rng = np.random.default_rng(17)
        rhos = [_random_density(rng) for _ in range(40)]
        rhos = [r for r in rhos if (_pt_det(r[None])[0] < 0.0) == entangled][:5]
        assert rhos
        for rho in rhos:
            calls.clear()
            res = concurrence(rho)
            assert calls == [1]
            lam = _lambdas_stack(rho[None])[0]
            assert res.lambdas == tuple(float(x) for x in lam)
            assert res.value == concurrence_series(rho[None])[0]
            assert (res.value > 0.0) == entangled

    def test_nonfinite_state(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 3] = rho[3, 0] = math.nan
        with pytest.raises(ValidationError):
            concurrence(rho)
        with pytest.raises(NumericalError):
            concurrence(rho, validate=False)

    def test_spin_flip_involution(self):
        rng = np.random.default_rng(21)
        rho = _random_density(rng)
        np.testing.assert_allclose(spin_flip(spin_flip(rho)), rho, atol=1e-14)


class TestScreen:
    """The det(rho^{T_B}) screen against the Wootters kernel on every state."""

    @pytest.mark.parametrize("states", [_witness_states, _corner_slice])
    def test_matches_unscreened_kernel(self, states):
        rhos = states()
        lam = _lambdas_stack(rhos)
        want = np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)
        got = concurrence_series(rhos)
        kept = _pt_det(rhos) < 0.0
        assert kept.any() and not kept.all()
        np.testing.assert_array_equal(got[kept], want[kept])
        assert np.all(got[~kept] == 0.0)
        assert want[~kept].max() <= 1e-14


def _roots(mu):
    return np.sqrt(np.clip(mu, 0.0, None))[:, ::-1]


def _symmetric_pure_states():
    # the clipped (pure-spin) cells of the 51 x 51 symmetric grid at the
    # default knobs that pass the det screen: the rank-deficient states that
    # grid sends to the kernel
    axis = [(p, v) for p in np.linspace(0.0, 1.0, 51) for v in np.linspace(0.0, 0.5, 51)]
    spins = [SpinInit(p=p, v=_clip_v(p, v)[0]) for p, v in axis if _clip_v(p, v)[1]]
    rhos = _product_states(spins, spins) * _knob_factors(math.pi / 2.0, 0.0, 0.0)
    return rhos[~(_pt_det(rhos) >= 0.0)]


class TestKernel:
    """The Wootters kernel: the natural-order and the pivoted Cholesky factor, and their routing."""

    def test_lambdas_independent_of_stack(self):
        # a state's lambdas are the same bits alone, in a short stack, and
        # shuffled into a long one beside rank-deficient, separable and NaN
        # states.  numpy's SIMD loops handle the head of an array by its
        # alignment, and a long stack's arrays are allocated apart from a
        # short one's: a Cholesky in complex arithmetic fails here.  The
        # random states take the natural-order factor, the others the
        # pivoted one.
        rng = np.random.default_rng(23)
        corner = _corner_slice()
        states = np.concatenate([
            np.stack([_random_density(rng) for _ in range(440)]),
            corner[~(_pt_det(corner) >= 0.0)],
            np.stack([_bell(), initial_two_qubit(SpinInit(p=0.0), SpinInit(p=0.3, v=0.2))]),
        ])
        ok = _cholesky(_entries(states))[1]
        assert ok.sum() > 400 and (~ok).sum() > 400
        alone = np.array([_lambdas_stack(rho[None])[0] for rho in states])
        np.testing.assert_array_equal(_lambdas_stack(states), alone)
        nan = np.eye(4, dtype=complex) / 4.0
        nan[1, 2] = math.nan
        stack = np.concatenate([states, corner, nan[None]])
        order = rng.permutation(len(stack))
        lam = np.empty((len(stack), 4))
        lam[order] = _lambdas_stack(stack[order])
        np.testing.assert_array_equal(lam[: len(states)], alone)
        assert np.all(np.isnan(lam[-1]))

    def test_routes_agree_on_full_rank(self):
        # every eigenvalue of these states is >= 0.025
        rng = np.random.default_rng(29)
        rhos = np.stack([0.9 * _random_density(rng) + 0.025 * np.eye(4) for _ in range(200)])
        assert _cholesky(_entries(rhos))[1].all()
        np.testing.assert_allclose(_lambdas_stack(rhos), _roots(_mu_eigh(rhos)), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("states,rank", [
        (lambda: _bell()[None], 1),
        (lambda: initial_two_qubit(SpinInit(p=0.0), SpinInit(p=0.5, v=0.5))[None], 1),
        (lambda: initial_two_qubit(SpinInit(p=0.5, v=0.5), SpinInit(p=0.3, v=0.2))[None], 2),
        # the cell p2 = 0 beside the pure spin p1 = 1/2: rank 1 at t = 0, then 2
        (lambda: _corner_slice()[:4000], 2),
        (_symmetric_pure_states, 1),
        # the cell p1 = p2 = 1/2: rank 1 at t = 0, then 3
        (lambda: _corner_slice()[-4000:], 3),
    ], ids=["bell", "pure-product", "pure-mixed", "corner-p0", "symmetric-pure", "corner-cell"])
    def test_rank_deficient_factor(self, states, rank):
        rhos = states()
        E = _entries(rhos)
        _, ok, tol = _cholesky(E)
        assert not ok.any()
        W = np.zeros(rhos.shape, dtype=complex)
        for (i, k), (re, im) in _pivoted(E, tol).items():
            W[:, i, k] = re + 1j * im
        # W W^H = rho to round-off (at most 2u ||rho||_F here), and W has the
        # numerical rank of rho: every dropped eigenvalue is below
        # 4e-16 ||rho||_F, every kept one above 2.9e-6 ||rho||_F
        norm = np.linalg.norm(rhos, axis=(1, 2))
        err = np.linalg.norm(W @ np.swapaxes(W.conj(), 1, 2) - rhos, axis=(1, 2))
        assert np.all(err <= 16 * 2.0**-53 * norm)
        ranks = (W != 0.0).any(axis=1).sum(axis=1)
        kept = np.linalg.eigvalsh(rhos) > 1e-10 * norm[:, None]
        np.testing.assert_array_equal(ranks, kept.sum(axis=1))
        assert ranks.max() == rank
        lam = _lambdas_stack(rhos)
        c = np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)
        idx = np.random.default_rng(53).choice(len(rhos), min(len(rhos), 20), replace=False)
        idx = np.append(idx, np.argmax(c))
        want = [_mp_concurrence(rhos[i]) for i in idx]
        np.testing.assert_allclose(c[idx], want, rtol=0, atol=1e-14)

    def test_against_30_digits(self):
        rng = np.random.default_rng(31)
        generic = [_random_density(rng) for _ in range(3)]
        # a pure-spin cell of the symmetric grid (p = 0.56, |v| clipped to
        # 0.496) that the sqrt(rho) route scored 1.8e-8 too low, C = 0.9856;
        # its last three natural-order pivots are round-off (2.8e-17 and
        # less), so it takes the pivoted factor, of rank 1
        s = SpinInit(p=0.56, v=_clip_v(0.56, 0.5)[0])
        pure = initial_two_qubit(s, s) * _knob_factors(math.pi / 2.0, 0.0, 0.0)[0]
        exact = generic + [pure]
        ok = _cholesky(_entries(np.stack(exact)))[1]
        np.testing.assert_array_equal(ok, [True, True, True, False])
        # rank-3 corner states (p1 = p2 = 1/2): the first once took the
        # natural-order factor, its third pivot a round-off-sized positive
        # number, and the second the sqrt(rho) route; both were off by about
        # 1e-8.  Neither has a natural-order pivot above the rank tolerance,
        # so both take the pivoted factor.
        corner = _corner_slice()[[43988, 41572]]
        np.testing.assert_array_equal(_cholesky(_entries(corner))[1], [False, False])
        for rhos, tol in ((np.stack(exact), 1e-14), (corner, 1e-14)):
            got = concurrence_series(rhos)
            want = [_mp_concurrence(rho) for rho in rhos]
            assert min(want) > 0.0
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def _corner_pairs():
    # cells and factor stack of the N = 40 corner grid: 11 x 11 cells
    # (v_i = p_i), 4000 times
    cfg = CouplingConfig(kappa_c=0.05, N=40)
    grid = dephasing_grid(t_of_tau(np.linspace(0.0, 2.0 * math.pi, 4000), cfg), BathConfig())
    probe = SpinInit(p=0.5, v=0.0)
    ens = EnsembleConfig(probe, probe)
    F = evolve_series(np.ones((4, 4)), grid, cfg, ens)
    axis = np.round(np.linspace(0.0, 0.5, 11), 12)
    spins = [SpinInit(p=p, v=p) for p in axis]
    return _product_states([a for a in spins for _ in spins], [b for _ in spins for b in spins]), F


def _symmetric_pairs():
    # the 51 x 51 symmetric (p, v) grid, clipped, at the default knobs and at
    # non-zero ones
    spins = [SpinInit(p=p, v=_clip_v(p, v)[0])
             for p in np.linspace(0.0, 1.0, 51) for v in np.linspace(0.0, 0.5, 51)]
    F = np.concatenate([_knob_factors(math.pi / 2.0, 0.0, 0.0), _knob_factors(1.1, 0.2, 0.3)])
    return _product_states(spins, spins), F


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _spins(draw):
    p = draw(st.one_of(_UNIT, st.sampled_from([0.0, 1.0])))
    # the full size |v|^2 = p(1 - p) is a pure spin
    size = draw(st.one_of(_UNIT, st.just(1.0))) * math.sqrt(p * (1.0 - p))
    if draw(st.booleans()):
        return SpinInit(p=p, v=cmath.rect(size, draw(st.floats(-math.pi, math.pi))))
    return SpinInit(p=p, v=draw(st.sampled_from([1.0, -1.0])) * size)


@st.composite
def _screen_cases(draw):
    """(cells, F): 6 drawn cells and the factor stack of a drawn configuration."""
    N = draw(st.integers(min_value=2, max_value=60))
    freq = st.floats(min_value=-5.0, max_value=5.0)
    ens = EnsembleConfig(draw(_spins()), draw(_spins()), background_p=draw(_UNIT),
                         omega1=draw(freq), omega2=draw(freq))
    cfg = CouplingConfig(
        kappa_c=draw(st.floats(min_value=0.0, max_value=2.0)),
        kappa_l=draw(st.floats(min_value=0.0, max_value=2.0)),
        eta=draw(st.floats(min_value=0.0, max_value=1.0)),
        N=N,
    )
    bath = BathConfig(epsilon=draw(st.floats(min_value=0.2, max_value=5.0)))
    grid = dephasing_grid(np.linspace(0.0, draw(st.floats(1e-3, 200.0)), 40), bath)
    frame = draw(st.sampled_from(["interaction", "lab"]))
    F = evolve_series(np.ones((4, 4)), grid, cfg, ens, frame)
    spins = draw(st.lists(st.tuples(_spins(), _spins()), min_size=6, max_size=6))
    return _product_states(*zip(*spins)), F


class TestFactoredScreen:
    """_certified_separable screens (cell, time) pairs from their factors."""

    def test_terms_expand_the_determinant(self):
        # Hermitian, as entry arrays hold only those
        rng = np.random.default_rng(2)
        B = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        A = B + np.swapaxes(B.conj(), 1, 2)
        terms = _pt_terms(_entries(A))
        leibniz = (_SIGN * (terms[:, :24] + 1j * terms[:, 24:])).sum(axis=1)
        lu = np.linalg.det(_partial_transpose(A))
        np.testing.assert_allclose(leibniz, lu, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pairs", [_corner_pairs, _symmetric_pairs])
    def test_certified_pairs_are_separable(self, pairs):
        # a certified pair has LU det >= 0, so the screen of concurrence_series
        # would give it C = 0, and the unscreened kernel leaves only round-off
        cells, F = pairs()
        cert = _certified_separable(_entries(cells), _entries(F))
        assert cert.any() and not cert.all()
        for start in range(0, len(F), 500):
            t, c = np.nonzero(cert[start : start + 500])
            rhos = cells[c] * F[start + t]
            assert np.all(_pt_det(rhos) >= 0.0)
            lam = _lambdas_stack(rhos)
            assert (lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]).max() <= 1e-14

    def test_badly_scaled_cells(self):
        # populations down to 1e-150 beside O(1) ones: LU's det error scales
        # with ||rho||_F^4, not with the Leibniz terms, and a band of 2^-40
        # times their sum certifies two of these pairs whose LU det is < 0
        # (p = 1e-100 with |v| at half its bound, beside p = 0.1365 or 0.7)
        cfg = CouplingConfig(kappa_c=0.05, N=40)
        grid = dephasing_grid(t_of_tau(np.linspace(0.0, 2.0 * math.pi, 200), cfg), BathConfig())
        probe = SpinInit(p=0.5, v=0.0)
        ens = EnsembleConfig(probe, probe)
        F = evolve_series(np.ones((4, 4)), grid, cfg, ens)
        fractions = (0.0, 0.5, 1.0)
        small = [SpinInit(p=10.0**-k, v=f * math.sqrt(10.0**-k * (1.0 - 10.0**-k)))
                 for k in (20, 40, 60, 100, 125, 150) for f in fractions]
        big = [SpinInit(p=p, v=f * math.sqrt(p * (1.0 - p)))
               for p in (0.1365, 0.3, 0.5, 0.7) for f in fractions]
        pairs = [(a, b) for a in small for b in big]
        pairs += [(b, a) for a, b in pairs] + [(a, b) for a in big for b in big]
        cells = _product_states(*zip(*pairs))
        t, c = np.nonzero(_certified_separable(_entries(cells), _entries(F)))
        assert t.size
        assert np.all(_pt_det(cells[c] * F[t]) >= 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_screen_cases())
    def test_certified_implies_nonnegative_det(self, case):
        cells, F = case
        t, c = np.nonzero(_certified_separable(_entries(cells), _entries(F)))
        assert np.all(_pt_det(cells[c] * F[t]) >= 0.0)

    def test_zero_det_and_nan_not_certified(self):
        # p = 0 zeroes rows and columns of rho0^{T_B}: every term is 0
        pure = SpinInit(p=0.0)
        mixed = SpinInit(p=0.5, v=0.1)
        cells = _product_states([pure, mixed, mixed], [mixed, pure, mixed])
        F = np.concatenate([_knob_factors(0.3, 0.1, 0.2), _knob_factors(0.3, 0.1, 0.2)])
        F[1, 0, 3] = F[1, 3, 0] = math.nan
        cert = _certified_separable(_entries(cells), _entries(F))
        np.testing.assert_array_equal(cert, [[False, False, True], [False, False, False]])


_ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _density_matrices(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    parts = draw(st.lists(_ENTRY, min_size=8 * rank, max_size=8 * rank))
    a = np.array(parts[: 4 * rank]).reshape(4, rank) + 1j * np.array(parts[4 * rank :]).reshape(4, rank)
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_density_matrices())
    def test_range(self, rho):
        assert 0.0 <= concurrence(rho).value <= 1.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(_density_matrices(), min_size=1, max_size=8))
    def test_series_matches_single(self, rhos):
        series = concurrence_series(np.stack(rhos))
        singles = [concurrence(r).value for r in rhos]
        np.testing.assert_array_equal(series, singles)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_density_matrices())
    def test_entangled_implies_npt(self, rho):
        if concurrence(rho).value > 1e-9:
            assert ppt_negative(rho)


@pytest.fixture(scope="module")
def cli_series():
    # timeseries --n 4 --kappa-c 0.05 --steps 100000, and its states as
    # evolve_series packs them
    bath = BathConfig()
    spin = SpinInit(p=0.5, v=0.48)
    ens = EnsembleConfig(spin1=spin, spin2=spin)
    cfg = CouplingConfig(kappa_c=0.05, N=4)
    ts = time_series(cfg, ens, bath, steps=100_000)
    rhos = evolve_series(initial_two_qubit(spin, spin), dephasing_grid(ts.t, bath), cfg, ens)
    return ts, rhos


def _outside_band_agrees(rhos):
    # outside the band the sign of the Laplace expansion is LU's; returns
    # the mask of states outside it
    det, bound = _pt_laplace(_entries(rhos))
    lu = _pt_det(rhos)
    out = np.abs(det) > bound
    np.testing.assert_array_equal(np.sign(det[out]), np.sign(lu[out]))
    return out


def _lu_spy(monkeypatch):
    sizes = []
    lu = entanglement._pt_det

    def spy(block):
        sizes.append(len(block))
        return lu(block)

    monkeypatch.setattr(entanglement, "_pt_det", spy)
    return sizes


class TestLaplaceScreen:
    """The closed-form det(rho^{T_B}) screen and its LU fallback inside the band."""

    @pytest.mark.parametrize("states", [_corner_slice, _symmetric_pure_states, _witness_states])
    def test_sign_matches_lu_outside_band(self, states):
        assert _outside_band_agrees(states()).any()

    def test_sign_matches_lu_on_cli_series(self, cli_series):
        assert _outside_band_agrees(cli_series[1]).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_density_matrices(), min_size=1, max_size=8))
    def test_sign_matches_lu_on_drawn_states(self, rhos):
        _outside_band_agrees(np.stack(rhos))

    def test_cli_series_never_reaches_lu(self, monkeypatch):
        sizes = _lu_spy(monkeypatch)
        spin = SpinInit(p=0.5, v=0.48)
        ts = time_series(CouplingConfig(kappa_c=0.05, N=4), EnsembleConfig(spin, spin),
                         BathConfig(), steps=100_000)
        assert ts.concurrence.max() > 0.0
        assert sum(sizes) == 0

    def test_zero_det_reaches_lu(self, monkeypatch):
        # a pure spin in a product at t = 0: det(rho^{T_B}) = 0 exactly
        others = [SpinInit(p=0.3, v=0.2), SpinInit(p=0.45, v=0.45), SpinInit(p=0.2, v=0.3j)]
        pairs = [(pure, other) for pure in (SpinInit(p=0.0), SpinInit(p=0.5, v=0.5)) for other in others]
        rhos = _product_states(*zip(*(pairs + [(b, a) for a, b in pairs])))
        np.testing.assert_array_equal(_pt_det(rhos), 0.0)
        det, bound = _pt_laplace(_entries(rhos))
        assert np.all(np.abs(det) <= bound)
        sizes = _lu_spy(monkeypatch)
        assert np.all(concurrence_series(rhos) == 0.0)
        assert sizes == [len(rhos)]

    def test_nan_state_scores_nan(self):
        rng = np.random.default_rng(37)
        good = np.stack([_random_density(rng) for _ in range(6)])
        for i, j in ((0, 0), (1, 2), (2, 1), (3, 0)):
            bad = np.eye(4, dtype=complex) / 4.0
            bad[i, j] = math.nan
            c = concurrence_series(np.concatenate([good[:3], bad[None], good[3:]]))
            assert np.isnan(c[3])
            np.testing.assert_array_equal(np.delete(c, 3), concurrence_series(good))

    def test_single_state_keeps_series_bits(self):
        rng = np.random.default_rng(43)
        corner = _corner_slice()
        rhos = np.concatenate([
            np.stack([_random_density(rng) for _ in range(30)]),
            corner[rng.choice(len(corner), 30, replace=False)],
            _symmetric_pure_states()[:10],
            np.stack([_bell(), initial_two_qubit(SpinInit(p=0.0), SpinInit(p=0.3, v=0.2))]),
        ])
        series = concurrence_series(rhos)
        assert series.max() > 0.0 and np.any(series == 0.0)
        for rho, c in zip(rhos, series):
            assert concurrence(rho, validate=False).value == c
            assert concurrence_series(rho[None])[0] == c

    def test_cli_series_against_30_digits(self, cli_series):
        ts, rhos = cli_series
        idx = np.random.default_rng(47).choice(len(rhos), 50, replace=False)
        want = [_mp_concurrence(rhos[i]) for i in idx]
        assert max(want) > 0.0
        np.testing.assert_allclose(ts.concurrence[idx], want, rtol=0, atol=1e-13)


class TestXState:
    def test_analytic_value(self):
        # C = 2 max(0, |v1 v2| e^{-2g} - sqrt(p1 p2 (1-p1)(1-p2)))
        got = x_state_concurrence(0.5, 0.5, 0.5, 0.5, gamma_l=0.0)
        assert got == pytest.approx(2 * (0.25 - 0.25), abs=1e-15)
        got = x_state_concurrence(0.5, 0.5, 0.5, 0.5, gamma_l=0.1)
        assert got == 0.0

    def test_matches_general_concurrence(self):
        rng = np.random.default_rng(17)
        bath = BathConfig()
        checked = 0
        while checked < 100:
            p1, p2 = rng.uniform(0.0, 1.0, size=2)
            r1 = math.sqrt(p1 * (1 - p1)) * rng.uniform(0.0, 1.0)
            r2 = math.sqrt(p2 * (1 - p2)) * rng.uniform(0.0, 1.0)
            v1 = r1 * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            v2 = r2 * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            g = rng.uniform(0.0, 0.5)
            s1, s2 = SpinInit(p=p1, v=v1), SpinInit(p=p2, v=v2)
            cfg = CouplingConfig(kappa_c=0.2, kappa_l=1.0, eta=0.1, N=10)
            t = _t_for_gamma(g, bath)
            rho = limit_state_small_eta(t, s1, s2, cfg, bath=bath)
            want = concurrence(rho).value
            got = x_state_concurrence(p1, p2, v1, v2, gamma_l=g)
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            x_state_concurrence(1.2, 0.5, 0.0, 0.0)
        with pytest.raises(ValidationError):
            x_state_concurrence(0.5, 0.5, 0.6, 0.1)
        with pytest.raises(ValidationError):
            x_state_concurrence(0.5, 0.5, 0.1, 0.1, gamma_l=-0.2)

    @pytest.mark.parametrize("v1,v2,gamma_l", [
        (math.nan, 0.1, 0.0),
        (0.1, complex(0.1, math.nan), 0.0),
        (0.1, 0.1, math.nan),
        (0.1, 0.1, math.inf),
    ])
    def test_rejects_nonfinite(self, v1, v2, gamma_l):
        with pytest.raises(ValidationError):
            x_state_concurrence(0.5, 0.5, v1, v2, gamma_l=gamma_l)

    @pytest.mark.parametrize("gamma_l", ["x", None, 1j, 10**400])
    def test_rejects_non_numbers(self, gamma_l):
        with pytest.raises(ValidationError, match="^gamma_l must be"):
            x_state_concurrence(0.5, 0.5, 0.1, 0.1, gamma_l)


def _t_for_gamma(g, bath):
    # invert kappa_l^2 Gamma(t) = g for kappa_l = 1 on a lookup grid
    from scipy import optimize

    from dephasim import decay_Gamma

    if g == 0.0:
        return 0.0
    return optimize.brentq(lambda t: decay_Gamma(t, bath) - g, 0.0, 3.0)


class TestPPT:
    def test_bell_detected(self):
        assert ppt_negative(_bell())

    def test_product_not_detected(self):
        spin = SpinInit(p=0.3, v=0.2)
        assert not ppt_negative(initial_two_qubit(spin, spin))

    def test_rejects_nonfinite(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 1] = math.nan
        with pytest.raises(ValidationError):
            ppt_negative(rho)

    def test_sign_agreement_on_evolved_states(self):
        # Wootters and the transpose witness must agree away from the boundary
        rhos = _witness_states()
        c = concurrence_series(rhos)
        total = 0
        for rho, ci in zip(rhos, c):
            total += 1
            if ci > 1e-9:
                assert ppt_negative(rho)
            elif ci == 0.0:
                assert not ppt_negative(rho)
        assert total == 10000
