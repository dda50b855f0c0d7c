"""Exact reduced two-qubit dynamics of N dephasing spins.

N spins couple through energy conserving interactions to one collective
thermal reservoir (strength kappa_c, optionally scaled to kappa_c / N^eta)
and to independent local reservoirs (strength kappa_l).  The reduced
density matrix of two retained spins is known in closed form: populations
are frozen and each coherence picks up a phase exp(i kappa^2 S(t)), decay
factors exp(-kappa^2 Gamma(t)), and the complex background factor

    P_N(t) = prod_{j=3..N} [ p_j e^{i kappa^2 S(t)} + (1 - p_j) e^{-i kappa^2 S(t)} ],

the trace over the other N - 2 spins, which depends only on their
populations p_j.  tilde_P_N denotes the same product with kappa^2 doubled.

The matrix elements in the ordered basis |++>, |+->, |-+>, |--> evolve as

    rho_12(t) = rho_12(0) e^{i w2 t} e^{i k^2 S} e^{-kl^2 Gl - k^2 Gc} P_N
    rho_13(t) = rho_13(0) e^{i w1 t} e^{i k^2 S} e^{-kl^2 Gl - k^2 Gc} P_N
    rho_14(t) = rho_14(0) e^{i (w1+w2) t} e^{-2 kl^2 Gl - 4 k^2 Gc} tilde_P_N
    rho_23(t) = rho_23(0) e^{i (w1-w2) t} e^{-2 kl^2 Gl}
    rho_24(t) = rho_24(0) e^{i w1 t} e^{-i k^2 S} e^{-kl^2 Gl - k^2 Gc} P_N
    rho_34(t) = rho_34(0) e^{i w2 t} e^{-i k^2 S} e^{-kl^2 Gl - k^2 Gc} P_N

with k = kappa_c / N^eta, kl = kappa_l, and the lower triangle fixed by
Hermiticity.  The free phases e^{i w t} are dropped in the default
interaction frame; they are local unitaries and leave concurrence alone.

The factor F_ij multiplying rho_ij(0) has six distinct upper entries
(_factor_entries).  States are formed from them entry by entry in real
ufuncs, a c - b d and a d + b c for (a + ib)(c + id), and stored as the
entry arrays of entanglement (_evolved).  A real multiply or subtract is
correctly rounded in every numpy loop, so a state's bits do not depend
on where it sits in a block, which numpy's complex multiply does not
promise; and no (T, 4, 4) stack of factors or states is built on the
way to the concurrence.  evolve_series packs its states into a stack
only for callers that want one.

For N -> infinity at fixed t, kappa = kappa_c / N^eta -> 0 and the state
tends to rho0 o F at kappa = 0 with P_N, tilde_P_N -> 0 when
0 < eta < 1/4 (an X form) and -> P_inf, P_inf^2 when eta > 1/4 (a
product of single spin factors), both of which are separable.
"""

from dataclasses import dataclass
import math
import numbers

import numpy as np

from .bath import BathConfig, _floats, decay_Gamma, phase_S
from .errors import NumericalError, ValidationError, _real

__all__ = [
    "SpinInit",
    "CouplingConfig",
    "EnsembleConfig",
    "initial_two_qubit",
    "background_factor",
    "evolve",
    "evolve_series",
    "limit_state_small_eta",
    "limit_state_large_eta",
    "tau_of_t",
    "t_of_tau",
    "validate_two_qubit",
]

_CONSTRAINT_TOL = 1e-12
# largest Hermiticity, trace or negative-eigenvalue error of a valid state;
# ppt_negative takes a partial transpose as negative below -_STATE_TOL
_STATE_TOL = 1e-10


@dataclass(frozen=True)
class SpinInit:
    """Single spin initial state: population p and coherence v.

    The 2x2 density matrix [[p, v], [v*, 1-p]] must be positive
    semidefinite, which is the constraint |v|^2 <= p (1 - p).
    """

    p: float
    v: complex = 0.0

    def __post_init__(self):
        _real(self.p, "p", 0.0, 1.0, what="in [0, 1]")
        if not isinstance(self.v, numbers.Complex):
            raise ValidationError("coherence v must be a number, got %r" % (self.v,))
        # np.abs is inf where abs raises OverflowError: a complex too large for a float
        v = _real(np.abs(self.v), "coherence |v|")
        if v * v > self.p * (1.0 - self.p) + _CONSTRAINT_TOL:
            raise ValidationError(
                "|v|^2 <= p(1-p) violated: |%r|^2 > %r(1-%r)" % (self.v, self.p, self.p)
            )

    def matrix(self):
        return np.array([[self.p, self.v], [np.conj(self.v), 1.0 - self.p]], dtype=complex)


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strengths and spin count.

    The collective strength used by the dynamics is kappa_c / N^eta; local
    couplings are never scaled.
    """

    kappa_c: float
    kappa_l: float = 0.0
    eta: float = 0.0
    N: int = 2

    def __post_init__(self):
        kappa_c, kappa_l, eta = (
            _real(getattr(self, name), name, 0.0, what="finite and >= 0")
            for name in ("kappa_c", "kappa_l", "eta")
        )
        if not isinstance(self.N, numbers.Integral) or self.N < 2:
            raise ValidationError("N must be an integer >= 2")
        object.__setattr__(self, "N", int(self.N))
        _real(kappa_c * kappa_c, "kappa_c^2")
        _real(kappa_l * kappa_l, "kappa_l^2")
        try:
            self.N**eta
        except OverflowError:
            msg = "N^eta must be finite, got N = %d, eta = %r" % (self.N, self.eta)
            raise ValidationError(msg) from None

    @property
    def effective_kappa_c(self):
        return self.kappa_c / self.N**self.eta


@dataclass(frozen=True)
class EnsembleConfig:
    """Initial data of the two retained spins and the traced out background.

    background_p is a single population shared by all N - 2 background
    spins or a sequence of length N - 2.  Background coherences never
    enter the reduced dynamics, so they are not represented.
    """

    spin1: SpinInit
    spin2: SpinInit
    background_p: object = 0.5
    omega1: float = 0.0
    omega2: float = 0.0

    def __post_init__(self):
        for name in ("spin1", "spin2"):
            if not isinstance(getattr(self, name), SpinInit):
                raise ValidationError("%s must be a SpinInit, got %r" % (name, getattr(self, name)))
        ps = self._populations()
        # a NaN fails both comparisons, so it is caught here too
        if not np.all((ps >= 0) & (ps <= 1)):
            raise ValidationError("background populations must be finite and lie in [0, 1]")
        w1, w2 = _real(self.omega1, "omega1"), _real(self.omega2, "omega2")
        if not all(map(math.isfinite, (w1 + w2, w1 - w2))):
            raise ValidationError("omega1, omega2 and omega1 +- omega2 must be finite")
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    def _populations(self):
        try:
            ps = np.atleast_1d(np.asarray(self.background_p))
            if ps.dtype.kind in "biuf":
                return ps.astype(float, copy=False)
        except ValueError:  # a ragged sequence
            pass
        raise ValidationError(
            "background_p must be a real number or a sequence of them, got %r"
            % (self.background_p,)
        )

    def background_array(self, N):
        ps = self._populations()
        if ps.size == 1:
            return np.full(N - 2, ps[0])
        if ps.size != N - 2:
            raise ValidationError(
                "background_p has length %d but N - 2 = %d" % (ps.size, N - 2)
            )
        return ps

    @property
    def homogeneous_background(self):
        ps = self._populations()
        return ps.size <= 1 or bool(np.all(ps == ps[0]))


def initial_two_qubit(s1, s2):
    """Product initial state of the two retained spins as a 4x4 matrix."""
    return np.kron(s1.matrix(), s2.matrix())


def _background_from_S(S, cfg, ens, doubled=False):
    """P_N (or tilde_P_N) evaluated from precomputed phases S.

    Each distinct background population p, held by n spins, contributes
    z_p^n through n*log|z_p| and n*arg z_p; exact zeros of |z_p| map to
    P = 0.  With no background spins (N = 2) the sum is empty and P = 1.
    """
    S = np.asarray(S, dtype=float)
    scale = 2.0 if doubled else 1.0
    a = scale * cfg.effective_kappa_c**2 * S
    cos_a, sin_a, cos_2a = np.cos(a), np.sin(a), np.cos(2.0 * a)
    log_mod = np.zeros(S.shape)
    arg = np.zeros(S.shape)
    for p, n in zip(*np.unique(ens.background_array(cfg.N), return_counts=True)):
        mod2 = p * p + 2.0 * p * (1.0 - p) * cos_2a + (1.0 - p) ** 2
        with np.errstate(divide="ignore"):
            log_mod += n * (0.5 * np.log(mod2))
        arg += n * np.arctan2((2.0 * p - 1.0) * sin_a, cos_a)
    return np.exp(log_mod) * np.exp(1j * arg)


def background_factor(t, cfg, ens, bath=None, doubled=False):
    """P_N(t), or tilde_P_N(t) when doubled, for scalar or array t."""
    bath = bath if bath is not None else BathConfig()
    t_arr = _floats(t, "background_factor requires finite t >= 0")
    out = _background_from_S(np.atleast_1d(phase_S(t_arr, bath)), cfg, ens, doubled)
    return out.reshape(t_arr.shape) if t_arr.ndim else complex(out[0])


_IU = np.triu_indices(4, k=1)


def _factor_entries(k2S, kl2Gl, k2Gc, P=1.0, Pt=1.0):
    """The six upper factor entries F_ij (i < j), in _IU order, from the exponents.

    k2S stands for kappa^2 S, kl2Gl for kappa_l^2 Gamma_l and k2Gc for
    kappa^2 Gamma_c, scalars or arrays on common points; P and Pt are
    P_N and tilde_P_N on the same points.  F_ii = 1, and F_ji = conj(F_ij).
    """
    phase = np.exp(1j * k2S)
    d_loc = np.exp(-kl2Gl)
    d_col = np.exp(-k2Gc)
    up = phase * d_loc * d_col * P
    down = np.conj(phase) * d_loc * d_col * P
    return up, up, d_loc**2 * d_col**4 * Pt, d_loc**2, down, down


def _evolution_entries(t, S, Gamma, cfg, ens, frame, P=None):
    """The six upper factor entries on times t, from the bath integrals S and Gamma.

    Gamma serves both reservoirs, which share form factor and cutoff.  P
    is P_N on the same times, when the caller already has it.  The lab
    frame adds the free phases e^{i w t} of each coherence.
    """
    if frame not in ("interaction", "lab"):
        raise ValidationError("frame must be 'interaction' or 'lab', got %r" % (frame,))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    S = np.atleast_1d(np.asarray(S, dtype=float))
    Gamma = np.atleast_1d(Gamma)
    ke2 = cfg.effective_kappa_c**2
    if P is None:
        P = _background_from_S(S, cfg, ens)
    Pt = _background_from_S(S, cfg, ens, doubled=True)
    entries = _factor_entries(ke2 * S, cfg.kappa_l**2 * Gamma, ke2 * Gamma, P, Pt)
    if frame == "lab":
        w1, w2 = ens.omega1, ens.omega2
        ws = (w2, w1, w1 + w2, w1 - w2, w1, w2)
        # |w t| peaks at the largest |w| and |t|; Python floats overflow with no warning
        t_max = float(np.abs(t).max(initial=0.0))
        if not math.isfinite(max(abs(float(w)) for w in ws) * t_max):
            raise ValidationError("omega t must be finite in the lab frame, t up to %r" % t_max)
        entries = tuple(f * np.exp(1j * w * t) for f, w in zip(entries, ws))
    return entries


def _evolved(rho0, entries):
    """Entry arrays (see entanglement) of the states rho0 o F; raises if one is not finite.

    F is given by its six upper entries, (n,) arrays.  rho0 is one 4x4
    matrix, or a (n, 4, 4) stack with one per state.  Each stored entry is
    the lower one, rho_ji = conj(rho0_ij F_ij), written in real ufuncs: a
    real multiply or subtract is correctly rounded in every numpy loop, so
    a state's bits do not depend on its place in the block, and numpy's
    complex multiply, which rounds its real part in its own way, is not
    used on the states.  The diagonal is rho0's, as F_ii = 1, with zeros as
    its im, and a real F_ij is read with zeros as its im.
    """
    n = len(entries[0])
    zero = np.zeros(n)  # shared by the four diagonal entries: entry arrays are never written
    E = {(i, i): (np.full(n, rho0[..., i, i].real), zero) for i in range(4)}
    for i, j, f in zip(*_IU, entries):
        a, b = rho0[..., i, j].real, rho0[..., i, j].imag
        c, d = f.real, f.imag
        E[j, i] = a * c - b * d, (-a) * d - b * c
    if not all(np.isfinite(x).all() for pair in E.values() for x in pair):
        raise NumericalError("evolution produced non-finite matrix entries")
    return E


def _states(rho0, entries):
    """The (n, 4, 4) stack of the states rho0 o F, for one finite 4x4 rho0."""
    from .entanglement import _pack  # entanglement imports this module

    rho0 = np.asarray(rho0)
    if rho0.shape != (4, 4):
        raise ValidationError("rho0 must be one 4x4 matrix, got shape %r" % (rho0.shape,))
    if not np.all(np.isfinite(rho0)):
        raise ValidationError("rho0 has non-finite entries")
    return _pack(_evolved(rho0, entries))


def evolve_series(rho0, grid, cfg, ens, frame="interaction"):
    """Evolve one 4x4 rho0 along a DephasingGrid, returning a (T, 4, 4) stack.

    grid.Gamma serves both the collective and the local reservoir
    (identical form factor and cutoff).  The states are formed as in
    experiments.time_series, so each has the same bits there.  With
    rho0 = np.ones((4, 4)) the stack is F itself, as F = 1 o F.
    """
    return _states(rho0, _evolution_entries(grid.t, grid.S, grid.Gamma, cfg, ens, frame))


def evolve(rho0, t, cfg, ens, bath=None, frame="interaction"):
    """Reduced two-qubit state at a single time t."""
    bath = bath if bath is not None else BathConfig()
    t = _real(t, "t", 0.0, what="finite and t >= 0")
    entries = _evolution_entries(t, phase_S(t, bath), decay_Gamma(t, bath), cfg, ens, frame)
    return _states(rho0, entries)[0]


def _limit_state(t, s1, s2, cfg, bath, P):
    """rho0 o F at kappa = 0, with P_N -> P and tilde_P_N -> P^2."""
    entries = _factor_entries(0.0, cfg.kappa_l**2 * float(decay_Gamma(t, bath)), 0.0, P, P**2)
    return _states(initial_two_qubit(s1, s2), np.atleast_1d(*entries))[0]


def limit_state_small_eta(t, s1, s2, cfg, bath=None):
    """N -> infinity state for 0 < eta < 1/4: the X form.

    It is rho0 o F at kappa = 0 with P_N, tilde_P_N -> 0: only the
    populations and the (2,3) coherence survive, the latter with the
    local decay F_23 = e^{-2 kappa_l^2 Gamma_l(t)}, as at finite N.
    """
    bath = bath if bath is not None else BathConfig()
    return _limit_state(t, s1, s2, cfg, bath, 0.0)


def limit_state_large_eta(t, s1, s2, cfg, ens, bath=None):
    """N -> infinity state for eta > 1/4: a product of dressed factors.

    It is rho0 o F at kappa = 0 with P_N -> P_inf and tilde_P_N ->
    P_inf^2, where P_inf = e^{-i kappa_c^2 S (1 - 2p) N^{1 - 2 eta}}.  Each
    single spin factor keeps its populations and carries the off diagonal
    v_j D_l(t) P_inf(t) with D_l = e^{-kappa_l^2 Gamma_l}; rho_23 carries
    D_l^2 alone, as at finite N.  For background p = 1/2 the phase P_inf
    is absent, and with no background spins (N = 2) P_inf = 1, as is P_N.
    """
    bath = bath if bath is not None else BathConfig()
    if not ens.homogeneous_background:
        raise ValidationError("the large-eta limit requires a homogeneous background")
    ps = ens.background_array(cfg.N)
    P_inf = 1.0
    if ps.size:
        P_inf = np.exp(
            -1j * cfg.kappa_c**2 * phase_S(t, bath) * (1.0 - 2.0 * float(ps[0]))
            * cfg.N ** (1.0 - 2.0 * cfg.eta)
        )
    return _limit_state(t, s1, s2, cfg, bath, P_inf)


def tau_of_t(t, cfg, bath=None):
    """Rescaled time tau = (kappa_c / N^eta)^2 nu_c t."""
    bath = bath if bath is not None else BathConfig()
    return cfg.effective_kappa_c**2 * bath.nu_c * _floats(t, "tau_of_t requires real t")


def t_of_tau(tau, cfg, bath=None):
    """Inverse of tau_of_t."""
    bath = bath if bath is not None else BathConfig()
    scale = cfg.effective_kappa_c**2 * bath.nu_c
    if scale == 0:
        raise ValidationError("rescaled time is undefined for kappa_c = 0")
    return _floats(tau, "t_of_tau requires real tau") / scale


def validate_two_qubit(rho):
    """Check Hermiticity, unit trace and positivity to _STATE_TOL; raise on failure."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("expected a 4x4 density matrix, got shape %r" % (rho.shape,))
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
        raise ValidationError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > _STATE_TOL or abs(np.trace(rho).imag) > _STATE_TOL:
        raise ValidationError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -_STATE_TOL:
        raise ValidationError("density matrix has a negative eigenvalue %g" % w.min())
    return rho
