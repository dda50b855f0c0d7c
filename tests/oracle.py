"""Independent references for the tests.

Nothing here imports dephasim: each reference computes its quantity from
its definition, by another method than the program's.

- _phase_oracle: S(t) by adaptive quadrature (QUADPACK through scipy);
- _mp_concurrence: the Wootters concurrence at 30 digits (mpmath);
- _mu_eigh: the eigenvalues of M = sqrt(rho) rho_tilde sqrt(rho), with
  sqrt(rho) from eigh, the route the kernel once took for states without
  a Cholesky factor.
"""

import math

import mpmath
import numpy as np
from scipy import integrate

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def _phase_oracle(t, bath):
    # S(t) = -(1/2) int_0^kc dk (k^2 t - k sin(kt)); split for oscillatory t
    kc = bath.k_c
    if kc * t <= 1.0:
        val, _ = integrate.quad(
            lambda k: k * k * t - k * math.sin(k * t), 0.0, kc,
            epsabs=1e-18, epsrel=1e-13, limit=200,
        )
    else:
        osc, _ = integrate.quad(
            lambda k: k, 0.0, kc, weight="sin", wvar=t,
            epsabs=1e-15, epsrel=1e-13, limit=200, maxp1=100,
        )
        val = t * kc**3 / 3.0 - osc
    return -0.5 * val


def _mp_concurrence(rho):
    # 30 digits: the eigenvalues of rho rho_tilde, taking the stored rho as exact
    with mpmath.workdps(30):
        R = mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row] for row in rho])
        YY = mpmath.matrix(_YY.real.tolist())
        ev = mpmath.eig(R * (YY * R.conjugate() * YY), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def _mu_eigh(rhos):
    """Increasing eigenvalues of sqrt(rho) rho_tilde sqrt(rho), for a (n, 4, 4) stack."""
    w, V = np.linalg.eigh(rhos)
    rt = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    M = rt @ (_YY @ rhos.conj() @ _YY) @ rt
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M.conj(), -1, -2)))
