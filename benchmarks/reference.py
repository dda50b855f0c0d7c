"""Independent numpy reference for the benchmark's output checks.

Nothing here imports dephasim or scipy.  The routes differ from the
program's on purpose:

- S(t) from its closed form, with its own Maclaurin sum at small x;
- Gamma(t) by composite Gauss-Legendre on [0, k_c], 12 nodes on each
  period of cos(w t) (rule error below 1e-19 per panel), as a sum of
  positive terms with no Gamma_inf - oscillation cancellation; the cost
  grows like k_c t, which stays cheap up to k_c t of a few 1e5;
- P_N as a direct product over the N - 2 background factors;
- concurrence by Wootters from the eigenvalues of rho rho_tilde (a general,
  non-Hermitian eigensolve), with the partial-transpose sign as a
  cross-check.

All inputs are in the program's dimensionless units (BathConfig defaults
k_c = 1, beta = 1) and the interaction frame with no local coupling.
"""

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
# sigma_y x sigma_y in the ordered basis |++>, |+->, |-+>, |-->
_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def phase_S(t, k_c):
    """S(t) = -(k_c^2/2) [x/3 - (sin x - x cos x)/x^2], x = k_c t."""
    x = k_c * np.asarray(t, dtype=float)
    bracket = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    # bracket = sum_{k>=2} (-1)^k 2k x^(2k-1) / (2k+1)!; the k = 13 term is < 3e-27
    acc = np.zeros_like(xs)
    for k in range(13, 1, -1):
        acc += (-1) ** k * 2 * k * xs ** (2 * k - 1) / math.factorial(2 * k + 1)
    bracket[small] = acc
    xl = x[~small]
    bracket[~small] = xl / 3.0 - (np.sin(xl) - xl * np.cos(xl)) / xl**2
    return -(k_c**2 / 2.0) * bracket


def decay_Gamma(t, k_c, beta):
    """Gamma(t) = int_0^{k_c} w coth(beta w/2) sin^2(w t/2) dw, pointwise."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape)
    for i, ti in enumerate(t):
        if ti == 0.0:
            continue
        panels = max(8, int(math.ceil(k_c * ti / (2.0 * math.pi))))
        half = 0.5 * k_c / panels
        mid = (np.arange(panels) + 0.5) * (2.0 * half)
        w = (mid[:, None] + half * _GL_X[None, :]).ravel()
        g = w / np.tanh(0.5 * beta * w)
        f = (g * np.sin(0.5 * w * ti) ** 2).reshape(panels, _GL_W.size)
        out[i] = half * np.sum(f @ _GL_W)
    return out


def background(S, kappa2, ps, doubled=False):
    """P_N (tilde_P_N when doubled) as the product over background spins."""
    a = (2.0 if doubled else 1.0) * kappa2 * np.asarray(S, dtype=float)
    up, down = np.exp(1j * a), np.exp(-1j * a)
    P = np.ones(a.shape, dtype=complex)
    for p in ps:
        P *= p * up + (1.0 - p) * down
    return P


def _spin(p, v):
    return np.array([[p, v], [np.conj(v), 1.0 - p]], dtype=complex)


def states(S, Gamma, kappa2, spin1, spin2, ps):
    """(T, 4, 4) reduced states; spin1/spin2 are (p, v) pairs."""
    rho0 = np.kron(_spin(*spin1), _spin(*spin2))
    a = kappa2 * np.asarray(S, dtype=float)
    d = np.exp(-kappa2 * np.asarray(Gamma, dtype=float))
    P = background(S, kappa2, ps)
    Pt = background(S, kappa2, ps, doubled=True)
    F = np.ones(a.shape + (4, 4), dtype=complex)
    F[:, 0, 1] = F[:, 0, 2] = np.exp(1j * a) * d * P
    F[:, 0, 3] = d**4 * Pt
    F[:, 1, 3] = F[:, 2, 3] = np.exp(-1j * a) * d * P
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
        F[:, j, i] = np.conj(F[:, i, j])
    return rho0[None] * F


def concurrence(rhos):
    """Wootters concurrence from the spectrum of rho rho_tilde."""
    tilde = _YY @ np.conj(rhos) @ _YY
    mu = np.linalg.eigvals(rhos @ tilde)
    lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)), axis=-1)[..., ::-1]
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def pt_min_eig(rhos):
    """Smallest eigenvalue of the partial transpose over the second spin."""
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(0.5 * (pt + np.conj(np.swapaxes(pt, -1, -2)))).min(axis=-1)


def ppt_disagreements(rhos, C):
    """Count states where concurrence and the PPT sign clearly disagree.

    For two qubits the smallest partial-transpose eigenvalue m obeys
    C >= 2|m| >= C^2/2 when negative (Verstraete et al., J. Phys. A 34,
    10327, 2001), and m >= 0 when C = 0.  Near the boundary both are zero
    to round-off, so only states far from it on either side are compared:
    C > 1e-4 needs m < -2.5e-9, and m < -1e-6 needs C > 2e-6.
    """
    m = pt_min_eig(rhos)
    return int(np.count_nonzero((C > 1e-4) & (m > -1e-12)) + np.count_nonzero((m < -1e-6) & (C < 1e-7)))
