"""Two-qubit concurrence and the partial transpose witness.

Concurrence uses the standard spin flip construction (Wootters, PRL 80,
2245, 1998): with rho_tilde = (Y x Y) rho* (Y x Y), the concurrence is

    C(rho) = max(0, l1 - l2 - l3 - l4),

where l_i are the decreasing square roots of the eigenvalues of
rho rho_tilde.  Y x Y is real and anti-diagonal with signs
s = (-1, 1, 1, -1), so the spin flip is the gather
rho_tilde[i, j] = s_i s_j conj(rho[3 - i, 3 - j]).

The kernel follows Wootters' proof, which holds for any factor
rho = W W^H, of any rank: tau = W^T (Y x Y) W is complex symmetric, and
tau^H tau = W^H (Y x Y) W* W^T (Y x Y) W has the spectrum of
rho rho_tilde.  A state costs one 4 x 4 factorization and one eigvalsh
of tau^H tau.  Most states have a Cholesky factor W = L in the natural
order, and one that completes is backward stable (Higham, Accuracy and
Stability, Thm 10.3).  Against 30-digit references over 1000 random
states, the lambdas of this route were within 4.4e-15, and those of the
sqrt(rho) route, eigvalsh of M = sqrt(rho) rho_tilde sqrt(rho) with
sqrt(rho) from eigh, within 5.0e-13: sqrt(rho) takes the roots of the
small eigenvalues of rho.

A state keeps the natural-order factor when it is finite and each of its
four pivots exceeds the rank tolerance tol = 4u max_i rho_ii, u = 2^-53,
LAPACK xPSTRF's default (a NaN pivot fails).  The others, rank-deficient
states such as a Bell state or a pure spin in a product and states whose
smallest eigenvalues are round-off, are factored again with complete
(diagonal) pivoting (_pivoted): each step takes the largest remaining
diagonal as its pivot, and the factor stops at rank r once that is
<= tol (Higham, "Analysis of the Cholesky decomposition of a
semi-definite matrix", 1990; Hammarling, Higham and Lucas, xPSTRF,
2007).  W = P^T L is exactly zero in its columns r and up, so are the
rows and columns r and up of tau^H tau, and the lambdas of the dropped
directions are 0 instead of the roots of round-off.  On the rank-3 states
of the N = 40 corner cell p1 = p2 = 1/2, the sqrt(rho) route left c_max
1.9e-9 below its 30-digit value and the pivoted factor 3e-18; on the
pure-spin cells of the symmetric grid, errors of up to 2.1e-8 fell to
5.6e-16.  A non-finite state gets NaN lambdas.

Both factors and tau^H tau are written out with real ufuncs on the
entry arrays (below); for L the terms that are zero because L is lower
triangular are skipped (tau[i, j] = 0 for i + j > 3), and the pivoted
factor reads each state's pivot row by fancy indexing, which copies
bits.  A real add, multiply, divide or sqrt is correctly rounded in
every numpy loop, so a state's route and lambdas depend on that state
alone, never on the others in its call.  Complex products would not do:
numpy's SIMD loop rounds them unlike its scalar loop, and where an array
switches between the two depends on its alignment, so with a complex
factor the lambdas of a state moved by up to 2.6e-9 between the state
alone and in a long stack.  np.linalg.cholesky is no use either: it
fails the whole stack when one state is not positive definite.

Most evolved states are separable, so the kernel runs only on states
that pass a screen.  For two qubits, rho is entangled if and only
if det(rho^{T_B}) < 0, where T_B is the partial transpose over the second
qubit (Augusiak, Demianowicz, Horodecki, PRA 77, 030301(R), 2008).
States with det >= 0 get C = 0 exactly; a pure spin in a product state
therefore scores 0, where the kernel alone can leave round-off.
Soundness, measured over the 484 000 states of the N = 40 corner grid
(kappa_c = 0.05, 4000 times, 11 x 11 cells): every state with det >= 0
had a smallest partial-transpose eigenvalue >= -2.2e-16, and in each
cell the det >= 0 state with the largest floating-point C from the
sqrt(rho) route of the time, at most 1.02e-8, has C <= 4.2e-50 when
recomputed at 50 digits.

A block of n states travels as entry arrays: a dict E with
E[i, j] = (re, im) for i >= j, two contiguous (n,) float arrays holding
rho[i, j], zeros as the diagonal's im; the upper triangle is the
conjugate of the lower, the part eigh reads, and the screens read
rho^{T_B}'s diagonal as the same pairs (_pt_entry).  dynamics forms
evolved states and factors in this form, so no experiments driver builds
a (T, 4, 4) stack of factors or states; concurrence_series and
concurrence unpack their stacks into it once (_entries), and only the
states inside the screen's band below, which need LAPACK's LU on whole
matrices, are packed back (_pack).
Stacks are walked in blocks of _CHUNK states, so temporaries stay a few
MiB however long the series; started from a small process on a 2-CPU
VM, a 100 000 point CLI timeseries run peaks at 45.4 MiB of RSS in its
largest process, of which importing the CLI takes 30.1 MiB.

The screen computes det(rho^{T_B}) of each state by Laplace expansion
over the six pairs of complementary 2 x 2 minors, rows 0-1 against rows
2-3, in real ufuncs on the entry arrays, like the kernel.  Its error,
with u = 2^-53, A the partial transpose of the stored state and
S = sum_sigma prod_i |A[i, sigma_i]| over the 24 permutations: the real
part of each Leibniz product is a sum of 8 real products of four
entries, whose moduli add up to at most 4 prod_i |A[i, sigma_i]|, as
|Re a| + |Im a| <= sqrt(2) |a|.  Each of those 192 real products passes
at most 13 roundings: 3 in each of its two minors, 2 where the minors
are multiplied and subtracted, and 5 in the sum of the six terms.  So
the computed det is within gamma_13 4 S < 53u S of det A, with
S <= ||rho||_F^4 as shown for the factored screen below, and LU's det
is within 20 600u ||rho||_F^4 of det A (same place).  Both sit far
inside the band BAND ||rho||_F^4 + 2^-1000, BAND = 262 144u, so outside
the band the sign of the expansion is the sign LU gives, and it
decides.  The states inside the band, and NaN, are packed and sent to
LU (_pt_det), so every decision is LU's on the stored state: a filter
in the manner of Shewchuk's (below).  A pure spin in a product has det
exactly 0 and always reaches LU; of the 100 000 states of
`timeseries --n 4 --kappa-c 0.05 --steps 100000` none does, where the
screen once took one LU per state.

Many states that share one factor matrix F (the cells of an
initial-state grid) can be screened together without forming them.  The
evolved state is rho = fl(rho0 o F), entrywise, and the partial transpose
only permutes entries, so (rho0 o F)^{T_B} = rho0^{T_B} o F^{T_B} and the
Leibniz expansion factors:

    det = sum_sigma sgn(sigma) prod_i rho0^{T_B}[i, sigma_i] prod_i F^{T_B}[i, sigma_i].

_pt_terms gives the 24 products of a block of entry arrays in real
ufuncs: per row of _LAPLACE, each product of the minor of rows 0-1 times
each of rows 2-3 (three complex products per term; _pt_minors gives the
minor products, as for the Laplace screen).  _certified_separable
contracts the terms of T factors (the entry arrays of 1 o F) with those
of C cells in one (T x 48) (48 x C) real einsum (real and imaginary parts
packed), with the signs _SIGN on the factors' side alone: on both sides
they would square away.  The sign test carries a rigorous error bound and leaves
everything inside it to the exact route, in the manner of Shewchuk's
filtered predicates (Discrete Comput. Geom. 18, 305, 1997): a pair is
certified separable when

    det > BAND X^4 + 2^-1000,   X = ||rho0||_F max_ij |F_ij| >= ||rho||_F.

The bound covers the filter and LU, with A = fl(rho)^{T_B}, the
partial transpose of the stored state:

- The filter.  A complex product has relative error at most
  sqrt(2) gamma_2 < 3u (Higham, Accuracy and Stability, Lemma 3.5).
  Forming rho moves det A from the exact expansion by 12.1u S, where
  S = sum_sigma |P_sigma| |Q_sigma| over the exact products; the three
  products per factor and their product add 21.1u S, and the 48-term
  real sum gamma_48 S more (|Re a Re b| + |Im a Im b| <= |a| |b|).  So
  the computed det is within 82u S of det A, and the computed bound is
  BAND X^4 to within 32u.  S is the permanent of
  |rho0^{T_B} o F^{T_B}|, at most the product of its row 1-norms, which
  is at most ||rho0 o F||_F^4 <= X^4 (Cauchy-Schwarz, then AM-GM).
- LU (LAPACK zgetrf, pivots by |Re| + |Im|): multipliers are at most
  sqrt(2) and the growth at most (1 + sqrt(2))^3 < 14.1, so
  L U = P A + dA with ||dA||_F <= 16u * 4 * 4 sqrt(2) 14.1 max|A|
  <= 5120u ||A||_F (Higham, Thm 9.3, with gamma_4 taken as 16u for
  complex arithmetic).  Replacing rows one at a time and bounding each
  determinant by Hadamard's inequality gives
  |det(A + dA) - det A| <= (||A||_2 + ||dA||_2)^4 - ||A||_2^4
  <= 20 600u X^4.

BAND = 2^-35 = 262 144u, so a certified pair has det A > 12 times the
LU error: the stored state is separable (its true concurrence is 0), and
LU's det is positive as well (numpy's sign * exp(logdet) only rescales
it and turns it by O(10u)), so the screen of _concurrence_block, whose
decisions are LU's, would also have given it C = 0.  A band relative to
S alone is not enough:
with populations near 1e-125 next to 0.86, a state with an exact det of
+2.3e-251 gets an LU det of -5.6e-253.  For a physical cell
1/2 <= ||rho0||_F <= 1, and |F_ij| <= 1 with F_ii = 1, so the band lies
between 2^-39 and 2^-35 absolute.  On the N = 40 corner grid it
certifies the same pairs as a band of 2^-40 S, and over 1.44 million
random pairs LU's det never left the Leibniz value by more than
0.8u ||rho||_F^4.  The 2^-1000 floor covers gradual underflow, which
adds absolute rather than relative error.  Pairs inside the band (a spin
with p = 0 zeroes whole rows of rho0^{T_B}, so its det is exactly 0) and
NaN are not certified; they are formed and go through _concurrence_block.

The Peres-Horodecki test provides an independent witness: for two
qubits, a negative partial transpose is equivalent to entanglement.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _STATE_TOL, SpinInit, validate_two_qubit
from .errors import NumericalError, ValidationError, _real

__all__ = [
    "ConcurrenceResult",
    "concurrence",
    "concurrence_series",
    "spin_flip",
    "x_state_concurrence",
    "ppt_negative",
]

# the signs of Y x Y, row by row
_FLIP = (-1.0, 1.0, 1.0, -1.0)
_FLIP_SIGN = np.outer(_FLIP, _FLIP)
_CHUNK = 8192

# _certified_separable and _pt_laplace: half-width of the band relative to
# ||rho||_F^4, and the underflow floor
BAND = 2.0**-35
_FLOOR = 2.0**-1000


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


def _entries(rhos):
    """Entry arrays of a (n, 4, 4) stack: its diagonal and lower triangle.

    A state with a non-finite entry anywhere, read or not, is read as all
    NaN: LU then gives it a NaN det, which a lone NaN on the diagonal
    does not always do, and it scores NaN.
    """
    E = {
        (i, j): (rhos.real[:, i, j].copy(), rhos.imag[:, i, j].copy() if i > j else np.zeros(len(rhos)))
        for i in range(4)
        for j in range(i + 1)
    }
    bad = ~np.isfinite(rhos).all(axis=(1, 2))
    if bad.any():
        for part in (x for pair in E.values() for x in pair):
            part[bad] = np.nan
    return E


def _take(E, idx):
    """Entry arrays of the states idx of a block."""
    return {key: (re[idx], im[idx]) for key, (re, im) in E.items()}


def _pack(E):
    """The (n, 4, 4) stack of a block of entry arrays."""
    rho = np.empty((len(E[0, 0][0]), 4, 4), dtype=complex)
    for (i, j), (re, im) in E.items():
        rho.real[:, i, j] = rho.real[:, j, i] = re
        # on the diagonal the second write wins: +0.0, not -0.0
        np.negative(im, out=rho.imag[:, j, i])
        rho.imag[:, i, j] = im
    return rho


# the rank tolerance relative to max_i rho_ii: LAPACK xPSTRF's default, n u
_RANK_TOL = 4 * 2.0**-53


# states without a natural-order factor leave NaN and inf in L and tau, which
# are not used
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _cholesky(E):
    """Lower Cholesky factor (rho = L L^H) of each state of a block of entry arrays.

    Returns L, a mask and the rank tolerances.  L[i, j] (i >= j) is a pair of
    (n,) arrays, the real and imaginary parts of that entry; the diagonal is
    real.  The mask marks the states whose four pivots all exceed their
    tolerance, _RANK_TOL max_i rho_ii (a NaN pivot fails); the factors of the
    others are not used.
    """
    n = len(E[0, 0][0])
    zero = np.zeros(n)
    tol = _RANK_TOL * np.maximum.reduce([E[i, i][0] for i in range(4)])
    np.maximum(tol, 0.0, out=tol)
    ok = np.ones(n, dtype=bool)
    L = {}
    for j in range(4):
        pivot = E[j, j][0]
        for k in range(j):
            x, y = L[j, k]
            pivot = pivot - (x * x + y * y)
        ok &= pivot > tol
        root = np.sqrt(pivot)
        L[j, j] = root, zero
        for i in range(j + 1, 4):
            # rho[i, j] - sum_k L[i, k] conj(L[j, k])
            x, y = E[i, j]
            for k in range(j):
                (a, b), (c, e) = L[i, k], L[j, k]
                x = x - (a * c + b * e)
                y = y - (b * c - a * e)
            L[i, j] = x / root, y / root
    return L, ok, tol


@np.errstate(invalid="ignore", divide="ignore")
def _pivoted(E, tol):
    """A factor W (rho = W W^H) of each state of a block, by Cholesky with complete pivoting.

    Each step takes the largest remaining diagonal as its pivot, and the
    factor stops at rank r once that is <= tol (LAPACK xPSTRF).  W = P^T L
    is kept by the rows of rho, so no row moves.  Returns W as a dict of all
    16 entries (re, im), exactly zero in the columns r and up.
    """
    m = len(tol)
    at = np.arange(m)
    # rho[r, p] at a per-state column p, gathered from a (4, 4, m) view
    rho = np.moveaxis(_pack(E), 0, -1)
    d = rho.real[range(4), range(4)]  # the remaining diagonal (a copy)
    left = np.ones((4, m), dtype=bool)  # rows not yet pivoted
    Wre, Wim = np.zeros((4, 4, m)), np.zeros((4, 4, m))
    live = np.ones(m, dtype=bool)
    for j in range(4):
        p = np.argmax(np.where(left, d, -np.inf), axis=0)
        pivot = d[p, at]
        live &= pivot > tol
        left[p, at] = False
        root = np.sqrt(pivot)
        Wp = [(Wre[p, k, at], Wim[p, k, at]) for k in range(j)]
        for r in range(4):
            # rho[r, p] - sum_k W[r, k] conj(W[p, k])
            x, y = rho.real[r, p, at], rho.imag[r, p, at]
            for k, (c, e) in enumerate(Wp):
                a, b = Wre[r, k], Wim[r, k]
                x = x - (a * c + b * e)
                y = y - (b * c - a * e)
            keep = live & left[r]
            Wre[r, j] = np.where(keep, x / root, 0.0)
            Wim[r, j] = np.where(keep, y / root, 0.0)
            d[r] = d[r] - (Wre[r, j] * Wre[r, j] + Wim[r, j] * Wim[r, j])
        Wre[p, j, at] = np.where(live, root, 0.0)
    return {(i, k): (Wre[i, k], Wim[i, k]) for i in range(4) for k in range(4)}


@np.errstate(invalid="ignore", over="ignore")
def _factor_gram(W):
    """tau^H tau for tau = W^T (Y x Y) W, lower triangle, as a (n, 4, 4) stack.

    W maps (i, k) to the pair of (n,) arrays of that entry; an entry it
    lacks is zero and adds no term.
    """
    # tau[i, j] = sum_k s_k W[k, i] W[3 - k, j] is symmetric; for a lower
    # triangular W it is 0 for i + j > 3
    tau = {}
    for i in range(4):
        for j in range(i, 4):
            ks = [k for k in range(4) if (k, i) in W and (3 - k, j) in W]
            if not ks:
                continue
            re = im = 0.0
            for k in ks:
                (a, b), (c, e) = W[k, i], W[3 - k, j]
                re = re + _FLIP[k] * (a * c - b * e)
                im = im + _FLIP[k] * (a * e + b * c)
            tau[i, j] = tau[j, i] = re, im
    H = np.zeros((len(W[0, 0][0]), 4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1):
            # sum_k conj(tau[k, i]) tau[k, j]
            re = im = 0.0
            for k in range(4):
                if (k, i) in tau and (k, j) in tau:
                    (a, b), (c, e) = tau[k, i], tau[k, j]
                    re = re + (a * c + b * e)
                    im = im + (a * e - b * c)
            H.real[:, i, j] = re
            H.imag[:, i, j] = im
    return H


def _lambdas(E):
    """Decreasing Wootters roots l_i of a block of entry arrays; NaN for a non-finite state."""
    n = len(E[0, 0][0])
    finite = np.ones(n, dtype=bool)
    for re, im in E.values():
        finite &= np.isfinite(re) & np.isfinite(im)
    L, ok, tol = _cholesky(E)
    ok &= finite
    mu = np.full((n, 4), np.nan)
    if ok.any():
        mu[ok] = np.linalg.eigvalsh(_factor_gram(L)[ok])
    rest = np.flatnonzero(finite & ~ok)
    if rest.size:
        mu[rest] = np.linalg.eigvalsh(_factor_gram(_pivoted(_take(E, rest), tol[rest])))
    lam = np.sqrt(np.clip(mu, 0.0, None))
    return lam[..., ::-1]


def _mul(x, y):
    """x y for (re, im) pairs."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _sub(x, y):
    """x - y for (re, im) pairs."""
    (a, b), (c, d) = x, y
    return a - c, b - d


def _pt_entry(E, r, c):
    """rho^{T_B}[r, c] of a block of entry arrays, as an (re, im) pair."""
    if r == c:
        return E[r, r]
    # T_B swaps the second qubit's indices: [2a + b, 2a' + b'] <- [2a + b', 2a' + b]
    i, j = (r & 2) | (c & 1), (c & 2) | (r & 1)
    if i > j:
        return E[i, j]
    re, im = E[j, i]
    return re, -im


# rows 0-1 take the columns (c1, c2) and rows 2-3 the rest, (c3, c4); the
# sign is that of the permutation (c1, c2, c3, c4)
_LAPLACE = (
    (0, 1, 2, 3, 1.0),
    (0, 2, 1, 3, -1.0),
    (0, 3, 1, 2, 1.0),
    (1, 2, 0, 3, 1.0),
    (1, 3, 0, 2, -1.0),
    (2, 3, 0, 1, 1.0),
)
# the signs of the 24 Leibniz products of _pt_terms: within a row of
# _LAPLACE, u and v are the signs of the two products of each minor
_SIGN = np.array([s * u * v for *_, s in _LAPLACE for u in (1.0, -1.0) for v in (1.0, -1.0)])


def _pt_minors(E):
    """Per row of _LAPLACE: its sign, and the two products of each rho^{T_B} minor.

    tops are those of rows 0-1, bots of rows 2-3; a minor is the first less the second.
    """
    A = [[_pt_entry(E, r, c) for c in range(4)] for r in range(4)]
    for c1, c2, c3, c4, sign in _LAPLACE:
        tops = _mul(A[0][c1], A[1][c2]), _mul(A[0][c2], A[1][c1])
        bots = _mul(A[2][c3], A[3][c4]), _mul(A[2][c4], A[3][c3])
        yield sign, tops, bots


def _norm2(E):
    """||rho||_F^2 of each state of a block of entry arrays."""
    norm2 = 0.0
    for (i, j), (re, im) in E.items():
        norm2 = norm2 + (re * re if i == j else 2.0 * (re * re + im * im))
    return norm2


@np.errstate(invalid="ignore", over="ignore")
def _pt_laplace(E):
    """det(rho^{T_B}) of each state of a block of entry arrays, and its band.

    The determinant is the Laplace expansion over the complementary 2 x 2
    minors of rows 0-1 and rows 2-3; the band is BAND ||rho||_F^4 + _FLOOR
    (see the module docstring).
    """
    det = 0.0
    for sign, tops, bots in _pt_minors(E):
        (a, b), (c, d) = _sub(*tops), _sub(*bots)
        term = a * c - b * d
        det = det + term if sign > 0 else det - term
    norm2 = _norm2(E)
    return det, BAND * (norm2 * norm2) + _FLOOR


def _pt_det(block):
    """LU determinant of the partial transpose of each state of a (n, 4, 4) stack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(_partial_transpose(block)).real


def _screen(E):
    """Indices of the states of a block that LU gives det(rho^{T_B}) < 0 or NaN.

    Outside the band the sign of the Laplace expansion is LU's; the states
    inside it, and NaN, are packed and sent to LU.
    """
    det, bound = _pt_laplace(E)
    kept = det < -bound
    unsure = np.flatnonzero(~(np.abs(det) > bound))
    if unsure.size:
        kept[unsure] = ~(_pt_det(_pack(_take(E, unsure))) >= 0.0)
    return np.flatnonzero(kept)


def _concurrence_block(E):
    """Concurrence of each state of a block of entry arrays: the screen, then the kernel."""
    c = np.zeros(len(E[0, 0][0]))
    kept = _screen(E)
    if kept.size:
        lam = _lambdas(_take(E, kept))
        c[kept] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.clip(c, 0.0, 1.0)


def _pt_terms(E):
    """The 24 Leibniz products prod_i rho^{T_B}[i, sigma_i] of a block of entry arrays.

    Returns a (n, 48) array: their real parts, then their imaginary parts,
    each in the order of _SIGN.
    """
    terms = [_mul(top, bot) for _, tops, bots in _pt_minors(E) for top in tops for bot in bots]
    return np.stack([re for re, _ in terms] + [im for _, im in terms], 1)


def _certified_separable(cells, F):
    """(T, C) mask: the state cells[c] o F[t] has det(rho^{T_B}) > 0 beyond round-off.

    cells and F are entry arrays of C and T states; F holds the factors
    themselves, as F = 1 o F.  See the module docstring for BAND.  einsum,
    not a BLAS product: the contraction is small, and gemm would wake the
    BLAS thread pool.
    """
    # Re(c f) = Re c Re f - Im c Im f; the sign goes on one side only
    det = np.einsum("tk,ck->tc", np.concatenate([_SIGN, -_SIGN]) * _pt_terms(F), _pt_terms(cells))
    # ||cells[c] o F[t]||_F^4 <= ||cells[c]||_F^4 max|F[t]|^4, and F_ii = 1
    max2_F = np.maximum.reduce([re * re + im * im for re, im in F.values()])
    bound = np.multiply.outer(max2_F * max2_F, BAND * _norm2(cells) ** 2)
    bound += _FLOOR
    return det > bound


def concurrence_series(rhos):
    """Concurrence of a (..., 4, 4) stack of density matrices.

    Inputs are trusted (no validation); intended for evolved series where
    the construction guarantees the density matrix invariants.  Each state
    is read from its diagonal and lower triangle.  A state with a
    non-finite entry that the screen passes scores NaN.
    """
    rhos = np.asarray(rhos, dtype=complex)
    flat = rhos.reshape(-1, 4, 4)
    c = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], _CHUNK):
        c[start : start + _CHUNK] = _concurrence_block(_entries(flat[start : start + _CHUNK]))
    return c.reshape(rhos.shape[:-2])


def concurrence(rho, validate=True):
    """Concurrence of a single two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if validate:
        validate_two_qubit(rho)
    E = _entries(rho[None, :, :])
    lam = _lambdas(E)[0]
    if not np.all(np.isfinite(lam)):
        raise NumericalError("concurrence eigenvalue computation failed")
    # the screen of concurrence_series, reusing the kernel's lambdas
    value = lam[0] - lam[1] - lam[2] - lam[3] if _screen(E).size else 0.0
    value = float(np.clip(value, 0.0, 1.0))
    return ConcurrenceResult(value=value, lambdas=tuple(float(x) for x in lam))


def x_state_concurrence(p1, p2, v1, v2, gamma_l=0.0):
    """Closed form concurrence of the large-N X state.

    gamma_l is the accumulated local exponent kappa_l^2 Gamma_l(t).  The
    result is max(0, -2 [sqrt(p1(1-p1)p2(1-p2)) - |v1||v2| e^{-2 gamma_l}]),
    which the positivity constraint |v|^2 <= p(1-p), checked by SpinInit,
    pins at zero.
    """
    _real(gamma_l, "gamma_l", 0.0, what="finite and >= 0")
    SpinInit(p1, v1)
    SpinInit(p2, v2)
    root = np.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2))
    return max(0.0, -2.0 * (root - abs(v1) * abs(v2) * np.exp(-2.0 * gamma_l)))


def ppt_negative(rho):
    """True iff the partial transpose over the second qubit has an eigenvalue below -_STATE_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix has non-finite entries")
    pt = _partial_transpose(rho)
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    return bool(w.min() < -_STATE_TOL)
