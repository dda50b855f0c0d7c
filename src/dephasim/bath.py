"""Bath phase and decay functions for pure dephasing in a thermal boson field.

Every quantity is dimensionless: frequencies are measured in units of the
reference frequency omega_0 (so the temperature enters as
theta = k_B T / (hbar omega_0)), times in units of 1/omega_0, and inverse
temperature as beta = 1/theta.  The coupling form factor is

    f(k) = sqrt(|k|) * chi(|k| <= k_c),

isotropic with a sharp cutoff at the wavenumber k_c = epsilon * theta,
where epsilon = nu_c / nu_T is the ratio of cutoff to thermal frequency.
It is the only form factor, so BathConfig holds just epsilon and theta
and derives k_c from them.  The three dimensional mode sum is reduced
over angles to a radial integral in omega = |k|, with the solid angle
absorbed into the coupling constants, so that a bath with f as above
contributes per unit coupling squared

    S(t)     = -(1/2) * int_0^{k_c} omega * (omega t - sin(omega t)) domega
    Gamma(t) = int_0^{k_c} omega * coth(beta omega / 2) * sin^2(omega t / 2) domega.

S is the collective Lamb-type phase, S(0) = 0 and S(t) <= 0, with
asymptotic slope -k_c^3/6.  Gamma is the decoherence exponent,
Gamma(0) = 0 and Gamma(t) >= 0; for this superohmic radial measure it
saturates at Gamma_inf = (1/2) int_0^{k_c} omega coth(beta omega/2) domega,
approached through a slowly decaying sin(k_c t)/t oscillation.

S has the elementary closed form

    S(t) = -(k_c^2 / 2) * [ x/3 - (sin x - x cos x)/x^2 ],   x = k_c t,

evaluated through a Maclaurin branch at small x where the bracket suffers
catastrophic cancellation.  Gamma has no elementary antiderivative
because of the coth factor.  Writing omega coth(beta omega/2) =
omega + 2 omega/(e^{beta omega} - 1) splits it into two parts.

The linear part has a closed form too:

    int_0^{k_c} omega sin^2(omega t/2) domega = (k_c^2 / 2) g(x),
    g(x) = 1/2 - (cos x + x sin x - 1)/x^2,   x = k_c t,

with the Maclaurin branch g(x) = sum_{j>=1} (-1)^{j+1} x^{2j} / ((2j+2) (2j)!)
below x = 2, where the direct form cancels.  Its share of Gamma_inf is
k_c^2/4 and it leaves no tail.

The Bose part f(w) = 2w/(e^{beta w} - 1) on [0, L] gives
I(f, L, t) = int_0^L f(w) sin^2(w t/2) dw, evaluated for all t at once
with K = 48 Legendre terms and h = L t/2:

- h < K: a fixed Gauss-Legendre rule of 2K nodes on f sin^2, a sum of
  non-negative terms, so nothing cancels against Gamma_inf at small t;
- h >= K: with f(L (1 + x)/2) = sum_k a_k P_k(x) and
  int_{-1}^{1} P_k(x) e^{ihx} dx = 2 i^k j_k(h) (DLMF 10.54.2),
  I = (L/2) a_0 - (L/2) Re[e^{ih} sum_{k<K} a_k i^k j_k(h)], with j_k from
  the upward recurrence of DLMF 10.51.1, which is stable for k < K <= h.

The rule's nodes are the roots of P_2K, found by Newton's method from
x_i = cos(pi (i - 1/4)/(2K + 1/2)) with P_2K and its derivative from the
three-term recurrence; the weights are 2/((1 - x^2) P_2K'(x)^2), and both
are symmetrized about 0.  Unlike numpy's leggauss, which takes the nodes
from an eigensolve, this makes no LAPACK call, so importing the module
wakes no BLAS threads.

The Bose part is analytic in |Im w| < 2 pi/beta and is cut at
L = min(k_c, 40/beta), where it is below 1e-15 of its peak 2/beta, so its
coefficients decay at a rate that does not depend on epsilon and one K
serves every epsilon.  Gamma_inf is k_c^2/4 plus the Bose part's
(L/2) a_0.  As |P_k| <= 1 and |j_k| <= 1, the terms left out are bounded
by (L/2) sum_{k>=K} |a_k|, estimated as L (|a_{K-2}| + |a_{K-1}|); an
estimate above 1e-8 Gamma_inf raises QuadratureError.
"""

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import legendre

from .errors import NumericalError, QuadratureError, ValidationError, _real

__all__ = [
    "BathConfig",
    "DephasingGrid",
    "phase_S",
    "decay_Gamma",
    "gamma_saturation",
    "dephasing_grid",
]

# switch S to its Maclaurin branch below this x = k_c*t; the direct form
# cancels like x^5 so it loses ~60*eps/x^5 relative accuracy at small x
_SERIES_X = 0.5
# switch Gamma's linear part to its Maclaurin branch below this x = k_c*t;
# the direct form loses ~1e-15 relative at x = 1 and ~2e-16 from x = 2
_LINEAR_SERIES_X = 2.0
# Maclaurin coefficients of g(x) in powers x^2, x^4, ..., x^22; the first
# one left out is below 3e-18 of g at x = 2
_LINEAR_SERIES = tuple(
    (-1) ** (j + 1) / ((2 * j + 2) * math.factorial(2 * j)) for j in range(1, 12)
)
# Legendre terms K of the Bose part of Gamma; the Gauss rule has 2K nodes
_TERMS = 48
# the Bose part of Gamma is cut at beta * omega = 40
_BOSE_CUT = 40.0
# largest accepted tail estimate, relative to Gamma_inf
_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class BathConfig:
    """Thermal bath with the sqrt-cutoff form factor.

    Parameters
    ----------
    epsilon : float
        Ratio nu_c / nu_T of cutoff to thermal frequency.
    theta : float
        Dimensionless temperature k_B T / (hbar omega_0).

    The cutoff wavenumber k_c = epsilon * theta is derived, not stored,
    so dataclasses.replace on either field moves it too.
    """

    epsilon: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "theta"):
            _real(getattr(self, name), name, math.ulp(0.0), what="positive and finite")
        k_c = _real(self.k_c, "k_c = epsilon*theta", math.ulp(0.0), what="positive and finite")
        # phase_S and decay_Gamma scale by k_c^2
        _real(k_c * k_c, "k_c^2 = (epsilon*theta)^2")

    @property
    def k_c(self):
        """Cutoff wavenumber epsilon * theta."""
        return self.epsilon * self.theta

    @property
    def beta(self):
        """Inverse temperature 1/theta; beta * k_c equals epsilon."""
        return 1.0 / self.theta

    @property
    def nu_T(self):
        """Thermal frequency theta / (2 pi)."""
        return self.theta / (2.0 * math.pi)

    @property
    def nu_c(self):
        """Cutoff frequency k_c / (2 pi)."""
        return self.k_c / (2.0 * math.pi)


@dataclass(frozen=True)
class DephasingGrid:
    """Immutable table of (t, S(t), Gamma(t)) on a shared time grid."""

    t: np.ndarray
    S: np.ndarray
    Gamma: np.ndarray

    def __len__(self):
        return self.t.size


def _bracket(x):
    """x/3 - (sin x - x cos x)/x^2 with a series branch at small x."""
    x = np.asarray(x, dtype=float)
    small = x < _SERIES_X
    xs = np.where(small, x, 1.0)
    # coefficients 1/((2k)!! (2k+3)!!); truncation < 1e-15 relative at x = 0.5
    x2 = xs * xs
    series = (xs * x2) * (
        1.0 / 30.0
        + x2 * (
            -1.0 / 840.0
            + x2 * (
                1.0 / 45360.0
                + x2 * (
                    -1.0 / 3991680.0
                    + x2 * (1.0 / 518918400.0 - x2 / 93405312000.0)
                )
            )
        )
    )
    xb = np.where(small, 1.0, x)
    # xb**2 overflows above x ~ 1.3e154, where the quotient's limit 0 is exact
    with np.errstate(over="ignore"):
        direct = xb / 3.0 - (np.sin(xb) - xb * np.cos(xb)) / xb**2
    return np.where(small, series, direct)


def _floats(x, message):
    """x as a float array; ValidationError(message) if it is not numbers or overflows a float."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, or an int too large for a float
        raise ValidationError(message) from None


def _times(t, cfg, name):
    """t as a float array; ValidationError unless each t is finite and >= 0 and k_c t is finite."""
    t = _floats(t, "%s requires finite t >= 0" % name)
    if t.size:
        lo, hi = float(t.min()), float(t.max())  # a NaN fails both tests
        if not (lo >= 0 and hi < math.inf):
            raise ValidationError("%s requires finite t >= 0" % name)
        if cfg.k_c * hi == math.inf:
            raise ValidationError(
                "%s's input overflows: k_c * t = %r * %r is not finite" % (name, cfg.k_c, hi)
            )
    return t


def phase_S(t, cfg=None):
    """Collective phase S(t), closed form.

    Accepts a scalar or array of finite times t >= 0 and returns matching shape.
    S(0) = 0 and S(t) <= 0 for all t.
    """
    cfg = cfg if cfg is not None else BathConfig()
    t = _times(t, cfg, "phase_S")
    bracket = _bracket(cfg.k_c * t)
    scale = cfg.k_c**2 / 2.0
    # the largest bracket gives the largest |S|, so one float product decides
    if bracket.size and scale * float(bracket.max()) == math.inf:
        raise ValidationError(
            "phase_S's input overflows: |S| at t = %r is not finite" % (float(t.max()),)
        )
    out = -scale * bracket
    return out if out.ndim else float(out)


def _gauss_legendre(n):
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1], by Newton's method."""
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    # four steps reach rounding for n = 96; the fifth is a margin
    for _ in range(5):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


# Gauss-Legendre nodes and weights on [-1, 1]; their count is 2K
_RULE = _gauss_legendre(2 * _TERMS)
# P_k(x_i) for k < K at the nodes of _RULE
_VANDER = legendre.legvander(_RULE[0], _TERMS - 1)


def _linear_part(x):
    """g(x) = 1/2 - (cos x + x sin x - 1)/x^2 with a series branch at small x."""
    out = np.empty(x.shape)
    small = x < _LINEAR_SERIES_X
    x2 = x[small] ** 2
    acc = np.full_like(x2, _LINEAR_SERIES[-1])
    for c in _LINEAR_SERIES[-2::-1]:
        acc = acc * x2 + c
    out[small] = acc * x2
    xb = x[~small]
    # xb * xb overflows above x ~ 1.3e154, where the quotient's limit 0 is exact
    with np.errstate(over="ignore"):
        out[~small] = 0.5 - (np.cos(xb) + xb * np.sin(xb) - 1.0) / (xb * xb)
    return out


def _sin2_integral(f, L, t):
    """I(f, L, t) at every t of a flat array, (L/2) a_0 and the tail estimate.

    f maps omega in (0, L) to the integrand's weight; the branches and the
    estimate are those of the module docstring.
    """
    x, weights = _RULE
    terms = x.size // 2
    w = 0.5 * L * (1.0 + x)
    fw = 0.5 * L * weights * f(w)
    # (L/2) a_k = (k + 1/2) sum_i (L/2) weight_i f(w_i) P_k(x_i)
    a = (np.arange(terms) + 0.5) * (fw @ _VANDER)
    h = 0.5 * L * t
    out = np.empty_like(t)

    near = h < terms
    half_t = 0.5 * t[near]
    acc = np.zeros_like(half_t)
    for wi, ci in zip(w, fw):
        acc += ci * np.sin(wi * half_t) ** 2
    out[near] = acc

    hf = h[~near]
    sin_h, cos_h = np.sin(hf), np.cos(hf)
    inv = 1.0 / hf
    j_prev, j = sin_h * inv, (sin_h * inv - cos_h) * inv
    # i^k a_k: real for even k, imaginary for odd k
    signed = a * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(terms) % 4]
    sums = [signed[0] * j_prev, signed[1] * j]
    for k in range(2, terms):
        j_prev, j = j, (2 * k - 1) * inv * j - j_prev
        sums[k % 2] += signed[k] * j
    out[~near] = a[0] - (cos_h * sums[0] - sin_h * sums[1])
    return out, a[0], 2.0 * (abs(a[-2]) + abs(a[-1]))


def _gamma(t, cfg):
    """Gamma at every t of a flat array, and Gamma_inf."""
    beta, k_c = cfg.beta, cfg.k_c
    bose, bose_inf, tail = _sin2_integral(
        lambda w: 2.0 * w / np.expm1(beta * w), min(k_c, _BOSE_CUT / beta), t
    )
    saturation = 0.25 * k_c * k_c + bose_inf
    gamma = 0.5 * k_c * k_c * _linear_part(k_c * t) + bose
    if tail > _TAIL_TOL * saturation:
        raise QuadratureError(
            "Gamma's Legendre tail estimate %.3g exceeds %g of Gamma_inf = %.17g"
            % (tail, _TAIL_TOL, saturation),
            error_estimate=tail,
        )
    return gamma, saturation


def gamma_saturation(cfg=None):
    """Large-time limit (1/2) int_0^{k_c} omega coth(beta omega/2) domega."""
    cfg = cfg if cfg is not None else BathConfig()
    return float(_gamma(np.zeros(0), cfg)[1])


def decay_Gamma(t, cfg=None):
    """Decoherence exponent Gamma(t) by the Legendre evaluator above.

    Accepts a scalar or array of finite times t >= 0.  Gamma(0) = 0 and
    Gamma(t) >= 0 everywhere.
    """
    cfg = cfg if cfg is not None else BathConfig()
    arr = _times(t, cfg, "decay_Gamma")
    out = _gamma(arr.ravel(), cfg)[0].reshape(arr.shape)
    if not np.all(np.isfinite(out)):
        raise NumericalError("decay_Gamma produced a non-finite value")
    return out if arr.ndim else float(out)


def dephasing_grid(times, cfg=None):
    """Evaluate S and Gamma on an ordered time grid.

    The rows agree with pointwise calls by construction; precomputing a
    grid lets a sweep share one bath evaluation across configurations.
    """
    cfg = cfg if cfg is not None else BathConfig()
    t = _floats(times, "dephasing_grid requires finite t >= 0")
    if t.ndim != 1:
        raise ValidationError("dephasing_grid expects a one dimensional time grid")
    if np.any(t < 0):
        raise ValidationError("dephasing_grid requires all t >= 0")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("dephasing_grid requires strictly increasing times")
    return DephasingGrid(t=t, S=phase_S(t, cfg), Gamma=decay_Gamma(t, cfg))
