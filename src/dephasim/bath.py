"""Bath phase and decay functions for pure dephasing in a thermal boson field.

Every quantity is dimensionless: frequencies are measured in units of the
reference frequency omega_0 (so the temperature enters as
theta = k_B T / (hbar omega_0)), times in units of 1/omega_0, and inverse
temperature as beta = 1/theta.  The coupling form factor is

    f(k) = sqrt(|k|) * chi(|k| <= k_c),

isotropic with a sharp cutoff at the wavenumber k_c = epsilon * theta,
where epsilon = nu_c / nu_T is the ratio of cutoff to thermal frequency.
The three dimensional mode sum is reduced over angles to a radial integral
in omega = |k|, with the solid angle absorbed into the coupling constants,
so that a bath with f as above contributes per unit coupling squared

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
omega + 2 omega/(e^{beta omega} - 1), each part f on its range [0, L]
gives I(f, L, t) = int_0^L f(w) sin^2(w t/2) dw, evaluated for all t at
once with K = 48 Legendre terms and h = L t/2:

- h < K: a fixed Gauss-Legendre rule of 2K nodes on f sin^2, a sum of
  non-negative terms, so nothing cancels against Gamma_inf at small t;
- h >= K: with f(L (1 + x)/2) = sum_k a_k P_k(x) and
  int_{-1}^{1} P_k(x) e^{ihx} dx = 2 i^k j_k(h) (DLMF 10.54.2),
  I = (L/2) a_0 - (L/2) Re[e^{ih} sum_{k<K} a_k i^k j_k(h)], with j_k from
  the upward recurrence of DLMF 10.51.1, which is stable for k < K <= h.

The linear part, on [0, k_c], is exact in two terms.  The Bose part is
analytic in |Im w| < 2 pi/beta and is cut at beta w = 40, where it is
below 1e-15 of its peak 2/beta, so its coefficients decay at a rate that
does not depend on epsilon and one K serves every epsilon.  Gamma_inf is
the sum of the two (L/2) a_0.  As |P_k| <= 1 and |j_k| <= 1, the terms
left out are bounded by (L/2) sum_{k>=K} |a_k|, estimated per part as
L (|a_{K-2}| + |a_{K-1}|); an estimate above 1e-8 Gamma_inf raises
QuadratureError.
"""

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import legendre

from .errors import NumericalError, QuadratureError, ValidationError

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
# Legendre terms K per part of Gamma; the Gauss rule has 2K nodes
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
    k_c : float, optional
        Cutoff wavenumber.  Derived as epsilon * theta when omitted; if
        given it must satisfy that identity to 1e-12 relative.
    form_factor : str
        Only "sqrt-cutoff" is supported.
    """

    epsilon: float = 1.0
    theta: float = 1.0
    k_c: float = None
    form_factor: str = "sqrt-cutoff"

    def __post_init__(self):
        derived = self.epsilon * self.theta
        if not all(0 < v < math.inf for v in (self.epsilon, self.theta, derived)):
            raise ValidationError(
                "epsilon, theta and epsilon*theta must be positive and finite, got %r, %r and %r"
                % (self.epsilon, self.theta, derived)
            )
        if self.k_c is None:
            object.__setattr__(self, "k_c", derived)
        elif not (0 < self.k_c < math.inf) or abs(self.k_c - derived) > 1e-12 * derived:
            raise ValidationError(
                "k_c must be finite and equal epsilon*theta (= %.17g), got %r"
                % (derived, self.k_c)
            )
        if self.form_factor != "sqrt-cutoff":
            raise ValidationError("unsupported form factor %r" % (self.form_factor,))

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
    direct = xb / 3.0 - (np.sin(xb) - xb * np.cos(xb)) / xb**2
    return np.where(small, series, direct)


def phase_S(t, cfg=None):
    """Collective phase S(t), closed form.

    Accepts a scalar or array of finite times t >= 0 and returns matching shape.
    S(0) = 0 and S(t) <= 0 for all t.
    """
    cfg = cfg if cfg is not None else BathConfig()
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValidationError("phase_S requires finite t >= 0")
    out = -(cfg.k_c**2 / 2.0) * _bracket(cfg.k_c * t)
    if not np.all(np.isfinite(out)):
        raise NumericalError("phase_S produced a non-finite value")
    return out if out.ndim else float(out)


# Gauss-Legendre nodes and weights on [-1, 1]; their count is 2K
_RULE = legendre.leggauss(2 * _TERMS)


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
    a = (np.arange(terms) + 0.5) * (fw @ legendre.legvander(x, terms - 1))
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
    beta = cfg.beta
    linear = _sin2_integral(lambda w: w, cfg.k_c, t)
    bose = _sin2_integral(
        lambda w: 2.0 * w / np.expm1(beta * w), min(cfg.k_c, _BOSE_CUT / beta), t
    )
    gamma, saturation, tail = (p + q for p, q in zip(linear, bose))
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
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):
        raise ValidationError("decay_Gamma requires finite t >= 0")
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
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValidationError("dephasing_grid expects a one dimensional time grid")
    if np.any(t < 0):
        raise ValidationError("dephasing_grid requires all t >= 0")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("dephasing_grid requires strictly increasing times")
    # both raise NumericalError on a non-finite value
    return DephasingGrid(t=t, S=phase_S(t, cfg), Gamma=decay_Gamma(t, cfg))
