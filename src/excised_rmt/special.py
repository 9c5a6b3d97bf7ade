"""In-house special functions and quadrature helpers.

The integer rule of every count, size and weight, digamma at the
half-integers k/2 in exact finite form, the Glaisher-Kinkelin constant as
a stored high-precision literal, Gauss-Legendre quadrature, two
removable-singularity quotients on numpy arrays, and the rule by which
the closed forms return a float for a scalar argument.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Euler-Mascheroni constant gamma.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

# First Stieltjes constant gamma_1.
STIELTJES_GAMMA1 = -0.072815845483676724860586375874901319137736338334338

# Glaisher-Kinkelin constant A, 30 significant digits.
# Defined by log A = 1/12 - zeta'(-1); the literal below is the standard
# decimal expansion truncated to double precision needs.
GLAISHER = 1.28242712910062263687534256886979172776768892732500

_PI = math.pi
# Gauss-Legendre nodes per interval: the first-angle law and bin averages
_CDF_NODES = 40


def require_integer(name: str, value) -> None:
    """Raise TypeError unless value is an integer.  bool is an Integral but
    never a count, a size or a weight, and 2.0 would fail later inside
    numpy or select nothing."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def digamma_half(k: int) -> float:
    """psi(k/2) for integer weight k >= 1, in its exact finite form:
    -gamma + sum_{j < k/2} 1/j for even k and
    -gamma - 2 log 2 + sum_{j <= (k-1)/2} 2/(2j - 1) for odd k.
    """
    require_integer("weight k", k)
    if k < 1:
        raise ValueError("weight k must be >= 1")
    if k % 2 == 0:
        return math.fsum([-EULER_GAMMA, *(1.0 / j for j in range(1, k // 2))])
    return math.fsum([-EULER_GAMMA, -2.0 * math.log(2.0),
                      *(2.0 / (2 * j - 1) for j in range(1, (k - 1) // 2 + 1))])


def gauss_legendre(lo, hi):
    """Points and weights of the _CDF_NODES-point Gauss-Legendre rule on
    each interval [lo, hi].

    lo and hi broadcast against each other; both results have their shape
    plus a trailing axis of _CDF_NODES, so sum(f(x) * w, axis=-1) is the
    integral of f over each interval, exact for polynomials of degree
    below 2 * _CDF_NODES.
    """
    t, w = np.polynomial.legendre.leggauss(_CDF_NODES)
    lo = np.asarray(lo, dtype=float)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=float)[..., None] - lo)
    return lo + half * (1.0 + t), half * w


def float_or_array(out):
    """out as a float if it is a scalar or 0-d, else as a float array."""
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def sinc2pi(tau):
    """sin(2*pi*tau) / (2*pi*tau), with the removable singularity at 0: np.sinc(2 tau)."""
    return float_or_array(np.sinc(2.0 * np.asarray(tau, dtype=float)))


def sin_ratio(m: int, theta):
    """sin(m*theta) / sin(theta) for integer m, stable near multiples of pi.

    Near theta = s*pi the quotient has a removable singularity with limit
    (-1)^(s*(m-1)) * m; we shift to u = theta - s*pi, |u| <= pi/2, where
    it is (-1)^(s*(m-1)) m sinc(m u) / sinc(u) in numpy's normalized sinc.
    """
    t = np.asarray(theta, dtype=float)
    s = np.rint(t / _PI)
    u = t - s * _PI
    sign = np.where((s.astype(np.int64) * (m - 1)) % 2 == 0, 1.0, -1.0)
    return float_or_array(sign * m * np.sinc(m * u / _PI) / np.sinc(u / _PI))
