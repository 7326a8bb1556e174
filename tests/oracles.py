"""Reference values computed by routes the package never takes.

mpmath supplies arbitrary-precision Bessel and Gamma evaluation, a
Gauss-Jacobi rule integrates the compactly supported kernel profile
directly against the oscillation, a complex FFT pair with the centering
shifts and spacing scales stands in for the continuum Fourier transform
(the package's one multiplier apply uses neither), and the exponent
classifier is re-derived in exact rational arithmetic.  Agreement
between these and the package is evidence, not an identity check
against shared code.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import roots_jacobi

mpmath.mp.dps = 40


def bessel_reference(nu: float, rho: float) -> float:
    return float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(rho)))


def scaled_bessel_reference(nu: float, rho: float) -> float:
    """J_nu(rho) / rho^nu with its finite limit at rho = 0."""
    nu = mpmath.mpf(nu)
    if rho == 0.0:
        return float(1 / (2**nu * mpmath.gamma(nu + 1)))
    return float(mpmath.besselj(nu, rho) / mpmath.mpf(rho) ** nu)


def bessel_pair_reference(nu: float, rho) -> tuple:
    """J_nu and J_nu / rho^nu at each rho > 0, from one mpmath.besselj each.

    Taken at 20 digits, which is ample against double-precision errors and
    keeps a few thousand large-argument evaluations affordable.
    """
    with mpmath.workdps(20):
        nu = mpmath.mpf(nu)
        pairs = []
        for r in rho:
            r = mpmath.mpf(float(r))
            j = mpmath.besselj(nu, r)
            pairs.append((float(j), float(j / r**nu)))
    j, scaled = zip(*pairs)
    return np.array(j), np.array(scaled)


def rgamma_reference(x: float) -> float:
    """1/Gamma(x) for a real x."""
    return float(mpmath.rgamma(mpmath.mpf(x)))


def envelope_reference(nu: float, rho: float) -> float:
    """Leading large-argument cosine term sqrt(2/(pi rho)) cos(rho - nu pi/2 - pi/4)."""
    nu, rho = mpmath.mpf(nu), mpmath.mpf(rho)
    phase = rho - nu * mpmath.pi / 2 - mpmath.pi / 4
    return float(mpmath.sqrt(2 / (mpmath.pi * rho)) * mpmath.cos(phase))


def profile_transform_reference(alpha: float, xi: float, nodes: int = 1500) -> float:
    """One-dimensional kernel profile transform by Gauss-Jacobi quadrature.

    The profile gamma_c (1 - u^2)^(-lam) on (-1, 1) carries exactly the
    Jacobi weight with both exponents -lam, so the rule absorbs the
    endpoint singularities and only the smooth cosine gets sampled.
    The normalising constant is evaluated in arbitrary precision.
    """
    lam = mpmath.mpf(1) - mpmath.mpf(alpha)
    gamma_c = mpmath.pi ** (-lam) / mpmath.gamma(1 - lam)
    u, w = roots_jacobi(nodes, -float(lam), -float(lam))
    return float(gamma_c) * float(w @ np.cos(2.0 * np.pi * float(xi) * u))


def zero_frequency_reference(alpha: float, n: int) -> float:
    """Total kernel mass pi^nu / Gamma(nu + 1) at the profile's Bessel order."""
    nu = mpmath.mpf(n + 1) / (2 * n) * mpmath.mpf(alpha) - mpmath.mpf(1) / 2
    return float(mpmath.pi**nu / mpmath.gamma(nu + 1))


def gaussian_lp_reference(width: float, p: float, n: int = 1) -> float:
    """||exp(-pi |x|^2 / w^2)||_p in n dimensions: (w^n / p^{n/2})^{1/p}."""
    w, p = mpmath.mpf(width), mpmath.mpf(p)
    return float((w**n / p ** (mpmath.mpf(n) / 2)) ** (1 / p))


def transform_reference(samples: np.ndarray, axes, spacings) -> np.ndarray:
    """Continuum-normalized DFT over axes, centered order -> FFT layout.

    Approximates F(xi) = integral f(x) exp(-2 pi i x . xi) dx at the
    frequencies numpy.fft.fftfreq(N, spacing), the layout of spectral
    fields: fftn(ifftshift(f)) * prod(spacings), out of place.
    """
    axes = tuple(axes)
    scale = math.prod(float(s) for s in spacings)
    return np.fft.fftn(np.fft.ifftshift(samples, axes=axes), axes=axes) * scale


def inverse_transform_reference(samples: np.ndarray, axes, spacings) -> np.ndarray:
    """Exact inverse of transform_reference over the same axes."""
    axes = tuple(axes)
    scale = math.prod(float(s) for s in spacings)
    return np.fft.fftshift(np.fft.ifftn(samples, axes=axes), axes=axes) / scale


# ---------------------------------------------------------------------------
# exact rational re-derivation of the exponent-region map
#
# Binary64 inputs are exact rationals, and every compared quantity is a
# rational function of them, so each comparison below is decided exactly:
# a zero-width interval computation with no rounding direction to track.

_TOL = Fraction(1e-12)  # the same binary64 tolerance constant the package uses


def classify_reference(inv_p: float, inv_q: float, alpha: float, n: int) -> str:
    ip, iq, a = Fraction(inv_p), Fraction(inv_q), Fraction(alpha)
    t = a / n
    if abs(ip - iq - t) > _TOL:
        return "ScalingViolated"

    lo = Fraction(n - 1, 2 * n) + Fraction(n + 1, 2 * n) * t
    hi = Fraction(n + 1, 2 * n) + Fraction(n - 1, 2 * n) * t
    if abs(ip - lo) <= _TOL or abs(ip - hi) <= _TOL:
        return "Boundary"
    if not lo < ip < hi:
        return "OutsideNecessary"

    # the region threshold is contract data in binary64 (like the 1e-12
    # tolerance): alpha values are floats, and the spec's comparison is
    # against the float closest to n/(n+1), not the unrepresentable real
    if a >= Fraction(n / (n + 1)):
        return "RegionI"

    half = Fraction(1, 2)
    if abs(ip - half) <= _TOL or abs(ip - (half + t)) <= _TOL:
        return "Boundary"
    if half < ip < half + t:
        return "RegionII"
    return "OpenGap"
