"""Gamma and Bessel-J evaluation for the kernel's spectral profile.

The orders that arise downstream live in (-1/2, 3/2); everything here is
validated against that open left edge because the large-argument remainder
bound used by the multiplier decomposition is false at nu = -1/2 and below
is not even defined as a convergent envelope.

Two evaluation regimes: the ascending power series for small argument and
the Hankel asymptotic expansion (P/Q form) for large argument.  The switch
point is chosen so both converge to full double precision on their side.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma_fn",
    "reciprocal_gamma",
    "bessel_j",
    "bessel_j_scaled",
    "bessel_main_term",
    "bessel_remainder",
]

# Series/asymptotic handover.  Below the cut the alternating series needs
# ~45 terms at most and loses < 3 digits to cancellation; above it the
# Hankel tail bottoms out well under 1e-16 before it starts diverging.
_SERIES_CUT = 14.0
_SERIES_KMAX = 120
_HANKEL_KMAX = 26

_MIN_ORDER = -0.5


def _as_order(nu: float) -> float:
    nu = float(nu)
    if not np.isfinite(nu) or nu < _MIN_ORDER:
        raise ValueError(f"Bessel order must be a finite number >= -1/2, got {nu}")
    return nu


def _prepare(rho, allow_zero: bool):
    arr = np.asarray(rho, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("argument must be finite and >= 0")
    if not allow_zero and arr.size and np.any(arr == 0.0):
        raise ValueError("argument must be strictly positive here")
    return arr


def _give_back(out: np.ndarray, like) -> np.ndarray | float:
    if np.ndim(like) == 0:
        return float(out[()]) if out.ndim == 0 else float(out[0])
    return out


def _gamma_real(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:  # past x = 171.62
        return math.inf


def gamma_fn(x):
    """Gamma function on the reals, rejecting the poles.

    Nonpositive integers raise instead of returning inf/nan so that a bad
    parameter upstream fails at the call site rather than propagating.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and np.any((arr <= 0.0) & (arr == np.floor(arr))):
        raise ValueError("gamma_fn: argument hits a pole (nonpositive integer)")
    out = np.array([_gamma_real(v) for v in arr.flat]).reshape(arr.shape)
    return _give_back(out, x)


def _rgamma_real(x: float) -> float:
    if x <= 0.0 and x.is_integer():
        return 0.0  # the poles of Gamma are zeros of 1/Gamma
    try:
        g = math.gamma(x)
    except OverflowError:  # Gamma overflows past x = 171.62; 1/Gamma underflows
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def reciprocal_gamma(x):
    """1/Gamma(x) on the reals, entire: poles of Gamma map to exact zeros.

    This is the form the kernel constant needs, since 1 - lambda crosses
    nonpositive integers only in limits.  Evaluated by math.gamma, with
    0.0 past its overflow at x = 171.62.
    """
    arr = np.asarray(x, dtype=float)
    out = np.array([_rgamma_real(v) for v in arr.flat]).reshape(arr.shape)
    return _give_back(out, x)


def _series_sum(nu: float, rho: np.ndarray) -> np.ndarray:
    # sum_k (-z)^k / (k! * Gamma(nu+k+1) / Gamma(nu+1)) with z = rho^2/4,
    # accumulated via the term recurrence t_k = t_{k-1} * (-z) / (k (k+nu)).
    z = 0.25 * rho * rho
    term = np.full(rho.shape, _rgamma_real(nu + 1.0))
    acc = term.copy()
    for k in range(1, _SERIES_KMAX + 1):
        term = term * (-z) / (k * (k + nu))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300)):
            break
    return acc


def _hankel(nu: float, rho: np.ndarray) -> np.ndarray:
    # J_nu ~ sqrt(2/(pi rho)) [P cos(omega) - Q sin(omega)],
    # omega = rho - nu pi/2 - pi/4, with the standard a_k(nu) coefficients.
    # Each element stops at its own first term below 1e-18: the term is
    # zeroed there and stays zero, so a value does not depend on which
    # other arguments share the call.
    mu = 4.0 * nu * nu
    inv = 1.0 / rho
    p = np.ones_like(rho)
    q = np.zeros_like(rho)
    term = np.ones_like(rho)
    for k in range(1, _HANKEL_KMAX + 1):
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) * inv
        term[np.abs(term) < 1e-18] = 0.0
        if not np.any(term):
            break
        sign = 1.0 if (k // 2) % 2 == 0 else -1.0
        if k % 2:
            q = q + sign * term
        else:
            p = p + sign * term
    omega = rho - (0.5 * nu + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * rho)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(nu: float, rho):
    """J_nu(rho) for nu > -1/2 and rho >= 0.

    The half-integer boundary orders reduce to trigonometric closed forms
    and are dispatched to them exactly; they double as the cases where the
    asymptotic remainder vanishes identically, which tests rely on.
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=True)
    flat = np.atleast_1d(arr).astype(float)
    out = np.empty_like(flat)

    pos = flat > 0.0
    if nu == 0.5:
        out[pos] = np.sqrt(2.0 / (np.pi * flat[pos])) * np.sin(flat[pos])
        out[~pos] = 0.0
    elif nu == -0.5:
        out[pos] = np.sqrt(2.0 / (np.pi * flat[pos])) * np.cos(flat[pos])
        out[~pos] = np.inf
    else:
        cut = max(_SERIES_CUT, 2.0 * abs(nu))
        lo = flat <= cut
        if np.any(lo):
            with np.errstate(divide="ignore"):
                pref = (0.5 * flat[lo]) ** nu
            out[lo] = pref * _series_sum(nu, flat[lo])
        if np.any(~lo):
            out[~lo] = _hankel(nu, flat[~lo])
    return _give_back(out, rho)


def bessel_j_scaled(nu: float, rho):
    """J_nu(rho) / rho^nu, continued smoothly through rho = 0.

    This regularized form is what the kernel transform is built from: it
    is analytic in rho^2, so the spectral profile it induces has no cusp
    at the frequency origin.  Value at 0 is 1 / (2^nu Gamma(nu+1)).
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=True)
    flat = np.atleast_1d(arr).astype(float)
    out = np.empty_like(flat)

    cut = max(_SERIES_CUT, 2.0 * abs(nu))
    lo = flat <= cut
    if np.any(lo):
        out[lo] = 0.5**nu * _series_sum(nu, flat[lo])
    if np.any(~lo):
        out[~lo] = _hankel(nu, flat[~lo]) * flat[~lo] ** (-nu)
    return _give_back(out, rho)


def bessel_main_term(nu: float, rho):
    """Leading oscillation sqrt(2/(pi rho)) cos(rho - nu pi/2 - pi/4).

    Defined for rho > 0 only; it blows up at 0 and splitting J there is
    meaningless anyway.
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=False)
    flat = np.atleast_1d(arr).astype(float)
    out = np.sqrt(2.0 / (np.pi * flat)) * np.cos(flat - (0.5 * nu + 0.25) * np.pi)
    return _give_back(out, rho)


def bessel_remainder(nu: float, rho):
    """e_nu(rho) = J_nu(rho) - main term, rho > 0.

    Decays like rho^(-3/2) once rho is past a few units, and is O(rho^(-1/2))
    uniformly down to 0+ because both pieces are; identically zero at the
    half-integer boundary orders.
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=False)
    if nu in (0.5, -0.5):
        out = np.zeros_like(np.atleast_1d(arr).astype(float))
        return _give_back(out, rho)
    j = np.atleast_1d(np.asarray(bessel_j(nu, arr), dtype=float))
    m = np.atleast_1d(np.asarray(bessel_main_term(nu, arr), dtype=float))
    return _give_back(j - m, rho)
