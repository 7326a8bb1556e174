"""Gamma and Bessel-J evaluation for the kernel's spectral profile.

The orders that arise downstream live in (-1/2, 3/2); everything here is
validated against that open left edge because the large-argument remainder
bound used by the multiplier decomposition is false at nu = -1/2 and below
is not even defined as a convergent envelope.

Two evaluation regimes: the ascending power series for small argument and
the Hankel asymptotic expansion (P/Q form) for large argument.  The switch
point is chosen so both converge to full double precision on their side.
A call groups its arguments into bands of fixed edges, a few on each side
of the switch, and evaluates each band as polynomials of fixed degree in
Horner form: the series in -rho^2/4, and P and Q in 1/rho^2.  A band's
degree is the one at which the omitted terms fall below 1e-18 where they
are largest in the band, so an argument costs what its band needs, not
what the slowest argument of the call needs, and every value depends on
its own argument only, bit for bit.
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

# Series/asymptotic handover.  Below the cut the alternating series loses
# digits to cancellation as its terms grow (about 2e-11 absolute error at
# worst, just below the cut); above it the Hankel tail bottoms out well
# under 1e-16 before it starts diverging.  Each side is cut into bands of
# fixed edges (the cut is max(_SERIES_CUT, 2|nu|)), and each band is one
# polynomial of fixed degree, set where its terms are largest: at the
# upper edge below the cut (about 10, 16, 22 and 33 terms at orders near
# 0) and at the lower edge above it (26, 21, 14, 10 and 7 terms).
_SERIES_CUT = 14.0
_SERIES_EDGES = (1.0, 3.5, 7.0)
_HANKEL_EDGES = (25.0, 40.0, 100.0, 400.0)
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


def _by_band(x: np.ndarray, edges: list):
    # Groups the values x >= 0 by band: (edges[i], edges[i+1]] for i >= 1,
    # and [0, edges[1]] for the first, with edges[0] = 0 and edges[-1] = inf
    # (or an upper edge that no x exceeds).  Returns the order that groups
    # them (x[order] runs band after band) and (start, stop, lower, upper)
    # of each nonempty band in that order.  The band of a value depends on
    # the value only.
    band = np.zeros(x.shape, dtype=np.uint16)
    for edge in edges[1:-1]:  # a few passes beat a binary search per value
        band += x > edge
    order = np.argsort(band, kind="stable")  # a radix sort on 16-bit keys
    stops = np.cumsum(np.bincount(band, minlength=len(edges) - 1)).tolist()
    starts = [0] + stops[:-1]
    bands = [(start, stop, lower, upper)
             for start, stop, lower, upper in zip(starts, stops, edges, edges[1:])
             if stop > start]
    return order, bands


def _horner(coefs: list, x: np.ndarray, acc: np.ndarray) -> None:
    # acc = sum_k coefs[k] x^k, in place
    acc.fill(coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c


def _series_sum(nu: float, x: np.ndarray, bands: list, out: np.ndarray,
                work: np.ndarray) -> None:
    # out = sum_k c_k (-z)^k, c_k = 1 / (k! Gamma(nu+k+1)), z = x^2/4, for x
    # up to the cut, grouped by band.  A band's polynomial ends at the first
    # term that is at most 1e-18 of the leading one at the band's upper edge.
    np.multiply(x, x, out=work)
    work *= -0.25
    coefs = [_rgamma_real(nu + 1.0)]
    for start, stop, _, upper in bands:
        z = 0.25 * upper * upper
        k, term = 0, 1.0  # term = c_k z^k / c_0
        while term > 1e-18 and k < _SERIES_KMAX:
            k += 1
            term *= z / (k * (k + nu))
            if k == len(coefs):
                coefs.append(coefs[-1] / (k * (k + nu)))
        _horner(coefs[:k + 1], work[start:stop], out[start:stop])


def _hankel(nu: float, x: np.ndarray, bands: list, out: np.ndarray,
            work: np.ndarray) -> None:
    # J_nu ~ sqrt(2/(pi x)) [P cos(omega) - Q sin(omega)], omega = x - nu pi/2
    # - pi/4, for x above the cut, grouped by band, with P = sum_m (-1)^m
    # a_2m y^m and Q = x^-1 sum_m (-1)^m a_(2m+1) y^m in y = x^-2, from the
    # standard a_k(nu).  A band keeps the terms before the first one below
    # 1e-18 at its lower edge.
    mu = 4.0 * nu * nu
    a = [1.0]
    for k in range(1, _HANKEL_KMAX + 1):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [ak if k % 4 < 2 else -ak for k, ak in enumerate(a)]
    np.divide(1.0, x, out=work)
    y = np.multiply(work, work)
    q = np.zeros_like(x)
    for start, stop, lower, _ in bands:
        k = 1
        while k <= _HANKEL_KMAX and abs(a[k]) * lower ** -k >= 1e-18:
            k += 1
        _horner(signed[0:k:2], y[start:stop], out[start:stop])
        if k > 1:
            _horner(signed[1:k:2], y[start:stop], q[start:stop])
    q *= work
    omega = np.subtract(x, (0.5 * nu + 0.25) * np.pi, out=y)
    q *= np.sin(omega)
    out *= np.cos(omega, out=omega)
    out -= q
    work *= 2.0 / np.pi
    out *= np.sqrt(work, out=work)


def _bessel(nu: float, rho: np.ndarray, scaled: bool) -> np.ndarray:
    # J_nu(rho), or J_nu(rho) / rho^nu when scaled, for finite rho >= 0.  The
    # arguments are grouped by band once, and each band is evaluated into
    # its slices of buffers allocated once per call, so a value depends on
    # its own argument only, not on the rest of the call.
    flat = np.array(rho, dtype=float).ravel()
    cut = max(_SERIES_CUT, 2.0 * abs(nu))
    edges = [0.0, *(e for e in _SERIES_EDGES if e < cut), cut,
             *(e for e in _HANKEL_EDGES if e > cut), math.inf]
    order, bands = _by_band(flat, edges)
    x = flat[order]
    out = np.empty_like(x)
    work = np.empty_like(x)
    lo = [b for b in bands if b[3] <= cut]
    n_lo = lo[-1][1] if lo else 0
    if lo:
        _series_sum(nu, x[:n_lo], lo, out[:n_lo], work[:n_lo])
        if scaled:
            out[:n_lo] *= 0.5**nu
        else:
            with np.errstate(divide="ignore"):
                out[:n_lo] *= np.power(0.5 * x[:n_lo], nu, out=work[:n_lo])
    if n_lo < x.size:
        hi = x[n_lo:]
        _hankel(nu, hi, [(start - n_lo, stop - n_lo, lower, upper)
                         for start, stop, lower, upper in bands[len(lo):]],
                out[n_lo:], work[n_lo:])
        if scaled:
            out[n_lo:] *= np.power(hi, -nu, out=work[n_lo:])
    flat[order] = out
    return flat.reshape(np.shape(rho))


def bessel_j(nu: float, rho):
    """J_nu(rho) for nu > -1/2 and rho >= 0.

    The half-integer boundary orders reduce to trigonometric closed forms
    and are dispatched to them exactly; they double as the cases where the
    asymptotic remainder vanishes identically, which tests rely on.
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=True)
    if nu == 0.5 or nu == -0.5:
        flat = np.atleast_1d(arr).astype(float)
        out = np.empty_like(flat)
        pos = flat > 0.0
        trig = np.sin if nu == 0.5 else np.cos
        out[pos] = np.sqrt(2.0 / (np.pi * flat[pos])) * trig(flat[pos])
        out[~pos] = 0.0 if nu == 0.5 else np.inf
        return _give_back(out, rho)
    return _give_back(_bessel(nu, arr, scaled=False), rho)


def bessel_j_scaled(nu: float, rho):
    """J_nu(rho) / rho^nu, continued smoothly through rho = 0.

    This regularized form is what the kernel transform is built from: it
    is analytic in rho^2, so the spectral profile it induces has no cusp
    at the frequency origin.  Value at 0 is 1 / (2^nu Gamma(nu+1)).
    """
    nu = _as_order(nu)
    arr = _prepare(rho, allow_zero=True)
    return _give_back(_bessel(nu, arr, scaled=True), rho)


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
