"""The unit-ball power kernel family and its frequency-side forms.

A member is indexed by a real order alpha in (0, n) for spatial dimension
n.  The real-space density gamma_c * (1 - |x|^2)^(-lam) only exists as a
locally integrable function on the strip 0 < lam < 1; its Fourier
transform, by contrast, extends to the whole family and is the workhorse
here:

    spectral profile(xi) = (2 pi)^nu * J_nu(2 pi |xi|) / (2 pi |xi|)^nu

with nu = (n+1)/(2n) * alpha - 1/2.  The regularized J form keeps the
profile smooth through xi = 0, where it takes the value pi^nu / Gamma(nu+1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .specialfn import _by_band, bessel_j_scaled, bessel_main_term, reciprocal_gamma

__all__ = [
    "KernelValidityError",
    "KernelSpec",
    "lambda_of",
    "gamma_const",
    "omega_physical",
    "omega_hat",
    "omega_hat_jacobi",
    "multiplier_split",
    "write_kernel_tables",
]


class KernelValidityError(ValueError):
    """Parameters outside the family's domain of definition."""


def _check_dim(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise KernelValidityError(f"dimension must be an integer >= 1, got {n!r}")
    n = int(n)
    if n < 1:
        raise KernelValidityError(f"dimension must be >= 1, got {n}")
    return n


def lambda_of(alpha: float, n: int) -> float:
    """Continuation parameter (n+1)/2 * (1 - alpha/n) for alpha in (0, n)."""
    n = _check_dim(n)
    alpha = float(alpha)
    if not (np.isfinite(alpha) and 0.0 < alpha < n):
        raise KernelValidityError(f"order must satisfy 0 < alpha < {n}, got {alpha}")
    return 0.5 * (n + 1) * (1.0 - alpha / n)


@dataclass(frozen=True)
class KernelSpec:
    """One member of the kernel family.

    alpha : order of integration, 0 < alpha < n (open)
    n     : spatial dimension, >= 1
    """

    alpha: float
    n: int

    def __post_init__(self):
        lambda_of(self.alpha, self.n)  # validates both
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "n", int(self.n))

    @property
    def lam(self) -> float:
        return lambda_of(self.alpha, self.n)

    @property
    def bessel_order(self) -> float:
        # n/2 - lam, linear in alpha; ranges over (-1/2, (n+1)/2 - 1/2)
        return (self.n + 1) / (2 * self.n) * self.alpha - 0.5

    @property
    def time_scale_power(self) -> float:
        # exponent coupling the dilation parameter to the order:
        # the radial measure below is r^(time_scale_power * alpha - 1) dr
        return (self.n + 1) / self.n


def gamma_const(spec: KernelSpec) -> float:
    """Normalizing constant pi^(-lam) / Gamma(1 - lam).

    Entire in lam thanks to the reciprocal gamma; vanishes exactly where
    1 - lam hits a nonpositive integer, which is how the continuation
    absorbs what would otherwise be poles of the unnormalized density.
    """
    lam = spec.lam
    return float(np.pi ** (-lam) * reciprocal_gamma(1.0 - lam))


def omega_physical(x, spec: KernelSpec):
    """Real-space kernel density at |x| (scalar or array of radii or points).

    Only defined on the strip 0 < lam < 1, i.e. for orders with
    n (n-1)/(n+1) < alpha < n; elsewhere the family exists only as a
    distribution and this raises.  Zero outside the open unit ball.
    """
    lam = spec.lam
    if not 0.0 < lam < 1.0:
        raise KernelValidityError(
            f"real-space density needs 0 < lam < 1, got lam = {lam:g}"
        )
    r = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(r)
    inside = r < 1.0
    g = gamma_const(spec)
    out[inside] = g * (1.0 - r[inside] ** 2) ** (-lam)
    if np.ndim(x) == 0:
        return float(out[()])
    return out


def omega_hat(xi, spec: KernelSpec):
    """Spectral profile at frequency xi (radial; accepts |xi| or points).

    Smooth at 0 with value pi^nu / Gamma(nu+1); decays like |xi|^(-nu-1/2)
    with an oscillating phase.  Real and even, so it is its own adjoint.
    """
    nu = spec.bessel_order
    rho = 2.0 * np.pi * np.abs(np.asarray(xi, dtype=float))
    out = (2.0 * np.pi) ** nu * np.asarray(bessel_j_scaled(nu, rho))
    if np.ndim(xi) == 0:
        return float(out[()])
    return out


def _jacobi_values(coefs, a, t, x, counts, sizes):
    # (P_(K-1), P_K) of the Jacobi polynomials P^(a,a) at x = 1 - t for each
    # count K in counts (ascending): t and x hold the rules' nodes
    # concatenated in that order, sizes[i] of them for counts[i].  One
    # three-term recurrence runs over all of them, and after step K - 1 the
    # rule of count K is a prefix, read off and dropped.  x p is formed as
    # p - t p, so nodes near s = 1 keep the relative precision of t
    p0 = np.ones_like(t)
    p1 = (a + 1.0) * x
    tp = np.empty_like(t)
    values, degree = [], 1  # p0, p1 hold P_(degree - 1), P_degree
    for nodes, size in zip(counts, sizes):
        for ak, bk in coefs[degree - 1:nodes - 1]:
            np.multiply(t, p1, tp)
            np.subtract(p1, tp, tp)
            np.multiply(tp, ak, tp)
            np.multiply(p0, bk, p0)
            np.subtract(tp, p0, p0)
            p0, p1 = p1, p0
        degree = nodes
        values.append((p0[:size], p1[:size]))
        p0, p1, t, tp = p0[size:], p1[size:], t[size:], tp[size:]
    return values


def _jacobi_rules(counts, a: float) -> list:
    """Gauss rules for the weight (1 - s^2)^a on (-1, 1), a > -1, one per
    node count in counts.

    Returns a list of (s, w) in the order of counts, each with s ascending.
    Newton's method in theta = arccos s runs on the positive half of each
    rule only, from the Gatteschi-Pittaluga guesses (Hale & Townsend, SIAM
    J. Sci. Comput. 35, 2013).  A sweep evaluates every rule still
    iterating with one recurrence pass (_jacobi_values), and each rule
    stops on its own, one pass after its largest step falls to 1e-9, so a
    rule's bits do not depend on the other counts of the call.  The
    weights are 1 / (dP_K/dtheta)^2 scaled to the mass
    sqrt(pi) Gamma(a+1) / Gamma(a+3/2) of the weight, and the negative half
    is the mirror image, so s is exactly antisymmetric and w exactly
    symmetric, with s = 0 the middle node when the count is odd.
    """
    ks = sorted(set(counts))
    # P_(k+1) = A_k x P_k - B_k P_(k-1) for k = 1 .. K - 1, whatever the count K
    k = np.arange(1.0, ks[-1])
    c = k + a
    den = (k + 1.0) * (k + 2.0 * a + 1.0)
    coefs = list(zip(((2.0 * c + 1.0) * (c + 1.0) / den).tolist(),
                     (c * (c + 1.0) / den).tolist()))
    # the positive-half nodes of every rule, concatenated in order of count:
    # rule i holds nodes j = 1 .. K // 2 of count K = ks[i]
    halves = [nodes // 2 for nodes in ks]
    stops = np.cumsum(halves)
    starts = stops - halves
    rule = np.repeat(np.arange(len(ks)), halves)
    count = np.repeat(np.array(ks, dtype=float), halves)
    rho = count + a + 0.5
    phi = (np.arange(1, stops[-1] + 1) - starts[rule] + 0.5 * a - 0.25) * (np.pi / rho)
    theta = phi + (0.25 - a * a) / (2.0 * rho * rho) / np.tan(phi)
    dp = np.empty_like(theta)
    live = np.ones(theta.shape, dtype=bool)
    running, converged = [i for i, half in enumerate(halves) if half], set()
    for _ in range(12):
        if not running:
            break
        th, kl = theta[live], count[live]
        x = np.cos(th)
        values = _jacobi_values(coefs, a, 2.0 * np.sin(0.5 * th) ** 2, x,
                                [ks[i] for i in running], [halves[i] for i in running])
        p0, p1 = (np.concatenate(p) for p in zip(*values))
        # -dP_K/dtheta = sin(theta) P_K'(x) = ((K+a) P_(K-1) - K x P_K) / sin(theta)
        d = ((kl + a) * p0 - kl * x * p1) / np.sin(th)
        step = p1 / d
        dp[live] = d
        theta[live] = th + step
        # a rule stops one pass after its largest step is at most 1e-9 (a
        # nan step counts as large): that pass leaves theta, and dp at it,
        # at rounding level
        late = np.bincount(rule[live][~(np.abs(step) <= 1e-9)], minlength=len(ks))
        still = []
        for i in running:
            if i in converged:
                live[starts[i]:stops[i]] = False
            else:
                still.append(i)
                if not late[i]:
                    converged.add(i)
        running = still
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    s_half = np.cos(theta)
    w_half = 1.0 / (dp * dp)
    rules = {}
    for nodes, start, stop in zip(ks, starts.tolist(), stops.tolist()):
        s, w = s_half[start:stop], w_half[start:stop]
        if nodes % 2:
            # at s = 0 the recurrence is P_(k+1) = -B_k P_(k-1), from P_0 = 1
            p0 = math.prod(-bk for _, bk in coefs[0:nodes - 1:2])
            mid, zero = [1.0 / ((nodes + a) * p0) ** 2], [0.0]
        else:
            mid = zero = []
        s = np.concatenate([-s, zero, s[::-1]])
        w = np.concatenate([w, mid, w[::-1]])
        w *= mass / w.sum()
        rules[nodes] = (s, w)
    return [rules[nodes] for nodes in counts]


def omega_hat_jacobi(xi, spec: KernelSpec):
    """Spectral profile by Gauss-Jacobi quadrature of the physical density.

    Projecting the density onto a line gives the one-dimensional member
    with lam' = lam - (n-1)/2 = 1/2 - nu, so the profile at |xi| is

        pi^(-lam') / Gamma(1 - lam') * integral over |s| < 1 of
        (1 - s^2)^(-lam') cos(2 pi |xi| s) ds,

    and Jacobi nodes carry the endpoint weight exactly.  This shares no
    arithmetic with the Bessel evaluation behind omega_hat, and lam' < 1
    holds for every order, so it covers the whole family.  The |xi| are
    grouped into half-octave bands [0, 1], (1, 2^(1/2)], (2^(1/2), 2], ...,
    and each band has its own rule of K = ceil(3.5 e) + 24 nodes at its
    upper edge e.  All the bands' rules come from one _jacobi_rules call,
    whose Newton sweeps each run one recurrence pass over every rule
    still iterating; a rule's bits are those it has when built alone.
    The Jacobi weight is even and each rule is exactly symmetric by
    construction, so the cosine sum is folded:
    cosines are taken at the K // 2 positive nodes only, with doubled
    weights, plus the middle weight (its node is 0) when K is odd.  Each
    row of cosines is reduced on its own (np.sum along the row), so a
    value depends on its own |xi| only, not on the rest of the call.
    Non-finite frequencies raise ValueError.

    Measured against mpmath.besselj at alpha = 0.1, n = 2 (lam' = 0.925,
    where the weights of the nodes nearest s = +-1 are least accurate), on
    401 points each, the error over omega_hat(0) is 6.9e-13 up to max
    |xi| = 32 and 5.6e-12 up to 64 (r_max times Nyquist on the default
    n = 1 spacetime grid) and up to 128.  The worst sits below 64 whatever
    the call's largest |xi|, since a band's rule does not depend on it.
    """
    lam = 0.5 - spec.bessel_order
    rho = np.abs(np.asarray(xi, dtype=float)).ravel()
    if not np.all(np.isfinite(rho)):
        raise ValueError("frequency must be finite")
    largest = rho.max(initial=0.0)
    edges = [0.0, 1.0]
    while edges[-1] < largest:
        edges.append(2.0 ** (0.5 * (len(edges) - 1)))
    order, bands = _by_band(rho, edges)
    x = rho[order]  # grouped by band; each block's sums replace its arguments
    counts = [math.ceil(3.5 * edge) + 24 for *_, edge in bands]
    rules = _jacobi_rules(counts, -lam) if bands else []
    for (start, stop, _, _), nodes, (s, w) in zip(bands, counts, rules):
        half = nodes // 2
        s_pos = 2.0 * np.pi * s[nodes - half:]
        w_pos = 2.0 * w[nodes - half:]
        step = max(1, 2**16 // half)  # keeps the cosine block at 512 KiB
        for i in range(start, stop, step):
            j = min(i + step, stop)
            block = np.outer(x[i:j], s_pos)
            np.cos(block, out=block)
            block *= w_pos
            np.sum(block, axis=1, out=x[i:j])
        if nodes % 2:
            x[start:stop] += w[half]  # the middle node is 0, where the cosine is 1
    x *= np.pi ** (-lam) * reciprocal_gamma(1.0 - lam)
    rho[order] = x
    if np.ndim(xi) == 0:
        return float(rho[0])
    return rho.reshape(np.shape(xi))


def multiplier_split(xi, spec: KernelSpec):
    """Decompose the profile as a main oscillation plus a remainder.

    Returns (main, rest) with main + rest == omega_hat(xi) exactly (rest
    is defined by subtraction).  The main part is

        |xi|^(-nu) * sqrt(2/(pi rho)) cos(rho - nu pi/2 - pi/4),  rho = 2 pi |xi|,

    equivalently (1/pi) |xi|^(-a) cos(2 pi |xi| - pi a / 2) with
    a = nu + 1/2; the remainder then inherits the Bessel remainder's decay,
    one extra power of 1/|xi| beyond the main term.  Requires xi != 0.
    Each value has the same bits whatever batch it is evaluated in.
    """
    nu = spec.bessel_order
    r = np.abs(np.asarray(xi, dtype=float))
    if r.size and np.any(r == 0.0):
        raise ValueError("multiplier split is undefined at xi = 0")
    rho = 2.0 * np.pi * r
    # |xi|^(-nu) by the scalar power, point by point: numpy's vector power
    # differs from it in the last bit on a few per cent of arguments
    power = np.fromiter((v ** -nu for v in r.flat), float, r.size).reshape(r.shape)
    main = power * np.asarray(bessel_main_term(nu, rho))
    rest = np.asarray(omega_hat(r, spec)) - main
    if np.ndim(xi) == 0:
        return float(main[()]), float(rest[()])
    return main, rest


def _g(value: float) -> str:
    # repr is the shortest decimal that round-trips a 64-bit float
    return repr(float(value))


def write_kernel_tables(spec: KernelSpec, xi_values, x_values,
                        spectral_path, physical_path) -> dict:
    """Write CSV tables of the spectral profile (with its split) and the
    real-space density.

    The spectral table always has a row per frequency; the split columns
    are left empty at xi = 0 where the decomposition is undefined.  The
    physical table is written header-only when the parameters sit outside
    the density's strip, so a refusal is visible in the artifact rather
    than silently absent.  Returns row counts.
    """
    xi_values = np.asarray(xi_values, dtype=float).ravel()
    x_values = np.asarray(x_values, dtype=float).ravel()
    # one batched call per column: each value has the bits of a call on
    # its own point
    profile = omega_hat(xi_values, spec)
    split = xi_values != 0.0
    main, rest = multiplier_split(xi_values[split], spec)
    parts = iter(zip(main.tolist(), rest.tolist()))

    with open(spectral_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "omega_hat", "main", "remainder"])
        for xi, oh, has_split in zip(xi_values.tolist(), profile.tolist(), split.tolist()):
            if has_split:
                w.writerow([_g(xi), _g(oh), *map(_g, next(parts))])
            else:
                w.writerow([_g(xi), _g(oh), "", ""])

    physical_rows = 0
    with open(physical_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "omega"])
        if 0.0 < spec.lam < 1.0:
            density = omega_physical(x_values, spec)
            w.writerows([_g(x), _g(d)] for x, d in zip(x_values.tolist(), density.tolist()))
            physical_rows = int(x_values.size)

    return {"spectral_rows": int(xi_values.size), "physical_rows": physical_rows}
