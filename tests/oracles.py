"""Reference values computed by routes the package never takes.

mpmath supplies arbitrary-precision Bessel and Gamma evaluation, a
Gauss-Jacobi rule integrates the compactly supported kernel profile
directly against the oscillation, a complex FFT pair with the centering
shifts and spacing scales stands in for the continuum Fourier transform
(the package's one multiplier apply uses neither), mpmath's tanh-sinh
rule integrates the symbol's truncated radial integral, QUADPACK's
algebraic-weight rule integrates the Stein-Weiss potential of a Gaussian
bump across its singular points, the refined radial rules are laid out
from their definition one log step at a time, and the exponent classifier
is re-derived in exact rational arithmetic.  Agreement
between these and the package is evidence, not an identity check
against shared code.  Three entries are instead frozen package code,
which the package must match bit for bit: the per-count Gauss-Jacobi
builder (jacobi_rule_reference), against the one-pass builder, the
symbol contracted once per spatial cell (symbol_per_cell_reference),
against the contraction once per distinct |xi|, and the Lp reduction
over the whole array (lp_reference), against the one over leaves.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad
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


def _jacobi_values_reference(coefs, a, t, x):
    # P_(K-1) and P_K of the Jacobi polynomials P^(a,a) at x = 1 - t, by the
    # three-term recurrence; x p is formed as p - t p, so nodes near s = 1
    # keep the relative precision of t
    p0 = np.ones_like(t)
    p1 = (a + 1.0) * x
    tp = np.empty_like(t)
    for ak, bk in coefs:
        np.multiply(t, p1, out=tp)
        np.subtract(p1, tp, out=tp)
        tp *= ak
        p0 *= bk
        np.subtract(tp, p0, out=p0)
        p0, p1 = p1, p0
    return p0, p1


def jacobi_rule_reference(nodes: int, a: float):
    """Gauss rule for the weight (1 - s^2)^a on (-1, 1), a > -1, built alone.

    The package's per-count builder before its rules shared one recurrence
    pass, frozen as the reference that kernel._jacobi_rules must equal bit
    for bit.

    Returns (s, w) with s ascending.  Newton's method in theta = arccos s
    runs on the positive half only, from the Gatteschi-Pittaluga guesses
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The weights are
    1 / (dP_K/dtheta)^2 scaled to the mass sqrt(pi) Gamma(a+1) / Gamma(a+3/2)
    of the weight, and the negative half is the mirror image, so s is
    exactly antisymmetric and w exactly symmetric, with s = 0 the middle
    node when the count is odd.
    """
    half = nodes // 2
    rho = nodes + a + 0.5
    phi = (np.arange(1, half + 1) + 0.5 * a - 0.25) * (np.pi / rho)
    theta = phi + (0.25 - a * a) / (2.0 * rho * rho) / np.tan(phi)
    # P_(k+1) = A_k x P_k - B_k P_(k-1) for k = 1 .. nodes - 1
    k = np.arange(1.0, nodes)
    c = k + a
    den = (k + 1.0) * (k + 2.0 * a + 1.0)
    coefs = list(zip(((2.0 * c + 1.0) * (c + 1.0) / den).tolist(),
                     (c * (c + 1.0) / den).tolist()))
    converged = False
    for _ in range(12):
        x = np.cos(theta)
        p0, p1 = _jacobi_values_reference(coefs, a, 2.0 * np.sin(0.5 * theta) ** 2, x)
        # -dP_K/dtheta = sin(theta) P_K'(x) = ((K+a) P_(K-1) - K x P_K) / sin(theta)
        dp = ((nodes + a) * p0 - nodes * x * p1) / np.sin(theta)
        step = p1 / dp
        theta += step
        if converged:  # a pass after a 1e-9 step leaves theta, and dp at it, at rounding level
            break
        converged = np.max(np.abs(step), initial=0.0) <= 1e-9
    s = np.cos(theta)
    w = 1.0 / (dp * dp)
    if nodes % 2:
        # at s = 0 the recurrence is P_(k+1) = -B_k P_(k-1), from P_0 = 1
        p0 = math.prod(-bk for _, bk in coefs[0::2])
        mid, zero = [1.0 / ((nodes + a) * p0) ** 2], [0.0]
    else:
        mid = zero = []
    s = np.concatenate([-s, zero, s[::-1]])
    w = np.concatenate([w, mid, w[::-1]])
    w *= math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5) / w.sum()
    return s, w


def symbol_per_cell_reference(grid, spec, quad, path: str) -> np.ndarray:
    """The operator symbol with one row of the radial product per cell.

    The package's symbol assembly before it contracted once per distinct
    |xi|: the weighted profile table is gathered out to every spatial cell
    and the whole (cells x nodes) table is multiplied by the phases, so
    cells that share a radius each get their own, identical, row.  Frozen
    as the reference that conop.symbol must equal bit for bit.
    """
    from conewave.conop import apply_path

    profile = apply_path(path)
    e = spec.time_scale_power * spec.alpha - 1.0
    r = quad.nodes()
    w = quad.measure_weights(e)
    tau = grid.t_freq_axis()
    xi, scatter = np.unique(grid.space.freq_radius().ravel(), return_inverse=True)
    values = profile(np.append(np.outer(r, xi), 0.0), spec)
    table = values[:-1].reshape(r.size, xi.size)
    table *= w[:, None]
    weighted = table[:, scatter]  # (M, space)
    phases = np.outer(r, tau)  # (M, Nt)
    phases *= 2.0 * np.pi
    np.cos(phases, out=phases)
    phases *= 2.0
    m = (weighted.T @ phases).reshape(grid.shape)
    m += 2.0 * quad.completion_mass(e) * float(values[-1])
    return m


def symbol_cells_reference(grid, spec, quad, path: str) -> np.ndarray:
    """The operator symbol on every cell, assembled as the package did
    before its symbol was held as one row per distinct |xi|.

    The profile table is taken once per distinct |xi|, and the cells go
    to the output in blocks in order of |xi|: each block's rows are the
    product of its slice of the table with the phases, copied to its
    cells, and the completion is added to every cell afterwards.  Frozen
    as the reference that conop.symbol(...).array() must equal bit for
    bit.
    """
    from conewave.conop import apply_path

    profile = apply_path(path)
    e = spec.time_scale_power * spec.alpha - 1.0
    r = quad.nodes()
    w = quad.measure_weights(e)
    tau = grid.t_freq_axis()
    xi, scatter = np.unique(grid.space.freq_radius().ravel(), return_inverse=True)
    order = np.argsort(scatter, kind="stable")
    rank = scatter[order]
    values = profile(np.append(np.outer(r, xi), 0.0), spec)
    table = values[:-1].reshape(r.size, xi.size)
    table *= w[:, None]
    phases = np.outer(r, tau)
    phases *= 2.0 * np.pi
    np.cos(phases, out=phases)
    phases *= 2.0
    m = np.empty(grid.shape)
    by_cell = m.reshape(scatter.size, tau.size)
    step = max(1, r.size * scatter.size // (2 * tau.size))
    for start in range(0, scatter.size, step):
        cells, k = order[start:start + step], rank[start:start + step]
        rows = table[:, k[0]:k[-1] + 1].T @ phases
        by_cell[cells] = rows[k - k[0]]
    m += 2.0 * quad.completion_mass(e) * float(values[-1])
    return m


def rule_symbol_reference(grid, spec, path: str, nodes, weights, completion) -> np.ndarray:
    """The operator symbol of an explicit radial rule, summed node by node.

    m = sum_j w_j P(r_j |xi|) 2 cos(2 pi r_j tau) + 2 completion P(0) for
    the path's profile P and a one-sided rule (w_j and completion over
    r > 0, folded onto both signs of r here), with P taken at every
    spatial cell (not once per distinct |xi|) and the nodes accumulated
    one at a time, so it shares no assembly with conop.symbol; the rule
    need not be log-uniform.
    """
    from conewave.conop import apply_path

    profile = apply_path(path)
    radius = grid.space.freq_radius()
    tau = grid.t_freq_axis()
    values = profile(np.append(np.outer(nodes, radius.ravel()), 0.0), spec)
    m = np.full(grid.shape, 2.0 * completion * float(values[-1]))
    rows = values[:-1].reshape(len(nodes), *radius.shape)
    for r, w, row in zip(nodes, weights, rows):
        m += (w * row)[..., None] * (2.0 * np.cos(2.0 * np.pi * r * tau))
    return m


def refined_rule_reference(quad, r_min=None, r_max=None, density: int = 1) -> tuple:
    """quad's log-trapezoid rule refined one way, from its definition:
    (nodes, log weights), in increasing order of the nodes.

    A lower r_min or a higher r_max carries the rule out to it: whole log
    steps of quad past the moved end, then one shorter panel that ends
    exactly there.  A whole density k splits every log step into k.  The
    log positions are laid out one step at a time in Python floats, the
    panels are their differences, and a node's log weight is half of each
    panel it bounds, so the rule shares no arithmetic with conop.
    """
    lo, hi = math.log(quad.r_min), math.log(quad.r_max)
    step = (hi - lo) / (quad.count - 1)
    logs = [lo + j * step / density for j in range(density * (quad.count - 1))] + [hi]
    below, above = [], []
    if r_min is not None:
        x = lo - step
        while x > math.log(r_min):
            below.append(x)
            x -= step
        below = [math.log(r_min)] + below[::-1]
    if r_max is not None:
        x = hi + step
        while x < math.log(r_max):
            above.append(x)
            x += step
        above.append(math.log(r_max))
    logs = np.array(below + logs + above)
    panels = np.diff(logs)
    weights = 0.5 * (np.append(panels, 0.0) + np.append(0.0, panels))
    return np.exp(logs), weights


def zero_frequency_reference(alpha: float, n: int) -> float:
    """Total kernel mass pi^nu / Gamma(nu + 1) at the profile's Bessel order."""
    nu = mpmath.mpf(n + 1) / (2 * n) * mpmath.mpf(alpha) - mpmath.mpf(1) / 2
    return float(mpmath.pi**nu / mpmath.gamma(nu + 1))


def radial_mass_reference(alpha: float, n: int, r_max: float) -> float:
    """2 omega_hat(0) r_max^(B alpha) / (B alpha), B = (n+1)/n: the operator
    symbol at zero frequency for the radial window (0, r_max), which
    integrates the kernel mass against |r|^(B alpha - 1) over both signs."""
    b_alpha = mpmath.mpf(n + 1) / n * mpmath.mpf(alpha)
    mass = 2 * zero_frequency_reference(alpha, n) * mpmath.mpf(r_max) ** b_alpha / b_alpha
    return float(mass)


def truncated_radial_integral_reference(alpha: float, n: int, xi: float, tau: float,
                                        r_max: float, dps: int, panels: int) -> float:
    """The operator symbol at (|xi|, tau) for the radial window (0, r_max).

    The integral of 2 omega_hat(r |xi|) cos(2 pi r tau) r^(B alpha - 1)
    over (0, r_max), with omega_hat(s) = J_nu(2 pi s) / s^nu written out
    from its Bessel order nu and its limit at s = 0, by mpmath's
    tanh-sinh rule on `panels` equal panels at `dps` digits; the rule's
    endpoint clustering absorbs the integrable singularity at r = 0.
    """
    with mpmath.workdps(dps):
        b_alpha = mpmath.mpf(n + 1) / n * mpmath.mpf(alpha)
        nu = b_alpha / 2 - mpmath.mpf(1) / 2
        xi, tau, two_pi = mpmath.mpf(xi), mpmath.mpf(tau), 2 * mpmath.pi
        at_zero = mpmath.pi**nu / mpmath.gamma(nu + 1)

        def integrand(r):
            s = r * xi
            profile = at_zero if s == 0 else mpmath.besselj(nu, two_pi * s) / s**nu
            return 2 * profile * mpmath.cos(two_pi * r * tau) * r ** (b_alpha - 1)

        return float(mpmath.quad(integrand, mpmath.linspace(0, mpmath.mpf(r_max), panels + 1)))


def gaussian_lp_reference(width: float, p: float, n: int = 1) -> float:
    """||exp(-pi |x|^2 / w^2)||_p in n dimensions: (w^n / p^{n/2})^{1/p}."""
    w, p = mpmath.mpf(width), mpmath.mpf(p)
    return float((w**n / p ** (mpmath.mpf(n) / 2)) ** (1 / p))


def lp_reference(samples: np.ndarray, p: float, cell_volume: float, axis=None):
    """(sum |x|^p cell)^(1/p) (max |x| at p = inf), one norm per leading
    index with axis set.

    The package's Lp reduction before it summed leaves of the output as
    they were made: the magnitudes of the whole array at once, pow skipped
    for those at or below 2^(-1080/p), whose p-th power rounds to 0.0, and
    one np.sum.  Frozen as the reference that analysis._lp must equal bit
    for bit.
    """
    mags = np.abs(samples)
    if not np.all(np.isfinite(mags)):
        raise ValueError("field has non-finite samples")
    if math.isinf(p):
        return mags.max(axis=axis)
    tiny = mags <= 2.0 ** (-1080.0 / p)
    mags[tiny] = 1.0
    mags **= p
    mags[tiny] = 0.0
    return (np.sum(mags, axis=axis) * cell_volume) ** (1.0 / p)


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


def _gaussian_bump(u, width, center):
    return math.exp(-math.pi * (u - center) ** 2 / width**2)


def stein_weiss_potential_reference(params, x: float, half: float,
                                    width: float = 1.0, center: float = 0.0) -> float:
    """The potential of stein_weiss_measure at the outer point x != 0, for
    the Gaussian bump exp(-pi (u - center)^2 / width^2) itself (not its
    samples): the integral over [-half, half] of
    g(u) |u|^(-delta_w) |x - u|^(a - N).

    QUADPACK's algebraic-weight rule (QAWS) integrates each piece between
    -half, 0, x and half; a piece's end at 0 or x carries that point's
    power as the weight (u - l)^alpha (r - u)^beta, and the rest of the
    integrand is smooth on the piece.
    """
    powers = {0.0: -params.delta_w, x: params.a - params.N}
    cuts = sorted({-half, 0.0, x, half})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):

        def smooth(u, lo=lo, hi=hi):
            v = _gaussian_bump(u, width, center)
            for point, power in powers.items():
                if point not in (lo, hi):
                    v *= abs(u - point) ** power
            return v

        wvar = (powers.get(lo, 0.0), powers.get(hi, 0.0))
        value, _ = quad(smooth, lo, hi, weight="alg", wvar=wvar,
                        epsabs=0.0, epsrel=1e-13, limit=200)
        total += value
    return total


def stein_weiss_ratio_reference(params, half: float, depth: int, width: float = 1.0,
                                center: float = 0.0, nodes: int = 8) -> float:
    """The measured constant of stein_weiss_measure for the Gaussian bump
    itself: its outer norms on the composite Gauss-Legendre rule over
    [-half, half] that the package refines toward 0 (breaks +-half 2^-k,
    k = 1..depth - 1), with every potential from
    stein_weiss_potential_reference.
    """
    h = half * 0.5 ** np.arange(1, depth)
    cuts = np.concatenate([[-half], -h, [0.0], h[::-1], [half]])
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    mid, rad = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
    xs = (mid[:, None] + rad[:, None] * gx).ravel()
    xw = (rad[:, None] * gw).ravel()
    pot = np.array([stein_weiss_potential_reference(params, float(x), half, width, center)
                    for x in xs])
    f = np.exp(-np.pi * (xs - center) ** 2 / width**2)
    out_norm = np.sum(xw * (np.abs(xs) ** -params.gamma_w * pot) ** params.q) ** (1.0 / params.q)
    in_norm = np.sum(xw * f**params.p) ** (1.0 / params.p)
    return float(out_norm / in_norm)
