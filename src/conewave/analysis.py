"""Norm functionals, inequality checkers, and the exponent-region map.

Everything here is measurement: norms and ratios are computed from sampled
fields and reported as evidence (lower bounds, fitted constants, trends),
never as certified operator norms.  The region classifier, by contrast,
is exact arithmetic on exponents and carries a 1e-12 equality tolerance
only because its inputs are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .conop import RadialQuadrature, _radial_symbol, symbol_applier
from .ensembles import separable_gaussian
from .fields import Field, Grid, SeparableField, SpacetimeField
from .kernel import KernelSpec, _jacobi_rules, omega_hat
from .specialfn import bessel_remainder
from . import fields as _fields

__all__ = [
    "Region",
    "ExponentPoint",
    "classify_exponents",
    "necessary_window",
    "lp_norm",
    "MixedNormSpec",
    "mixed_norms",
    "mixed_norms_refined",
    "SteinWeissParams",
    "InadmissibleParamsError",
    "sw_derived_params",
    "stein_weiss_measure",
    "crucial_estimate_ratio",
    "CaseFit",
    "CaseBoundReport",
    "case_bound_check",
    "RatioStats",
    "ratio_ladder",
    "TrendVerdict",
    "boundedness_verdict",
    "ratio_probes",
]

_EQ_TOL = 1e-12  # classification equality tolerance: pure arithmetic, no noise
_BLOCK = 2**16  # elements per temporary block in the vectorized batteries
# elements per leaf of the Lp reduction (_power_sums): 256 KiB of float64,
# so a leaf's magnitudes and powers stay in cache
_LEAF = 2**15
# terms per run of the Stein-Weiss row build (_sw_rows): a run's temporaries
# stay in cache and add little to the peak resident size
_SW_RUN = 2**13


# ---------------------------------------------------------------------------
# exponent-region classification


class Region(Enum):
    SCALING_VIOLATED = "ScalingViolated"
    OUTSIDE_NECESSARY = "OutsideNecessary"
    REGION_I = "RegionI"
    REGION_II = "RegionII"
    OPEN_GAP = "OpenGap"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ExponentPoint:
    """A candidate (1/p, 1/q, alpha, n) for L^p -> L^q boundedness."""

    inv_p: float
    inv_q: float
    alpha: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("inv_p", "inv_q"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and 0.0 < val < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
            object.__setattr__(self, name, val)
        alpha = float(self.alpha)
        if not (np.isfinite(alpha) and 0.0 < alpha < self.n):
            raise ValueError(f"alpha must lie in (0, {self.n}), got {alpha}")
        object.__setattr__(self, "alpha", alpha)


def necessary_window(alpha: float, n: int) -> tuple:
    """The open interval of 1/p values not excluded by scaling arguments.

    Lower end (n-1)/(2n) + (n+1)/(2n) * alpha/n, upper end with the two
    coefficient roles swapped; boundedness is impossible outside the
    closure, conjectural inside.
    """
    t = alpha / n
    lo = (n - 1) / (2 * n) + (n + 1) / (2 * n) * t
    hi = (n + 1) / (2 * n) + (n - 1) / (2 * n) * t
    return lo, hi


def classify_exponents(pt: ExponentPoint) -> Region:
    """Exactly one label per point; equality within 1e-12 is Boundary.

    Order of decision: scaling line membership first (off-line points are
    ScalingViolated no matter what), then the necessary window, then the
    two proved regions.  alpha >= n/(n+1) points inside the window are
    RegionI, including the equality case, which the high-alpha result
    covers; below that threshold the proved sub-window (1/2, 1/2 + alpha/n)
    is RegionII and the rest of the necessary window is OpenGap.
    """
    n = pt.n
    t = pt.alpha / n
    if abs(pt.inv_p - pt.inv_q - t) > _EQ_TOL:
        return Region.SCALING_VIOLATED

    lo, hi = necessary_window(pt.alpha, n)
    if abs(pt.inv_p - lo) <= _EQ_TOL or abs(pt.inv_p - hi) <= _EQ_TOL:
        return Region.BOUNDARY
    if not lo < pt.inv_p < hi:
        return Region.OUTSIDE_NECESSARY

    if pt.alpha >= n / (n + 1):
        return Region.REGION_I

    lo2, hi2 = 0.5, 0.5 + t
    if abs(pt.inv_p - lo2) <= _EQ_TOL or abs(pt.inv_p - hi2) <= _EQ_TOL:
        return Region.BOUNDARY
    if lo2 < pt.inv_p < hi2:
        return Region.REGION_II
    return Region.OPEN_GAP


# ---------------------------------------------------------------------------
# norms


def lp_norm(f, p: float) -> float:
    """(sum |f|^p cell)^{1/p} on every field kind; max norm at p = inf.

    A SeparableField's norm is the product of its factors' norms, each
    over its own cells (at p = inf the product of their maxima, which is
    exact), so its full samples are never formed.
    """
    if not isinstance(f, (Field, SpacetimeField, SeparableField)):
        raise TypeError("lp_norm acts on fields")
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"exponent must satisfy p > 1, got {p}")
    if isinstance(f, SeparableField):
        g = f.grid
        [space] = _lp(f.space, [p], g.space.cell_volume)
        [time] = _lp(f.time, [p], g.t_spacing)
        return float(space * time)
    return float(_lp(f.samples, [p], f.cell_volume)[0])


def _lp(source, ps, cell_volume: float, by_row: bool = False) -> list:
    # the one Lp reduction: source's p-norm for each p of ps, in order, as
    # numpy scalars.  source is an array, taken in memory order, or an
    # output in progress (real_symbol_apply's last), made a part at a time
    # and never formed whole; a source with a weight(a, b) counts each
    # element of part(a, b) that many times, so an orthant's sums are the
    # full grid's.
    # With by_row, source is an array and each norm is an array of one
    # norm per leading index.  _power_sums gives np.sum's sums bit for
    # bit, and the last step keeps the numpy form of the whole-array
    # reduction: a scalar power for one norm, an array power for a row
    if isinstance(source, np.ndarray):
        rows = source.reshape(len(source), -1) if by_row else source.ravel(order="K")[None]
        part, weight, size = (lambda a, b: rows[:, a:b]), None, rows.shape[1]
    else:
        part, weight, size = source.part, getattr(source, "weight", None), source.size
    sums = _power_sums(part, weight, 0, size, ps)
    if not by_row:
        sums = [s[0] for s in sums]
    return [s if math.isinf(p) else (s * cell_volume) ** (1.0 / p) for s, p in zip(sums, ps)]


def _power_sums(part, weight, start: int, n: int, ps) -> list:
    # sum |x|^p (max |x| at p = inf) over elements start..start+n-1 of each
    # row of part(a, b), which gives elements a..b-1 of every row, one
    # array of row values per p of ps; unless weight is None, each power
    # is multiplied by its element's weight(a, b) first.  A range longer
    # than _LEAF is split where numpy's pairwise_sum splits it (n // 2
    # rounded down to a multiple of 8), and every part of at most _LEAF
    # elements is summed by np.sum, which runs that same pairwise_sum on
    # it; 0.0 + s == s for these nonnegative sums, so each total is
    # np.sum's over the whole row bit for bit.  A module-level recursion, not a closure over the
    # source: a nested function that called itself would form a cycle and
    # keep the source (a member's spectrum) alive until the cyclic
    # collector ran
    if n > _LEAF:
        half = n // 2 - n // 2 % 8
        left = _power_sums(part, weight, start, half, ps)
        right = _power_sums(part, weight, start + half, n - half, ps)
        return [np.maximum(a, b) if math.isinf(p) else a + b
                for a, b, p in zip(left, right, ps)]
    # pow takes libm's slow scalar path on zeros, subnormals and arguments
    # whose power underflows, and Gaussian tails are mostly such arguments.
    # Any x <= 2^(-1080/p), zero included, has x^p below 2^-1080, which
    # rounds to 0.0, so those terms are set to 0.0 without pow; every term
    # keeps its bits.  The last p takes the magnitudes in place
    mags = np.abs(part(start, start + n))
    if not np.all(np.isfinite(mags)):
        raise ValueError("field has non-finite samples")
    counts = None if weight is None else weight(start, start + n)
    sums = []
    for i, p in enumerate(ps):
        if math.isinf(p):
            sums.append(mags.max(axis=-1))
            continue
        terms = mags if i == len(ps) - 1 else mags.copy()
        tiny = terms <= 2.0 ** (-1080.0 / p)
        terms[tiny] = 1.0
        terms **= p
        terms[tiny] = 0.0
        if counts is not None:
            terms *= counts
        sums.append(terms.sum(axis=-1))
    return sums


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponents and radial grid for the mixed norm in (x, r).

    s is the outer exponent in r, q the inner one in x; the estimate being
    probed interpolates from s = q, and only s >= q > 1 makes sense here
    (the q-norm of a convolution is an lp_norm, which needs q > 1).
    """

    q: float
    s: float
    alpha: float
    r_grid: RadialQuadrature

    def __post_init__(self):
        q, s = float(self.q), float(self.s)
        if not (np.isfinite(q) and np.isfinite(s)):
            raise ValueError("mixed-norm exponents must be finite")
        if not 1.0 < q <= s:
            raise ValueError(f"need s >= q > 1, got q={q}, s={s}")
        if not float(self.alpha) > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "alpha", float(self.alpha))


def mixed_norms(fields, spec: KernelSpec, mn: MixedNormSpec) -> list:
    """( integral r^(alpha s) ||f * Omega_r||_q^s dr/r )^(1/s) over the r
    grid, for each of one or more fields f on one grid, in order.

    Physical-space route: each f is transformed once (real_symbol_apply),
    the profile is evaluated once per node on the distinct |xi| values and
    scattered back, and blocks of nodes are transformed back together
    along a leading axis; the q-norm of each node's convolution is taken
    on its physical samples.  The profile depends only on the grid, the
    kernel and the r grid, so each block of it is evaluated once and
    applied to every field; a field's value does not depend on the others
    measured with it, bit for bit.  The (0, r_min) mass is restored in
    closed form: there the convolution tends to omega_hat(0) * f, so the
    integrand's limit is known exactly.
    """
    fields = _mixed_norm_inputs(fields, spec, mn)
    f_norms = [lp_norm(f, mn.q) for f in fields]
    rows = _node_norms(fields, spec, mn.q, mn.r_grid.nodes())
    return [_mixed_norm_total(row, f_norm, spec, mn) for row, f_norm in zip(rows, f_norms)]


def mixed_norms_refined(fields, spec: KernelSpec, mn: MixedNormSpec, index: int) -> tuple:
    """(mixed_norms(fields, spec, mn), the mixed norm of fields[index] on
    mn's r grid at twice the node density), the second bit for bit
    mixed_norms' on mn.r_grid.refined(density=2).

    The doubled rule keeps every node of mn's as every second node, so the
    profile is evaluated once more on the midpoints alone, for
    fields[index] alone, and the base nodes' norms of that field are
    reused.
    """
    fields = _mixed_norm_inputs(fields, spec, mn)
    target = fields[index]
    f_norms = [lp_norm(f, mn.q) for f in fields]
    base = mn.r_grid
    rows = _node_norms(fields, spec, mn.q, base.nodes())
    fine = MixedNormSpec(mn.q, mn.s, mn.alpha, base.refined(density=2))
    row = np.empty(fine.r_grid.count)
    row[::2] = rows[index]
    row[1::2] = _node_norms([target], spec, mn.q, fine.r_grid.nodes()[1::2])[0]
    return ([_mixed_norm_total(r, f_norm, spec, mn) for r, f_norm in zip(rows, f_norms)],
            _mixed_norm_total(row, f_norms[index], spec, fine))


def _mixed_norm_inputs(fields, spec: KernelSpec, mn: MixedNormSpec) -> list:
    # the fields as a list, refused unless mixed_norms can measure them all
    fields = list(fields)
    if not fields:
        raise ValueError("mixed_norms needs at least one field; the input is empty")
    for f in fields:
        if not isinstance(f, Field):
            raise TypeError("mixed_norms acts on spatial fields")
        if spec.n != f.grid.n:
            raise ValueError(f"kernel dimension {spec.n} != grid dimension {f.grid.n}")
    if len({f.grid for f in fields}) > 1:
        raise ValueError("mixed_norms needs fields on one grid")
    if spec.alpha != mn.alpha:
        raise ValueError(
            f"kernel alpha {spec.alpha:g} != mixed-norm alpha {mn.alpha:g}"
        )
    return fields


def _node_norms(fields, spec: KernelSpec, q: float, r: np.ndarray) -> np.ndarray:
    # ||f * Omega_r||_q of each field (rows) at each node of r (columns).
    # Each block of the profile is evaluated once and applied to every
    # field; a node's norm does not depend on the block it falls in, so a
    # rule's nodes may be measured in parts
    grid = fields[0].grid
    applies = [_fields.real_symbol_apply(f.samples) for f in fields]
    xi, scatter = np.unique(grid.freq_radius().ravel(), return_inverse=True)
    norms = np.empty((len(fields), r.size))
    step = max(1, _BLOCK // scatter.size)
    for i in range(0, r.size, step):
        prof = omega_hat(np.outer(r[i:i + step], xi), spec)[:, scatter]
        prof = prof.reshape((-1,) + grid.shape)
        for k, apply in enumerate(applies):
            norms[k, i:i + step] = _lp(apply(prof), [q], grid.cell_volume, by_row=True)[0]
    return norms


def _mixed_norm_total(row: np.ndarray, f_norm: float, spec: KernelSpec,
                      mn: MixedNormSpec) -> float:
    # the radial sum of one field's node norms on mn's r grid, with the
    # (0, r_min) mass restored in closed form
    quad = mn.r_grid
    total = float(np.sum(quad.measure_weights(mn.alpha * mn.s - 1.0) * row**mn.s))
    total += quad.completion_mass(mn.alpha * mn.s - 1.0) * (omega_hat(0.0, spec) * f_norm) ** mn.s
    return float(total ** (1.0 / mn.s))


# ---------------------------------------------------------------------------
# weighted one-dimensional inequality checker


class InadmissibleParamsError(ValueError):
    """Parameter set outside the inequality's admissible range."""


@dataclass(frozen=True)
class SteinWeissParams:
    """Exponents of the weighted inequality

        || |x|^(-gamma_w) integral f(u) |u|^(-delta_w) |x-u|^(a-N) du ||_q
            <= C ||f||_p.

    The kernel power a must lie in (0, N) for the potential to exist at
    all; the four admissibility conditions on top of that are checked by
    constraint_failures, not the constructor, so inadmissible-but-
    meaningful sets can still be probed deliberately.
    """

    N: int
    a: float
    gamma_w: float
    delta_w: float
    p: float
    q: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        for name in ("a", "gamma_w", "delta_w", "p", "q"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
            object.__setattr__(self, name, val)
        if not 0.0 < self.a < self.N:
            raise ValueError(f"kernel power must lie in (0, {self.N}), got {self.a}")
        for name in ("p", "q"):
            if not getattr(self, name) > 1.0:
                raise ValueError(f"{name} must exceed 1, got {getattr(self, name)}")

    def constraint_failures(self) -> list:
        """Names of the admissibility conditions this set violates.

        All four are required: the two weight bounds are strict (equality
        already breaks the inequality), the joint weight bound allows
        equality, and the scaling relation is an exact identity.
        """
        fails = []
        if not self.gamma_w < self.N / self.q:
            fails.append(f"gamma_w < N/q (got {self.gamma_w:g} >= {self.N / self.q:g})")
        dual = self.N * (self.p - 1.0) / self.p
        if not self.delta_w < dual:
            fails.append(f"delta_w < N(p-1)/p (got {self.delta_w:g} >= {dual:g})")
        if not self.gamma_w + self.delta_w >= 0.0:
            fails.append(
                f"gamma_w + delta_w >= 0 (got {self.gamma_w + self.delta_w:g})"
            )
        gap = self.a / self.N - (
            1.0 / self.p - 1.0 / self.q + (self.gamma_w + self.delta_w) / self.N
        )
        if abs(gap) > _EQ_TOL:
            fails.append(f"a/N = 1/p - 1/q + (gamma_w+delta_w)/N (off by {gap:.3e})")
        return fails

    def admissible(self) -> bool:
        return not self.constraint_failures()


def sw_derived_params(alpha: float, n: int) -> SteinWeissParams:
    """The one-dimensional weighted-inequality exponents that the kernel
    composition argument needs at order alpha in dimension n.

    q is pinned by alpha/n = 1/2 - 1/q, p is its conjugate, the two weight
    exponents are equal at 1/q - (n-1) alpha / (2n), and the kernel power
    follows from the scaling identity, a = 2(alpha/n + gamma_w).  For
    n = 1 the set is degenerate: gamma_w hits N/q exactly and a hits N, so
    it is rejected by construction; from n = 2 on it is strictly
    admissible.  A published statement of this reduction carries the
    kernel power with the opposite sign on gamma_w, a = 2(alpha/n -
    gamma_w), which fails the scaling identity; the derived value is used
    here and the discrepancy is surfaced by the CLI report.
    """
    n = int(n)
    if n < 1 or not 0.0 < alpha < n:
        raise ValueError(f"need 0 < alpha < n with n >= 1, got alpha={alpha}, n={n}")
    inv_q = 0.5 - alpha / n
    if not 0.0 < inv_q < 0.5:
        raise ValueError(f"derived 1/q = {inv_q:g} leaves (0, 1/2); alpha too large")
    q = 1.0 / inv_q
    p = q / (q - 1.0)
    gamma = inv_q - (n - 1) * alpha / (2.0 * n)
    a = 2.0 * (alpha / n + gamma)
    return SteinWeissParams(N=1, a=a, gamma_w=gamma, delta_w=gamma, p=p, q=q)


@lru_cache(maxsize=32)
def _gl_rule(nodes: int):
    # Gauss-Legendre is the Gauss-Jacobi rule of weight (1 - s^2)^0; every
    # caller shares the cached arrays, so they are read-only
    rule = _jacobi_rules([nodes], 0.0)[0]
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _dyadic_panels(a: float, b: float, singular: np.ndarray, depth: int):
    """Panels of one composite rule per row of `singular`, halving
    dyadically toward each of the row's singular points in (a, b).

    Each row's breaks are a, b, and every singular point s with
    s +- (b - a) / 2^k, k = 1..depth, that falls strictly inside (a, b);
    breaks closer than 1e-15 of the span to their predecessor are merged.
    Returns (lo, width, row): the panels of every rule, row by row, each
    row's panels in increasing order.
    """
    span = b - a
    h = span * 0.5 ** np.arange(1, depth + 1)
    near = singular[:, :, None] + np.concatenate([[0.0], -h, h])  # (rows, S, 2 depth + 1)
    near[:, :, 1:][(near[:, :, 1:] <= a) | (near[:, :, 1:] >= b)] = np.nan
    ends = np.broadcast_to([a, b], (singular.shape[0], 2))
    cuts = np.sort(np.concatenate([ends, near.reshape(len(singular), -1)], axis=1), axis=1)
    keep = np.ones(cuts.shape, dtype=bool)  # NaN sorts last and is never kept
    keep[:, 1:] = np.diff(cuts, axis=1) > 1e-15 * max(abs(span), 1.0)
    row = np.nonzero(keep)[0]
    cuts = cuts[keep]
    inner = row[1:] == row[:-1]
    lo = cuts[:-1][inner]
    return lo, cuts[1:][inner] - lo, row[:-1][inner]


def _sw_points(lo, width, gx):
    # lo + width (gx + 1) / 2: the Gauss points of each panel, one row per panel
    pts = np.multiply(width[:, None], gx[None, :] + 1.0)
    pts *= 0.5
    pts += lo[:, None]
    return pts


def _sw_geometry(half: float, depth: int, nodes: int):
    """The composite Gauss-Legendre rules of stein_weiss_measure on
    [-half, half], with `nodes` points per panel.

    Returns (xs, xw, lo, width, offsets).  (xs, xw) is the outer rule,
    refined toward 0.  The inner rule of outer node i, refined toward 0
    and xs[i], is the run of panels (lo, width) whose terms (one per panel
    and Gauss point) sit at offsets[i]:offsets[i + 1] of the panel-major
    order.  Nothing here depends on the field, its grid or the exponents.
    """
    gx, gw = _gl_rule(nodes)
    lo, width, _ = _dyadic_panels(-half, half, np.zeros((1, 1)), depth)
    xs = _sw_points(lo, width, gx).ravel()
    xw = (width[:, None] * gw[None, :] * 0.5).ravel()
    lo, width, owner = _dyadic_panels(
        -half, half, np.column_stack([np.zeros_like(xs), xs]), depth)
    offsets = np.searchsorted(owner, np.arange(xs.size + 1)) * nodes
    out = (xs, xw, lo, width, offsets)
    for arr in out:
        arr.setflags(write=False)
    return out


def _sw_rows(geom, half: float, nodes: int, points: int, exponents) -> tuple:
    """The potentials of stein_weiss_measure as rows of product-integration
    weights on the grid samples, for each pair (a - N, delta_w) of
    exponents: ([data per pair], cols, indptr).

    The potential at outer node x is the inner rule's sum of
    w |u - x|^(a - N) |u|^(-delta_w) f(u), and f(u) is the linear
    interpolant of the samples, zero outside the first and last sample;
    so it is linear in the samples.  Each term's coefficient goes as
    (1 - theta, theta) to the two samples around u; a term outside the
    samples keeps its place with a zero coefficient, so every row has
    entries.  Row i holds the summed coefficients of outer node i, one per
    sample it touches, in column order, from data[indptr[i]] to the next
    row's start.  The terms of a row come in increasing u, so their keys
    row * points + column are sorted: one segmented sum collects the terms
    of each left sample, and a right neighbour that is the next left
    sample is added into it, with no sort.  Which samples a row touches
    does not depend on the exponents, so every pair shares cols and indptr,
    and a run's positions, splits and segments serve every pair; each pair
    adds its coefficients and their two segmented sums.  The rows are
    built a run of outer nodes at a time (at most _SW_RUN terms, or one
    node's), which bounds the temporaries.  A first pass over the runs
    finds only the segments, to count each row's entries, and the second
    writes every row into arrays of their final size: holding the rows in
    pieces until the end would double the pass's peak.
    """
    xs, _, lo, width, offsets = geom
    gx, gw = _gl_rule(nodes)
    # the samples sit where Grid.axis() puts them
    h = 2.0 * half / points
    grid_x = (np.arange(points) - points // 2) * h
    ends = offsets // nodes  # each outer node's panels
    runs = []
    k0 = 0
    while k0 < xs.size:
        k1 = int(np.searchsorted(offsets, offsets[k0] + _SW_RUN, side="right")) - 1
        k1 = max(k1, k0 + 1)
        runs.append((k0, k1))
        k0 = k1

    def segments(k0, k1):
        # the run's terms u, their rows within the run and their left
        # samples, and the segments: where the terms of each left sample
        # start, that sample's key row * points + column, and whether its
        # right neighbour is the next segment's left sample
        panels = slice(ends[k0], ends[k1])
        row = np.repeat(np.arange(k1 - k0), np.diff(ends[k0:k1 + 1]))
        u = _sw_points(lo[panels], width[panels], gx)
        t = u / h
        t += points // 2
        col = t.astype(np.intp)
        np.clip(col, 0, points - 2, out=col)
        keys = ((row * points)[:, None] + col).ravel()
        starts = np.flatnonzero(keys[1:] != keys[:-1])
        starts += 1
        starts = np.concatenate(([0], starts))
        keys = keys[starts]
        return panels, row, u, col, starts, keys, keys[1:] == keys[:-1] + 1

    # each row's entries: two per left sample, less the right neighbours merged
    counts = []
    for k0, k1 in runs:
        *_, keys, merged = segments(k0, k1)
        row = keys // points
        counts.append(np.bincount(row, minlength=k1 - k0) * 2
                      - np.bincount(row[1:][merged], minlength=k1 - k0))
    indptr = np.zeros(xs.size + 1, dtype=np.intp)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    datas = [np.empty(indptr[-1]) for _ in exponents]
    cols = np.empty(indptr[-1], dtype=np.intp)
    for k0, k1 in runs:
        panels, row, u, col, starts, keys, merged = segments(k0, k1)
        # theta from the sample's own position, as np.interp takes it
        theta = u - grid_x[col]
        theta /= h
        theta = theta.ravel()
        held = np.ones((starts.size, 2), dtype=bool)
        held[:-1, 1] = ~merged
        out = slice(indptr[k0], indptr[k1])
        left = keys % points
        cols[out] = np.column_stack([left, left + 1])[held]
        dist = u - xs[k0 + row, None]
        np.abs(dist, out=dist)
        mag = np.abs(u)
        weight = np.multiply(width[panels, None], gw[None, :])
        # np.interp(..., left=0, right=0) is 0 outside the samples: such a
        # term keeps its place in the row with a zero coefficient
        outside = (u < grid_x[0]) | (u > grid_x[-1])
        for data, (power, delta_w) in zip(datas, exponents):
            coef = np.power(dist, power)
            coef *= mag ** -delta_w
            coef *= weight
            coef *= 0.5
            coef[outside] = 0.0
            coef = coef.ravel()
            # the terms of one left sample, then each sum's right
            # neighbour; a right neighbour that is the next left sample
            # merges into it
            right = coef * theta
            coef -= right
            pair = np.empty((starts.size, 2))
            pair[:, 0] = np.add.reduceat(coef, starts)
            pair[:, 1] = np.add.reduceat(right, starts)
            np.add(pair[1:, 0], pair[:-1, 1], out=pair[1:, 0], where=merged)
            data[out] = pair[held]
    return datas, cols, indptr[:-1]


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def stein_weiss_measure(params_sets, grid: Grid, depth: int = 12, nodes_per_panel: int = 8,
                        allow_inadmissible=()):
    """The measurer of the weighted inequality's constant on `grid` under
    each of one or more exponent sets: measure(f) gives the measured
    constant of f under each set, in set order.

    Direct one-dimensional quadrature: the potential integral refines
    dyadically toward its singular points u = 0 and u = x, the outer norm
    toward x = 0, both over the grid's box.  The potentials are linear in
    the field's samples, so the inner rules, the powers of the kernel and
    the weights, and the interpolation onto the samples fold into one
    sparse row of weights per outer node.  The measurer builds every set's
    rows in one pass that finds their exponent-free structure once
    (_sw_rows), and holds them until it goes.  A call then takes each
    set's potentials with one gather, one product and one segmented sum,
    and interpolates the field only onto the outer nodes, for the input
    norm.  It takes a real, nonnegative, finite field on `grid` alone.

    Inadmissible parameter sets raise before any work, naming every
    violated condition, unless allow_inadmissible names them: that runs
    them anyway, which is exactly how the failure of the inequality is
    demonstrated (the measured value then tracks the truncation depth
    instead of converging).  A set measured beside a deliberately
    inadmissible one is held to the same guard as when it is measured
    alone.
    """
    depth = _positive_int(depth, "depth")
    nodes = _positive_int(nodes_per_panel, "nodes_per_panel")
    params_sets = list(params_sets)
    if not params_sets:
        raise ValueError("stein_weiss_measure needs at least one exponent set")
    for params in params_sets:
        fails = params.constraint_failures()
        if fails and params not in allow_inadmissible:
            raise InadmissibleParamsError("; ".join(fails))
        if params.N != 1:
            raise ValueError("direct quadrature is implemented for N = 1")
    if not isinstance(grid, Grid) or grid.n != 1:
        raise TypeError("stein_weiss_measure takes a one-dimensional spatial grid")

    half = grid.extent / 2.0
    geom = _sw_geometry(half, depth, nodes)
    xs, xw = geom[:2]
    datas, cols, indptr = _sw_rows(geom, half, nodes, grid.points,
                                   [(params.a - params.N, params.delta_w) for params in params_sets])
    x_weights = [np.abs(xs) ** -params.gamma_w for params in params_sets]
    axis = grid.axis()

    def measure(f) -> list:
        fr = _sw_samples(f, grid)
        outer = np.interp(xs, axis, fr, left=0.0, right=0.0)
        out = []
        for params, data, x_weight in zip(params_sets, datas, x_weights):
            pot = np.add.reduceat(data * fr[cols], indptr)
            weighted = x_weight * pot
            out_norm = float(np.sum(xw * weighted**params.q) ** (1.0 / params.q))
            in_norm = float(np.sum(xw * outer**params.p) ** (1.0 / params.p))
            if in_norm == 0.0:
                raise ValueError("input field is identically zero")
            out.append(out_norm / in_norm)
        return out

    return measure


def _sw_samples(f, grid: Grid) -> np.ndarray:
    # the real samples of f, refused unless f is a finite, real,
    # nonnegative field on the measurer's grid
    if not isinstance(f, Field) or f.grid.n != 1:
        raise TypeError("stein_weiss_measure takes a one-dimensional spatial field")
    if f.grid != grid:
        raise ValueError(f"the field's grid {f.grid} is not the measurer's {grid}")
    vals = f.samples
    # the comparisons below are False on NaN, so refuse non-finite samples first
    if not np.all(np.isfinite(vals)):
        raise ValueError("field has non-finite samples")
    # a float64 field is real by type; only complex samples are scanned
    if np.iscomplexobj(vals) and (
            np.max(np.abs(vals.imag)) > 1e-12 * max(np.max(np.abs(vals)), 1e-300)):
        raise ValueError("input must be real and nonnegative")
    fr = vals.real
    if fr.min() < -1e-12 * max(fr.max(), 1e-300):
        raise ValueError("input must be nonnegative")
    return fr


# ---------------------------------------------------------------------------
# composition (two-kernel) estimate and its case-by-case symbol bound


def crucial_estimate_ratio(spec: KernelSpec, q: float, r: float, s: float,
                           f: Field) -> float:
    """||f * Omega_r * reflected Omega_s||_q against its predicted envelope.

    The envelope is r^(-A) |r-s|^(-(n-1)/n alpha) s^(-A) ||f||_{q'},
    A = (n+1)/(2n) alpha.  Boundedness of this ratio over (r, s, f) is the
    quantitative content of the composition estimate; the ratio itself is
    invariant under (r, s, f) -> (dr, ds, f(./d)).  At n = 1 the middle
    factor's exponent is exactly 0, so r = s is allowed there; for n >= 2
    the envelope degenerates at r = s and the call is refused.
    """
    if not isinstance(f, Field):
        raise TypeError("crucial_estimate_ratio acts on spatial fields")
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"exponent must exceed 1, got {q}")
    r, s = float(r), float(s)
    if not (r > 0.0 and s > 0.0):
        raise ValueError(f"radii must be > 0, got r={r}, s={s}")
    n = spec.n
    if n > 1 and r == s:
        raise ValueError("envelope degenerates at r = s for n > 1")
    if spec.n != f.grid.n:
        raise ValueError(f"kernel dimension {spec.n} != grid dimension {f.grid.n}")

    xi = f.grid.freq_radius()
    symbol = omega_hat(r * xi, spec) * omega_hat(s * xi, spec)
    # the q-norm of f * Omega_r * Omega_s, taken as its output is made
    [g_norm] = _lp(_fields.real_symbol_apply(f.samples).last(symbol), [q],
                   f.grid.cell_volume)

    big_a = (n + 1) / (2.0 * n) * spec.alpha
    mid = 1.0 if n == 1 else abs(r - s) ** (-(n - 1) / n * spec.alpha)
    envelope = r ** (-big_a) * mid * s ** (-big_a)
    dual = q / (q - 1.0)
    return float(g_norm) / (envelope * lp_norm(f, dual))


@dataclass(frozen=True)
class CaseFit:
    """Fitted constant within one frequency regime."""

    count: int
    fitted_c: float
    argmax_xi: float


@dataclass(frozen=True)
class CaseBoundReport:
    """Per-regime evidence for the oscillatory-tail symbol bound."""

    fitted_c: float
    max_at_edge: bool
    cases: dict
    split_lo: float  # 1/(2 pi r): below it both remainders are pre-asymptotic
    split_hi: float  # 1/(2 pi s)


def case_bound_check(spec: KernelSpec, samples) -> CaseBoundReport:
    """Evaluate the remainder-product bound on a list of (xi, r, s) samples.

    For each sample the left side is
    |xi|^(-B alpha) (r|xi|)^(1/2) (s|xi|)^(1/2) |e(2 pi r |xi|)| |e(2 pi s |xi|)|
    with e the Bessel remainder at the kernel's order, and the claim is
    LHS <= C (r-s)^(-(n-1)/n alpha) |xi|^(-2 alpha) with one constant for
    the whole run.  The report splits the samples at xi = 1/(2 pi r) and
    1/(2 pi s) (requires r >= s, so the splits are ordered) and flags a
    fitted constant attained at the largest sampled xi, which would mean
    the sampling window, not the bound, sets the constant.
    """
    n = spec.n
    nu = spec.bessel_order
    b_alpha = spec.time_scale_power * spec.alpha
    rows = np.asarray(list(samples), dtype=float)
    if rows.size == 0:
        raise ValueError("no samples given")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"samples must be (xi, r, s) triples, got shape {rows.shape}")
    xi, r, s = rows.T
    bad_domain = ~((xi > 0.0) & (r >= s) & (s > 0.0))
    bad = bad_domain | ((r == s) if n > 1 else False)
    if bad.any():
        k = int(np.argmax(bad))  # the first offending sample
        if bad_domain[k]:
            raise ValueError(
                f"need xi > 0 and r >= s > 0, got {tuple(float(v) for v in rows[k])}"
            )
        raise ValueError("envelope degenerates at r = s for n > 1")

    e_r = np.abs(bessel_remainder(nu, 2.0 * np.pi * r * xi))
    e_s = np.abs(bessel_remainder(nu, 2.0 * np.pi * s * xi))
    lhs = xi ** (-b_alpha) * np.sqrt(r * xi) * np.sqrt(s * xi) * e_r * e_s
    mid = 1.0 if n == 1 else (r - s) ** (-(n - 1) / n * spec.alpha)
    env = mid * xi ** (-2.0 * spec.alpha)
    ratio = lhs / env

    split_lo = 1.0 / (2.0 * np.pi * r[0])
    split_hi = 1.0 / (2.0 * np.pi * s[0])
    regime = np.where(xi <= 1.0 / (2.0 * np.pi * r), 1,
                      np.where(xi <= 1.0 / (2.0 * np.pi * s), 2, 3))

    cases = {}
    for idx in (1, 2, 3):
        mask = regime == idx
        if mask.any():
            k = int(np.argmax(np.where(mask, ratio, -np.inf)))
            cases[idx] = CaseFit(int(mask.sum()), float(ratio[k]), float(xi[k]))
        else:
            cases[idx] = CaseFit(0, 0.0, float("nan"))
    overall = max(fit.fitted_c for fit in cases.values())
    top = max((fit for fit in cases.values() if fit.count), key=lambda f: f.fitted_c)
    at_edge = bool(np.isclose(top.argmax_xi, xi.max(), rtol=1e-9))
    return CaseBoundReport(float(overall), at_edge, cases, float(split_lo), float(split_hi))


# ---------------------------------------------------------------------------
# empirical operator ratios and trend verdicts


@dataclass(frozen=True)
class RatioStats:
    """Ensemble of ||T f||_q / ||f||_p values; a lower-bound witness for
    the operator norm, never the norm itself."""

    ratios: tuple
    labels: tuple
    maximum: float
    median: float
    mean: float


def _median(values) -> float:
    # np.median's value bit for bit (nan if any value is nan, else the
    # middle value, or the mean of the two middle values of an even count)
    # without np.median's import of numpy.ma
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    mid = s.size // 2
    if np.isnan(s[-1]):
        return math.nan
    if s.size % 2:
        return float(s[mid])
    return float((s[mid - 1] + s[mid]) / 2.0)


def ratio_ladder(m, probes, family, labels=None, pool_map=None) -> list:
    """Norm ratios ||T f||_q / ||f||_p of the operator T with symbol m over
    a family, one RatioStats per (1/p, 1/q) probe, in probe order.

    This is the one place where norms become ratios.  A member is a
    spacetime field or a fields.SeparableField (a product held as its two
    factors) on m's grid, and m must be a fields.RadialSymbol (a bare
    array is refused with TypeError).  Each member's p-norms are taken
    (once per distinct p).  Its output
    is conop.symbol_applier(f).last(m), whose rows come back a leaf at a
    time, each leaf adding to the q-norm of every distinct q, so a member
    in flight holds its samples and its spectrum while it is transformed,
    then its spectrum alone, with a few leaf-sized arrays.  Such a ratio
    is the q-norm of symbol_applier(f)(m) by lp_norm over lp_norm(f, p),
    bit for bit, but for a separable member even on every axis (the
    reference Gaussian), whose output fields.real_symbol_apply measures
    on the nonnegative orthant, about 1/2^(n+1) of a field: within a few
    units in the last place.

    pool_map(fn, members), when given, runs fn over the members in place
    of the in-order loop (to spread them over workers) and must return
    the results in member order.  The probe, family, label and symbol
    guards fire before any member is measured, and a member's own checks
    (its grid against m's among them) and the zero-norm and
    non-finite-norm guards before it is transformed.  A q-norm that is
    not finite (an output whose sum of powers overflows) is refused too,
    so no ratio is ever inf or nan.
    """
    probes = [(float(inv_p), float(inv_q)) for inv_p, inv_q in probes]
    if not probes:
        raise ValueError("no (1/p, 1/q) probes given")
    for probe in probes:
        for name, val in zip(("inv_p", "inv_q"), probe):
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
    family = list(family)
    if not family:
        raise ValueError("empty test-function family")
    labels = list(labels) if labels is not None else [f"member-{i}" for i in range(len(family))]
    if len(labels) != len(family):
        raise ValueError("labels and family lengths differ")
    m = _radial_symbol(m)
    ps = [1.0 / inv_p for inv_p, _ in probes]
    qs = [1.0 / inv_q for _, inv_q in probes]
    distinct_qs = list(dict.fromkeys(qs))

    def ratios(f):
        norms = {p: lp_norm(f, p) for p in ps}  # once per distinct p
        if 0.0 in norms.values():
            raise ValueError("family member with zero norm")
        if not all(math.isfinite(v) for v in norms.values()):
            raise ValueError("family member with a non-finite norm")
        cell = f.cell_volume
        out_norms = dict(zip(distinct_qs, _lp(symbol_applier(f).last(m), distinct_qs, cell)))
        if not all(math.isfinite(v) for v in out_norms.values()):
            raise ValueError("operator output with a non-finite norm")
        return [float(out_norms[q]) / norms[p] for p, q in zip(ps, qs)]

    per_member = pool_map(ratios, family) if pool_map else [ratios(f) for f in family]
    stats = []
    for column in zip(*per_member):
        arr = np.asarray(column)
        stats.append(RatioStats(tuple(float(v) for v in column), tuple(labels),
                                float(arr.max()), _median(arr), float(arr.mean())))
    return stats


@dataclass(frozen=True)
class TrendVerdict:
    """Stability-vs-drift summary of a ratio ladder."""

    spread: float
    fitted_exponent: float
    monotone: bool
    verdict: str  # pass | fail | inconclusive


def boundedness_verdict(scales, ratios, spread_limit: float = 2.0,
                        growth_cutoff: float = 0.05) -> TrendVerdict:
    """Trend-based call on a ladder of ratios indexed by a scale.

    pass: total spread below spread_limit.  fail: strictly monotone drift
    with fitted |exponent| above growth_cutoff (a power-law trend is how
    unboundedness shows up on a finite grid).  Anything else is
    inconclusive.  Thresholds are configuration; these defaults match the
    reporting contract.
    """
    scales = np.asarray(list(scales), dtype=float)
    ratios = np.asarray(list(ratios), dtype=float)
    # the scales are compared, not passed to np.unique, which imports numpy.ma
    if scales.size != ratios.size or scales.size < 2 or np.all(scales == scales[0]):
        raise ValueError("need matching ladders with at least two distinct scales")
    if np.any(ratios <= 0.0) or not np.all((scales > 0.0) & (scales < np.inf)):
        raise ValueError("scales must be positive and finite, and ratios positive")
    order = np.argsort(scales)
    scales, ratios = scales[order], ratios[order]
    spread = float(ratios.max() / ratios.min())
    diffs = np.diff(ratios)
    monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    slope = float(np.polyfit(np.log(scales), np.log(ratios), 1)[0])
    if monotone and abs(slope) > growth_cutoff:
        verdict = "fail"
    elif spread < spread_limit:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return TrendVerdict(spread, slope, monotone, verdict)


def ratio_probes(m, points, widths, pool_map=None) -> list:
    """The dilation-ladder probe: one (RatioStats, TrendVerdict) per
    ExponentPoint of points, in point order, for the operator with symbol
    m, a fields.RadialSymbol, on m's spacetime grid.

    The family is the reference Gaussian (ensembles.separable_gaussian)
    on m.grid at each width, in increasing width order and labeled
    "width <w:g>".  One ratio_ladder serves every point, so each member
    is built, transformed and applied once, and its ratios at each point
    go to boundedness_verdict against the widths.  A factored member is
    two 1-D arrays, so the family is held whole; the Gaussian's factors
    equal their reflections, so every member takes ratio_ladder's
    orthant route.  pool_map is ratio_ladder's.
    """
    grid = _radial_symbol(m).grid
    widths = sorted(widths)
    family = [separable_gaussian(grid, w) for w in widths]
    ladder = ratio_ladder(m, [(pt.inv_p, pt.inv_q) for pt in points], family,
                          [f"width {w:g}" for w in widths], pool_map)
    return [(stats, boundedness_verdict(widths, stats.ratios)) for stats in ladder]
