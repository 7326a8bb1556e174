"""Fractional integration along the light cone, on sampled spacetime fields.

The operator averages spatial convolutions of f against mass-preserving
kernel dilations over the shift radius r, with the radial measure
|r|^(B alpha - 1) dr, B = (n+1)/n, taken over both signs of r.  In the
Fourier domain that is one (n+1)-dimensional multiplier

    m(xi, tau) = sum_j w_j P(r_j |xi|) 2 cos(2 pi r_j tau) + 2 c P(0),

with the radial rule's one-sided (r > 0) weights w_j and completion mass
c; the 2s fold the even r < 0 half onto r > 0.  It is assembled once by
`symbol`, and `symbol_applier` is the one way it reaches a field: one
input under several symbols pays for its transform once, and the
applier measures the L2 distance between two symbols' outputs on the
spectrum it holds, by Parseval, with no inverse transform.  The profile
depends on |xi| alone, so the symbol is a fields.RadialSymbol, one row
per distinct |xi| from one product of the profile table with the phases:
even in xi by type and checked even in tau when it is built, so it
equals its point reflection and the apply is a circular convolution
(fields.real_symbol_apply, which also picks the route).  Every apply
refuses a symbol that is not a RadialSymbol on its input's grid.

Only the spatial profile P varies between the two evaluation paths, and
the two profiles share no arithmetic, so each path cross-checks the other.
`apply_path` is the one place a path name is resolved to its profile:

* multiplier  - P = omega_hat, the Bessel-series spectral profile;
* cone-direct - P = omega_hat_jacobi, Gauss-Jacobi quadrature of the
                physical density projected onto a line, whose endpoint
                singularity the Jacobi weight resolves exactly.

The radial grid is log-uniform.  Its floor truncates an integrable
singularity at r = 0; the truncated mass is restored by a closed-form
completion term (the integrand's exact r -> 0 limit), and sensitivity to
the floor, cap, and node density is reported by convergence_check rather
than silently absorbed, measured on the input's spectrum.  Each refined
grid keeps every node of the grid it refines, so its change of the symbol
is assembled from the nodes it adds alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    RadialSymbol,
    SeparableField,
    SpacetimeField,
    SpacetimeGrid,
    _adopt,
    _radial_index,
    real_symbol_apply,
)
from .kernel import KernelSpec, omega_hat, omega_hat_jacobi

__all__ = [
    "UnderResolvedWarning",
    "RadialQuadrature",
    "apply_path",
    "symbol",
    "symbol_applier",
    "convergence_check",
]


# profile arguments evaluated at a time by _profile_table: a profile holds
# up to about 7.5 times its argument's bytes while it runs (52 MiB for the
# 950 000 arguments of a 256^3 table in one call), so a block's transient
# stays under 2 MiB.  _phases mirrors its columns in blocks of rows of at
# most as many samples
_PROFILE_POINTS = 2**15


class UnderResolvedWarning(UserWarning):
    """Radial quadrature sensitivity above the configured tolerance."""


@dataclass(frozen=True)
class RadialQuadrature:
    """Log-uniform nodes for integrals against r^e dr over r > 0.

    Trapezoid rule in log r: a node r_j carries weight
    dlog * c_j * r_j^(e+1).  An operator whose integrand is even in r folds
    the r < 0 half onto r > 0 itself.  The floor r_min truncates the
    origin; operators add back the closed-form mass of (0, r_min) with the
    integrand frozen at its r -> 0 limit, which is exact up to O(r_min^2)
    relative because every factor involved is even and smooth in r.
    """

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.r_min) and np.isfinite(self.r_max)):
            raise ValueError("radial bounds must be finite")
        if not 0.0 < self.r_min < 1.0 < self.r_max:
            raise ValueError(
                f"need 0 < r_min < 1 < r_max, got r_min={self.r_min}, r_max={self.r_max}"
            )
        if not isinstance(self.count, (int, np.integer)) or self.count < 8:
            raise ValueError(f"node count must be an integer >= 8, got {self.count}")
        object.__setattr__(self, "r_min", float(self.r_min))
        object.__setattr__(self, "r_max", float(self.r_max))
        object.__setattr__(self, "count", int(self.count))

    def nodes(self) -> np.ndarray:
        return np.exp(np.linspace(np.log(self.r_min), np.log(self.r_max), self.count))

    def log_weights(self) -> np.ndarray:
        dlog = np.log(self.r_max / self.r_min) / (self.count - 1)
        w = np.full(self.count, dlog)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def measure_weights(self, exponent: float) -> np.ndarray:
        """Weights for sum_j w_j g(r_j) ~ integral over r > 0 of g(r) r^exponent dr."""
        return self.log_weights() * self.nodes() ** (exponent + 1.0)

    def completion_mass(self, exponent: float) -> float:
        """integral of r^exponent over (0, r_min); exponent must be > -1."""
        if exponent <= -1.0:
            raise ValueError(f"non-integrable radial exponent {exponent}")
        return self.r_min ** (exponent + 1.0) / (exponent + 1.0)

    def refined(self, r_min=None, r_max=None, density=1.0) -> "RadialQuadrature":
        """A rule that keeps every node of this one, refined one way.

        A lower r_min or a higher r_max carries the rule out to it: whole
        log steps of this rule beyond the moved end, then one shorter
        panel that ends exactly there, and the node at the moved end gains
        the half panel next to it; every other node keeps its log weight.
        A whole density k splits each log step into k, so every k-th node
        is one of this rule's, bit for bit.  Unmoved, the rule itself.
        """
        lo = self.r_min if r_min is None else float(r_min)
        hi = self.r_max if r_max is None else float(r_max)
        ways = (lo < self.r_min) + (hi > self.r_max) + (density != 1)
        if (lo > self.r_min or hi < self.r_max or density < 1 or density != int(density)
                or ways > 1):
            raise ValueError(
                "a refinement lowers r_min, raises r_max or multiplies the density "
                f"by a whole number, one at a time; got r_min={lo}, r_max={hi}, "
                f"density={density} for the window [{self.r_min}, {self.r_max}]"
            )
        if lo < self.r_min or hi > self.r_max:
            return _NestedQuadrature.beyond(self, lo if lo < self.r_min else hi)
        if density > 1:
            return RadialQuadrature(self.r_min, self.r_max, int(density) * (self.count - 1) + 1)
        return self

    @classmethod
    def for_grid(cls, grid: SpacetimeGrid, count: int = 160) -> "RadialQuadrature":
        # floor at a quarter time-step: shifts below one sample still move
        # spectral phase, and the small-r mass they carry is what makes
        # dilation-invariance checks close on default grids; cap at a
        # quarter extent to keep shifted slices clear of the torus seam
        return cls(grid.t_spacing / 4.0, grid.t_extent / 4.0, count)


@dataclass(frozen=True)
class _NestedQuadrature(RadialQuadrature):
    # base's rule carried out to a lower r_min or a higher r_max, keeping
    # every base node at its base log weight: whole base log steps beyond
    # the moved end, then one shorter panel that ends exactly at the new
    # end, and the base node at the moved end gains the half panel next to
    # it; measure_weights and completion_mass are RadialQuadrature's, on
    # these nodes and log weights
    base: RadialQuadrature

    @classmethod
    def beyond(cls, base: RadialQuadrature, end: float) -> "_NestedQuadrature":
        edge = base.r_min if end < base.r_min else base.r_max
        whole = int(np.ceil(abs(np.log(end / edge)) / base.log_weights()[1])) - 1
        lo, hi = (end, base.r_max) if end < base.r_min else (base.r_min, end)
        return cls(lo, hi, base.count + whole + 1, base)

    def refined(self, r_min=None, r_max=None, density=1.0) -> "RadialQuadrature":
        # the log step beyond is base's, which this rule's own steps are not
        raise ValueError("a refined rule is not refined again; refine its base")

    def _added(self):
        # the added nodes and their log weights, outward from the base
        # rule, the log weight the base node at the moved end gains, and
        # whether the rule grew below r_min
        base = self.base
        dlog = base.log_weights()[1]
        below = self.r_min < base.r_min
        edge, end = (base.r_min, self.r_min) if below else (base.r_max, self.r_max)
        whole = self.count - base.count - 1
        steps = dlog * np.arange(1, whole + 1)
        nodes = np.append(edge * np.exp(-steps if below else steps), end)
        # panel k ends at added node k; a node's weight is half of each
        # panel it bounds
        panels = np.append(np.full(whole, dlog), abs(np.log(end / edge)) - dlog * whole)
        weights = 0.5 * (panels + np.append(panels[1:], 0.0))
        return nodes, weights, 0.5 * panels[0], below

    def nodes(self) -> np.ndarray:
        added, _, _, below = self._added()
        if below:
            return np.concatenate([added[::-1], self.base.nodes()])
        return np.concatenate([self.base.nodes(), added])

    def log_weights(self) -> np.ndarray:
        _, added, gain, below = self._added()
        w = self.base.log_weights()
        if below:
            w[0] += gain
            return np.concatenate([added[::-1], w])
        w[-1] += gain
        return np.concatenate([w, added])


def apply_path(name: str):
    """The spatial profile of the operator path `name`, by its CLI name.

    "multiplier" is omega_hat and "cone-direct" omega_hat_jacobi; anything
    else raises ValueError.  The profile is read from this module's
    namespace on each call, so a rebinding of omega_hat or omega_hat_jacobi
    there (a tracer's wrapper, say) is what symbol uses.
    """
    if name == "multiplier":
        return omega_hat
    if name == "cone-direct":
        return omega_hat_jacobi
    raise ValueError(
        f"unknown operator path {name!r}; choose from ['cone-direct', 'multiplier']"
    )


def symbol(grid: SpacetimeGrid, spec: KernelSpec, quad: RadialQuadrature | None = None,
           path: str = "multiplier") -> RadialSymbol:
    """The (n+1)-dimensional symbol m(xi, tau) of the path `path` on grid,
    as a fields.RadialSymbol: one row per distinct |xi|.

    Even in tau and real, because both signs of r contribute conjugate
    phases; assembled directly in cosine form so those properties hold to
    the last bit, and the rows are checked to hold them when the symbol
    is built.  Its array() is the symbol on every cell.  The spatial
    profile P is the path's (apply_path); quad defaults to
    RadialQuadrature.for_grid(grid).
    """
    profile = apply_path(path)
    if quad is None:
        quad = RadialQuadrature.for_grid(grid)
    return _radial_sum(grid, spec, profile, *_rule(quad, spec))


def _rule(quad: RadialQuadrature, spec: KernelSpec):
    # quad's nodes, one-sided weights and completion mass for the radial
    # measure r^(B alpha - 1), integrable at 0 since B alpha > 0: symbol
    # and convergence_check's refinements take them from here alone
    e = spec.time_scale_power * spec.alpha - 1.0
    return quad.nodes(), quad.measure_weights(e), quad.completion_mass(e)


def _radial_sum(grid: SpacetimeGrid, spec: KernelSpec, profile, r: np.ndarray,
                w: np.ndarray, completion: float) -> RadialSymbol:
    # sum_j w_j P(r_j |xi|) 2cos(2 pi r_j tau) + 2 completion P(0) on grid,
    # for one-sided w and completion: the one place the even r < 0 half is
    # folded onto r > 0.  The profile is evaluated once per node and
    # distinct |xi| value (_profile_table), and the rows of the symbol are
    # one product of that table with the phases, which the symbol adopts
    if spec.n != grid.space.n:
        raise ValueError(f"kernel dimension {spec.n} != spatial grid dimension {grid.space.n}")
    xi, scatter = _radial_index(grid)
    table, at_zero = _profile_table(profile, spec, r, xi)
    table *= w[:, None]
    rows = table.T @ _phases(r, grid.t_freq_axis())
    rows += 2.0 * completion * at_zero
    return _adopt(grid, rows, scatter)


def _phases(r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    # 2cos(2 pi r_j tau_l) for every node j and column l, (M, N_t), with
    # the cosine taken on the columns 0..N_t/2 alone: fftfreq's tau at
    # column N_t - l is -tau_l exactly, and the product, the 2 pi scale
    # and cos are even to the last bit, so every later column is a copy
    # of the one it reflects.  The copy runs a block of rows at a time,
    # so numpy's copy of its overlapping source stays a block
    half = tau.size // 2
    phases = np.empty((r.size, tau.size))
    left = phases[:, :half + 1]
    np.outer(r, tau[:half + 1], out=left)
    left *= 2.0 * np.pi
    np.cos(left, out=left)
    left *= 2.0
    step = max(1, _PROFILE_POINTS // tau.size)
    for a in range(0, r.size, step):
        block = phases[a:a + step]
        block[:, half + 1:] = block[:, half - 1:0:-1]
    return phases


def _profile_table(profile, spec: KernelSpec, r: np.ndarray, xi: np.ndarray) -> tuple:
    # (P(r_j xi_k) for every node j and value k, P(0)): the profile runs on
    # a block of nodes at a time, at most _PROFILE_POINTS arguments, with
    # the argument 0 after the last block.  It acts on each argument
    # alone, so the values are one call's, bit for bit.  A table of one
    # block is that block's values, with no copy
    step = max(1, _PROFILE_POINTS // xi.size)
    blocks = []
    for a in range(0, r.size, step):
        points = np.outer(r[a:a + step], xi).ravel()
        if a + step >= r.size:
            points = np.append(points, 0.0)
        blocks.append(profile(points, spec))
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return values[:-1].reshape(r.size, xi.size), float(values[-1])


def _checked_input(f):
    # what real_symbol_apply transforms for f, once f is refused unless it
    # is a spacetime field: its samples, or a separable member itself,
    # whose factors stand for its samples
    if isinstance(f, SeparableField):
        return f
    if not isinstance(f, SpacetimeField):
        raise TypeError("operator paths act on spacetime fields")
    return f.samples


def _radial_symbol(m, grid: SpacetimeGrid | None = None) -> RadialSymbol:
    # m, refused unless it is a RadialSymbol, on grid when grid is given
    if not isinstance(m, RadialSymbol):
        raise TypeError(f"a symbol is a fields.RadialSymbol, got {type(m).__name__}")
    if grid is not None and m.grid != grid:
        raise ValueError(f"symbol grid {m.grid} != field grid {grid}")
    return m


class _Applier:
    # what symbol_applier returns; see there

    def __init__(self, f: SpacetimeField):
        self._held = real_symbol_apply(_checked_input(f))
        self.grid = f.grid

    def __call__(self, m: RadialSymbol) -> np.ndarray:
        return self._held(_radial_symbol(m, self.grid))

    def last(self, m: RadialSymbol):
        return self._held.last(_radial_symbol(m, self.grid))

    def relative_norm(self, d: RadialSymbol, m: RadialSymbol) -> float:
        d, m = _radial_symbol(d, self.grid), _radial_symbol(m, self.grid)
        return self._held.relative_norm(d, m)

    def relative_change(self, m1: RadialSymbol, m0: RadialSymbol) -> float:
        m1, m0 = _radial_symbol(m1, self.grid), _radial_symbol(m0, self.grid)
        d = _adopt(self.grid, np.subtract(m1.rows, m0.rows), m0.scatter)
        return self._held.relative_norm(d, m0)


def symbol_applier(f: SpacetimeField):
    """apply(m), the samples of the operator with symbol m applied to f:
    the one way a symbol reaches a spacetime field.

    f is a physical spacetime field or a fields.SeparableField, checked
    here and transformed by fields.real_symbol_apply on the first
    request, after which the applier holds only its spectrum, not f; f is
    left unchanged.  Each m must be a fields.RadialSymbol on f's grid:
    before any transform, a bare array is refused with TypeError and a
    symbol of another grid with ValueError.  Every further symbol costs
    one inverse transform, of a product copy.  A real f (float64, complex
    with an all-zero imaginary part, or separable) gives float64 outputs,
    any other f complex128.

    apply.last(m) is the single-use apply, real_symbol_apply's last: m is
    multiplied into the spectrum in place and the output in progress is
    returned, whose part(a, b) the caller streams (for most inputs its
    whole() is apply(m), bit for bit; fields picks an even separable f's
    orthant route, whose whole() raises RuntimeError, so a caller that
    needs that output whole takes apply(m)).  Any later request raises
    RuntimeError.
    apply.relative_norm(d, m) is ||apply(d)||_2 / ||apply(m)||_2 (the
    numerator alone when apply(m) is zero) and apply.relative_change(m1,
    m0) that ratio for d = m1 - m0, by Parseval on the held spectrum with
    no inverse transform; every symbol passes apply's checks.
    apply.grid is f's grid.
    """
    return _Applier(f)


def convergence_check(f, spec: KernelSpec, quad: RadialQuadrature,
                      m: RadialSymbol, path: str = "multiplier",
                      tol: float = 1e-3) -> dict:
    """Sensitivity of the output to the radial grid's floor, cap, and density.

    m is the path's symbol for (grid, spec, quad), which callers already
    hold.  f is the input field, or the symbol_applier of that field when
    the caller holds one, so the refinements reuse its one forward
    transform; the grid is f's.  Reports the relative L2 changes of the
    output under halving r_min, doubling r_max (capped at half the time
    extent), and doubling the node density.  Each refined rule,
    quad.refined, keeps every node of quad: halving r_min adds whole log
    steps of quad below r_min and one shorter panel that ends exactly at
    r_min / 2, doubling r_max the same above r_max, and doubling the
    density adds the midpoints and halves the weights of quad's nodes.
    So each refinement's change of the symbol, refined minus m, is
    assembled from the nodes it adds and the weights it moves alone, by
    symbol's own assembly, as a RadialSymbol, and measured against m by
    the applier's relative_norm.  A bad path is refused first, then m is
    checked as apply checks a symbol, so a zero input, whose changes are
    0.0, is refused the same.  When the cap leaves no room above r_max the r_max
    refinement does not run: its entry is None, not a zero sensitivity,
    and it does not count towards the verdict.  The report also holds
    "tolerance", the verdict "under_resolved", and "windows": for each
    refinement that runs, its rule's r_min and r_max and the number of
    nodes it adds to quad ("added_nodes"), and None for one that does
    not.  Emits UnderResolvedWarning when any measured movement exceeds
    tol.
    """
    profile = apply_path(path)
    apply = f if isinstance(f, _Applier) else symbol_applier(f)
    grid = apply.grid
    m = _radial_symbol(m, grid)
    rules = _refinements(quad, grid)
    diag = {
        key: None if refined is None else apply.relative_norm(
            _refinement_change(grid, spec, profile, quad, refined, m), m)
        for key, refined in rules.items()
    }
    worst = max(diag[key] for key in rules if diag[key] is not None)
    diag["tolerance"] = float(tol)
    diag["under_resolved"] = bool(worst > tol)
    diag["windows"] = {
        key: None if refined is None else {
            "r_min": refined.r_min, "r_max": refined.r_max,
            "added_nodes": refined.count - quad.count,
        }
        for key, refined in rules.items()
    }
    if diag["under_resolved"]:
        warnings.warn(
            f"radial quadrature under-resolved: max sensitivity {worst:.3e} > {tol:.1e}",
            UnderResolvedWarning,
            stacklevel=2,
        )
    return diag


def _refinements(quad: RadialQuadrature, grid: SpacetimeGrid) -> dict:
    # the refined rules convergence_check measures, by sensitivity name;
    # each keeps every node of quad.  The r_max refinement is capped at
    # half the time extent, and None when that leaves no room above r_max
    hi = min(2.0 * quad.r_max, grid.t_extent / 2.0)
    return {
        "r_min_halved": quad.refined(r_min=quad.r_min / 2.0),
        "r_max_doubled": quad.refined(r_max=hi) if hi > quad.r_max else None,
        "nodes_doubled": quad.refined(density=2),
    }


def _refinement_change(grid: SpacetimeGrid, spec: KernelSpec, profile,
                       quad: RadialQuadrature, refined: RadialQuadrature,
                       m: RadialSymbol) -> RadialSymbol:
    # the symbol on the rule refined less m, the symbol on quad, for a
    # refined rule that keeps every node of quad (one of _refinements):
    # the profile is evaluated on the nodes the refinement adds, and on
    # the one base node whose weight it moves, alone
    _, w, c = _rule(quad, spec)
    r1, w1, c1 = _rule(refined, spec)
    if isinstance(refined, _NestedQuadrature):
        # every base node keeps its weight but the one at the moved end,
        # so the added nodes and that one carry the difference, with the
        # completion's
        start = refined.count - quad.count if refined.r_min < quad.r_min else 0
        w1[start:start + quad.count] -= w
        moved = w1 != 0.0
        return _radial_sum(grid, spec, profile, r1[moved], w1[moved], c1 - c)
    # the doubled density: quad's nodes are its even nodes, at half their
    # weight, so the difference is the midpoints' sum less half of m's
    # node sum
    d = _radial_sum(grid, spec, profile, r1[1::2], w1[1::2], c1 - c / 2.0)
    rows = np.divide(m.rows, 2.0)
    np.subtract(d.rows, rows, out=rows)
    return _adopt(grid, rows, m.scatter)
