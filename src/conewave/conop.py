"""Fractional integration along the light cone, on sampled spacetime fields.

The operator averages spatial convolutions of f against mass-preserving
kernel dilations over the shift radius r, with the radial measure
|r|^(B alpha - 1) dr, B = (n+1)/n, taken over both signs of r.  In the
Fourier domain that is one (n+1)-dimensional multiplier

    m(xi, tau) = sum_j w_j P(r_j |xi|) 2 cos(2 pi r_j tau) + 2 c P(0),

with the radial rule's one-sided (r > 0) weights w_j and completion mass
c; the 2s fold the even r < 0 half onto r > 0.  This module only builds
symbols: `symbol` assembles m once, and `convergence_check` measures its
sensitivity to the radial rule; fields.symbol_applier alone applies
them, and one input under several symbols pays for its transform once.
The profile depends on |xi| alone, so the symbol is a
fields.RadialSymbol, one row per distinct |xi| from one product of the
profile table with the phases: even in xi by type and checked even in
tau when it is built, so it equals its point reflection and the apply
is a circular convolution.

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
than silently absorbed, measured on the input's spectrum.  Each refinement
keeps every node of the grid it refines, so its change of the symbol is
assembled from the nodes it adds, and the one base node whose weight it
moves, alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    RadialSymbol,
    SpacetimeGrid,
    _adopt,
    _HeldSpectrum,
    _radial_index,
    _radial_symbol,
)
from .kernel import KernelSpec, omega_hat, omega_hat_jacobi

__all__ = [
    "UnderResolvedWarning",
    "RadialQuadrature",
    "apply_path",
    "symbol",
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

    @classmethod
    def for_grid(cls, grid: SpacetimeGrid, count: int = 160) -> "RadialQuadrature":
        # floor at a quarter time-step: shifts below one sample still move
        # spectral phase, and the small-r mass they carry is what makes
        # dilation-invariance checks close on default grids; cap at a
        # quarter extent to keep shifted slices clear of the torus seam
        return cls(grid.t_spacing / 4.0, grid.t_extent / 4.0, count)


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
    e = _exponent(spec)
    return _radial_sum(grid, spec, profile, quad.nodes(), quad.measure_weights(e),
                       quad.completion_mass(e))


def _exponent(spec: KernelSpec) -> float:
    # e of the radial measure r^e dr, B alpha - 1, integrable at 0 since
    # B alpha > 0: symbol and convergence_check's refinements take it from
    # here alone
    return spec.time_scale_power * spec.alpha - 1.0


def _radial_sum(grid: SpacetimeGrid, spec: KernelSpec, profile, r: np.ndarray,
                w: np.ndarray, completion: float) -> RadialSymbol:
    # sum_j w_j P(r_j |xi|) 2cos(2 pi r_j tau) + 2 completion P(0) on grid,
    # for one-sided w and completion: the one place the even r < 0 half is
    # folded onto r > 0.  The profile is evaluated once per node and
    # distinct |xi| value (_profile_table), and the rows of the symbol are
    # one product of that table with the phases, which the symbol adopts
    if spec.n != grid.space.n:
        raise ValueError(f"kernel dimension {spec.n} != spatial grid dimension {grid.space.n}")
    xi, scatter = _radial_index(grid.space)
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


def convergence_check(apply, spec: KernelSpec, quad: RadialQuadrature,
                      m: RadialSymbol, path: str = "multiplier",
                      tol: float = 1e-3) -> dict:
    """Sensitivity of the output to the radial grid's floor, cap, and density.

    apply is the symbol_applier of the input field, so the refinements
    reuse its one forward transform; the grid is apply's.  m is the
    path's symbol for (grid, spec, quad), which callers already hold.
    Reports the relative L2 changes of the output under halving r_min,
    doubling r_max (capped at half the time extent), and doubling the
    node density.  Each refinement keeps every node of quad: halving
    r_min adds whole log steps of quad below r_min and one shorter panel
    that ends exactly at r_min / 2, and the base node at r_min gains the
    half panel next to it; doubling r_max does the same above r_max; and
    doubling the density adds the midpoints and halves the weights of
    quad's nodes.  So each refinement's change of the symbol is assembled
    from the nodes it adds, and the one base node whose weight it moves,
    alone, by symbol's own assembly, as a RadialSymbol, and measured
    against m by the applier's relative_norm.  A bad path is refused
    first, then an apply that is not a symbol_applier (TypeError), then m
    is checked as apply checks a symbol, so a zero input, whose changes
    are 0.0, is refused the same; all before any change is built.  When the cap leaves no
    room above r_max the r_max refinement does not run: its entry is
    None, not a zero sensitivity, and it does not count towards the
    verdict.  The report also holds "tolerance", the verdict
    "under_resolved", and "windows": for each refinement that runs, its
    rule's r_min and r_max and the number of nodes it adds to quad
    ("added_nodes"), and None for one that does not.  Emits
    UnderResolvedWarning when any measured movement exceeds tol.
    """
    profile = apply_path(path)
    if not isinstance(apply, _HeldSpectrum):
        raise TypeError(f"convergence_check takes a fields.symbol_applier, "
                        f"got {type(apply).__name__}")
    grid = apply.grid
    m = _radial_symbol(m, grid)
    diag, windows = {}, {}
    for key, window, change in _refinement_changes(grid, spec, profile, quad, m):
        diag[key] = None if change is None else apply.relative_norm(change, m)
        windows[key] = window
        del change  # so it is not held while the next one is built
    worst = max(value for value in diag.values() if value is not None)
    diag["tolerance"] = float(tol)
    diag["under_resolved"] = bool(worst > tol)
    diag["windows"] = windows
    if diag["under_resolved"]:
        warnings.warn(
            f"radial quadrature under-resolved: max sensitivity {worst:.3e} > {tol:.1e}",
            UnderResolvedWarning,
            stacklevel=2,
        )
    return diag


def _refinement_changes(grid: SpacetimeGrid, spec: KernelSpec, profile,
                        quad: RadialQuadrature, m: RadialSymbol):
    # for each refinement convergence_check measures, in order: its
    # sensitivity name, its window (r_min, r_max and the number of nodes
    # it adds) and its change of the symbol, the symbol on the refined rule
    # less m, the symbol on quad; the window and change are None for the
    # r_max refinement when the cap at half the time extent leaves no room
    # above r_max.  Each change is one _radial_sum of the nodes the
    # refinement adds and the base node whose weight it moves, in
    # increasing order: their one-sided weights are the refined rule's
    # less quad's, and the power is taken on a contiguous node array, as
    # quad.measure_weights takes it (numpy's pow differs in the last bit
    # on a reversed one)
    e = _exponent(spec)
    r, lw, w = quad.nodes(), quad.log_weights(), quad.measure_weights(e)
    c = quad.completion_mass(e)
    dlog = lw[1]
    hi = min(2.0 * quad.r_max, grid.t_extent / 2.0)
    for key, end in (("r_min_halved", quad.r_min / 2.0), ("r_max_doubled", hi)):
        below = end < quad.r_min
        if not below and end <= quad.r_max:
            yield key, None, None
            continue
        # whole log steps of quad beyond the moved end, then one shorter
        # panel that ends exactly there, outward from the base node k at
        # that end (quad's own node, whose log round trip may differ from
        # r_min or r_max in the last bit); a node's log weight is half of
        # each panel it bounds, so k gains half the first panel
        edge, k = (quad.r_min, 0) if below else (quad.r_max, -1)
        span = abs(np.log(end / edge))
        whole = int(np.ceil(span / dlog)) - 1
        steps = dlog * np.arange(1, whole + 1)
        panels = np.append(np.full(whole, dlog), span - dlog * whole)
        r1 = np.concatenate([r[[k]], edge * np.exp(-steps if below else steps), [end]])
        w1 = np.append(lw[k] + 0.5 * panels[0], 0.5 * (panels + np.append(panels[1:], 0.0)))
        w1 *= r1 ** (e + 1.0)
        w1[0] -= w[k]
        lo = min(end, quad.r_min)
        window = {"r_min": lo, "r_max": max(end, quad.r_max), "added_nodes": whole + 1}
        if below:
            r1, w1 = r1[::-1], w1[::-1]
        c1 = replace(quad, r_min=lo).completion_mass(e)
        yield key, window, _radial_sum(grid, spec, profile, r1, w1, c1 - c)
    # the doubled density: quad's nodes are its even nodes, at half their
    # weight, so the change is the midpoints' sum less half of m
    fine = RadialQuadrature(quad.r_min, quad.r_max, 2 * quad.count - 1)
    w1 = fine.measure_weights(e)
    d = _radial_sum(grid, spec, profile, fine.nodes()[1::2], w1[1::2],
                    fine.completion_mass(e) - c / 2.0)
    rows = np.divide(m.rows, 2.0)
    np.subtract(d.rows, rows, out=rows)
    window = {"r_min": quad.r_min, "r_max": quad.r_max, "added_nodes": quad.count - 1}
    yield "nodes_doubled", window, _adopt(grid, rows, m.scatter)
