"""Operator paths: quadrature, agreement, homogeneity, diagnostics."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import offcone_table
import oracles
import conewave.conop as conop
import conewave.ensembles as ens
import conewave.fields as fields
import conewave.kernel as kernel
from conewave import (
    ExponentPoint,
    Field,
    KernelSpec,
    RadialQuadrature,
    SeparableField,
    SpacetimeField,
    SpacetimeGrid,
    Grid,
    UnderResolvedWarning,
    convergence_check,
    lp_norm,
    ratio_ladder,
    ratio_probes,
    symbol,
    symbol_applier,
)
from conewave.conop import apply_path
from conewave.fields import RadialSymbol
from conewave.kernel import omega_hat, omega_hat_jacobi


def _grid(points=128, extent=32.0):
    return SpacetimeGrid(Grid(1, points, extent), points, extent)


def _applied(f, m: RadialSymbol) -> SpacetimeField:
    # the operator with symbol m on one input, wrapped as a field
    return SpacetimeField(f.grid, symbol_applier(f)(m))


def _apply(f: SpacetimeField, spec: KernelSpec, quad: RadialQuadrature,
           path: str = "multiplier") -> SpacetimeField:
    # the operator of one path on one input: its symbol, applied once
    return _applied(f, symbol(f.grid, spec, quad, path))


def _rel(a: SpacetimeField, b: SpacetimeField) -> float:
    scale = np.linalg.norm(b.samples.ravel())
    return float(np.linalg.norm((a.samples - b.samples).ravel()) / scale)


def _slices(f: SpacetimeField, spec: KernelSpec, quad: RadialQuadrature) -> SpacetimeField:
    # reference: the operator radial slice by radial slice, with no shared
    # symbol - convolve in x with the dilated kernel, shift by +-r in t,
    # accumulate in node order, then add the closed-form completion of
    # both signs of r
    g = f.grid
    n = g.space.n
    e = spec.time_scale_power * spec.alpha - 1.0
    x_axes, x_spacings = tuple(range(n)), (g.space.spacing,) * n
    t_axis, t_spacing = (n,), (g.t_spacing,)
    xi = g.space.freq_radius()
    tau = g.t_freq_axis()
    forward, inverse = oracles.transform_reference, oracles.inverse_transform_reference
    fx = forward(f.samples, x_axes, x_spacings)
    out = np.zeros(g.shape, dtype=np.complex128)
    for r, w in zip(quad.nodes(), quad.measure_weights(e)):
        conv = inverse(fx * omega_hat(r * xi, spec)[..., None], x_axes, x_spacings)
        ct = forward(conv, t_axis, t_spacing)
        out += w * inverse(ct * (2.0 * np.cos(2.0 * np.pi * r * tau)), t_axis, t_spacing)
    out += 2.0 * quad.completion_mass(e) * omega_hat(0.0, spec) * f.samples
    return SpacetimeField(g, out)


# ---------------------------------------------------------------------------
# radial quadrature


def test_quadrature_validation():
    with pytest.raises(ValueError):
        RadialQuadrature(0.0, 10.0, 32)
    with pytest.raises(ValueError):
        RadialQuadrature(5.0, 1.0, 32)
    with pytest.raises(ValueError):
        RadialQuadrature(0.1, 10.0, 4)


def test_quadrature_nodes_are_log_uniform():
    q = RadialQuadrature(0.01, 100.0, 41)
    nodes = q.nodes()
    assert nodes[0] == pytest.approx(0.01) and nodes[-1] == pytest.approx(100.0)
    steps = np.diff(np.log(nodes))
    assert np.max(np.abs(steps - steps[0])) < 1e-12


def test_quadrature_integrates_powers():
    # integral of r^e over r_min <= r <= r_max, one-sided
    q = RadialQuadrature(0.05, 8.0, 4000)
    for e in (-0.5, 0.2, 1.0):
        got = q.measure_weights(e).sum()
        want = (8.0 ** (e + 1) - 0.05 ** (e + 1)) / (e + 1)
        assert got == pytest.approx(want, rel=1e-5)


def test_completion_mass_closed_form():
    q = RadialQuadrature(0.05, 8.0, 64)
    for e in (-0.5, 0.2, 1.0):
        assert q.completion_mass(e) == pytest.approx(0.05 ** (e + 1) / (e + 1), rel=1e-14)
    with pytest.raises(ValueError):
        q.completion_mass(-1.0)


def test_refined_and_for_grid():
    g = _grid()
    q = RadialQuadrature.for_grid(g, 48)
    assert q.r_min == pytest.approx(g.t_spacing / 4.0)
    assert q.r_max == pytest.approx(g.t_extent / 4.0)
    assert q.count == 48
    finer = q.refined(density=2.0)
    # density scales intervals, not endpoints: count-1 intervals double
    assert finer.count == 2 * (q.count - 1) + 1 and finer.r_min == q.r_min
    wider = q.refined(r_max=2.0 * q.r_max)
    assert wider.r_max == pytest.approx(2.0 * q.r_max)


def test_refined_moves_one_way_and_only_outward():
    q = RadialQuadrature.for_grid(_grid(), 48)
    assert q.refined() is q and q.refined(r_max=q.r_max, density=1) is q
    bad = [dict(r_min=2.0 * q.r_min), dict(r_max=0.5 * q.r_max), dict(density=1.5),
           dict(density=0), dict(r_min=0.5 * q.r_min, r_max=2.0 * q.r_max),
           dict(r_min=0.5 * q.r_min, density=2)]
    for kwargs in bad:
        with pytest.raises(ValueError, match="one at a time"):
            q.refined(**kwargs)
    # a refined rule's steps beyond its base are not its own log step, so
    # it is not refined again
    for wider in (q.refined(r_min=0.5 * q.r_min), q.refined(r_max=2.0 * q.r_max)):
        with pytest.raises(ValueError, match="not refined again"):
            wider.refined(density=2)


# ---------------------------------------------------------------------------
# operator paths


def test_multiplier_table_is_real_for_distinguished_members():
    g = _grid(64)
    table = symbol(g, KernelSpec(0.4, 1), RadialQuadrature.for_grid(g, 48)).array()
    assert table.shape == g.shape
    assert np.all(np.isreal(table))


def test_zero_field_maps_to_zero():
    g = _grid(64)
    f = SpacetimeField(g, np.zeros(g.shape))
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 32)
    for path in ("multiplier", "cone-direct"):
        out = _apply(f, spec, quad, path)
        assert np.all(out.samples == 0.0)


def test_operator_is_linear():
    g = _grid(64)
    rng = np.random.default_rng(2)
    f1 = SpacetimeField(g, rng.standard_normal(g.shape))
    f2 = SpacetimeField(g, rng.standard_normal(g.shape))
    spec = KernelSpec(0.5, 1)
    quad = RadialQuadrature.for_grid(g, 48)
    combo = SpacetimeField(g, 2.0 * f1.samples - 3.0 * f2.samples)
    lhs = _apply(combo, spec, quad)
    rhs = (
        2.0 * _apply(f1, spec, quad).samples
        - 3.0 * _apply(f2, spec, quad).samples
    )
    assert np.max(np.abs(lhs.samples - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_slices_agree_with_multiplier():
    # the one-shot symbol assembly (distinct |xi| values, scattered back)
    # against the slice-by-slice reference, in one and two dimensions
    g = _grid(128)
    f = ens.gaussian_spacetime(g, 1.5)
    quad = RadialQuadrature.for_grid(g, 64)
    for alpha in (0.3, 0.6):
        spec = KernelSpec(alpha, 1)
        a = _apply(f, spec, quad)
        b = _slices(f, spec, quad)
        assert _rel(b, a) < 1e-10
    g2 = SpacetimeGrid(Grid(2, 16, 8.0), 16, 8.0)
    f2 = ens.gaussian_spacetime(g2, 1.0)
    quad2 = RadialQuadrature.for_grid(g2, 32)
    spec2 = KernelSpec(1.0, 2)
    assert _rel(_slices(f2, spec2, quad2), _apply(f2, spec2, quad2)) < 1e-10


def test_cone_direct_agrees_with_slices():
    g = _grid(128)
    f = ens.gaussian_spacetime(g, 1.5)
    quad = RadialQuadrature.for_grid(g, 64)
    spec = KernelSpec(0.6, 1)
    a = _slices(f, spec, quad)
    b = _apply(f, spec, quad, "cone-direct")
    assert _rel(b, a) < 1e-6


def test_cone_direct_agrees_with_multiplier():
    g = _grid(128)
    f = ens.gaussian_spacetime(g, 1.5)
    quad = RadialQuadrature.for_grid(g, 64)
    for alpha in (0.3, 0.6):
        spec = KernelSpec(alpha, 1)
        a = _apply(f, spec, quad)
        b = _apply(f, spec, quad, "cone-direct")
        assert _rel(b, a) < 1e-10


def test_cone_direct_resolves_the_default_grid_nyquist():
    # a packet at k_x = 3.5 puts its mass at r |xi| up to r_max * Nyquist
    # = 16 * 4 = 64 on the default grid, so the Jacobi rule has to follow
    # the largest profile argument instead of a fixed node count
    g = SpacetimeGrid.default(1)
    f = ens.wave_packet(g, 2.0, k_x=3.5)
    quad = RadialQuadrature.for_grid(g)
    for alpha in (0.4, 0.6):
        spec = KernelSpec(alpha, 1)
        a = _apply(f, spec, quad)
        b = _apply(f, spec, quad, "cone-direct")
        assert _rel(b, a) < 1e-8, alpha


def test_multiplier_accepts_higher_dimensions():
    g = SpacetimeGrid(Grid(2, 32, 16.0), 32, 16.0)
    f = ens.gaussian_spacetime(g, 1.0)
    out = _apply(f, KernelSpec(1.0, 2), RadialQuadrature.for_grid(g, 32))
    assert out.samples.shape == g.shape
    assert lp_norm(out, 2.0) > 0.0


def test_cone_direct_agrees_in_two_dimensions():
    # 0.5 sits outside the density's strip 0 < Re lam < 1 (lam = 1.125 at
    # n = 2), yet its projection onto a line (lam' = 0.625) is a function
    g = SpacetimeGrid(Grid(2, 32, 16.0), 32, 16.0)
    f = ens.gaussian_spacetime(g, 1.0)
    quad = RadialQuadrature.for_grid(g, 32)
    for alpha in (0.5, 1.0, 1.5):
        spec = KernelSpec(alpha, 2)
        a = _apply(f, spec, quad)
        b = _apply(f, spec, quad, "cone-direct")
        assert _rel(b, a) < 1e-10, alpha


def test_symbol_and_symbol_applier_compose_the_paths():
    # a symbol built once serves every field on its grid, with the bits of
    # a symbol built for that field alone, and leaves its input untouched
    g = _grid(64)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 32)
    inputs = [ens.gaussian_spacetime(g, 1.0), ens.wave_packet(g, 2.0, k_x=1.5)]
    for path in ("multiplier", "cone-direct"):
        m = symbol(g, spec, quad, path)
        for f in inputs:
            keep = f.samples.copy()
            out = symbol_applier(f)(m)
            assert np.array_equal(f.samples, keep)
            assert np.array_equal(out, _apply(f, spec, quad, path).samples)
    assert np.array_equal(symbol(g, spec, quad).rows, symbol(g, spec, quad, "multiplier").rows)
    assert np.array_equal(symbol(g, spec).rows, symbol(g, spec, RadialQuadrature.for_grid(g)).rows)


@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
def test_a_symbol_evaluates_its_profile_once(monkeypatch, path):
    # counted: the radial table and the completion's argument 0 go to the
    # profile in one call, and a cone-direct symbol draws all its
    # Gauss-Jacobi rules from one builder call; the bits do not move
    g = _grid(64)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 32)
    want = symbol(g, spec, quad, path)
    profile, args, builds = apply_path(path), [], []

    def counted(xi, s):
        args.append(np.array(xi))
        return profile(xi, s)

    rules = kernel._jacobi_rules
    monkeypatch.setattr(conop, profile.__name__, counted)
    monkeypatch.setattr(kernel, "_jacobi_rules",
                        lambda counts, a: builds.append(list(counts)) or rules(counts, a))
    assert np.array_equal(symbol(g, spec, quad, path).rows, want.rows)
    (xi,) = args
    assert xi.shape == (quad.count * np.unique(g.space.freq_radius()).size + 1,)
    assert xi[-1] == 0.0
    assert len(builds) == (path == "cone-direct")


# the default grids of op-apply (SpacetimeGrid.default), of the scan-region
# ratio probes and of norm-test, and a 64^3 n = 2 grid
_CONTRACTION_GRIDS = {
    "op-apply-n1": (SpacetimeGrid.default(1), KernelSpec(0.5, 1)),
    "op-apply-n2": (SpacetimeGrid.default(2), KernelSpec(1.0, 2)),
    "scan-region": (SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0), KernelSpec(0.4, 1)),
    "norm-test": (SpacetimeGrid(Grid(1, 1024, 64.0), 1024, 64.0), KernelSpec(0.4, 1)),
    "n2-64": (SpacetimeGrid(Grid(2, 64, 32.0), 64, 32.0), KernelSpec(1.0, 2)),
}


@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
@pytest.mark.parametrize("name", sorted(_CONTRACTION_GRIDS))
def test_symbol_equals_the_per_cell_contraction_bit_for_bit(name, path):
    # one row per distinct |xi|, gathered to the cells of that radius, has
    # the bits of one row per cell, for the base rule and a denser one
    g, spec = _CONTRACTION_GRIDS[name]
    quad = RadialQuadrature.for_grid(g)
    for q in (quad, quad.refined(density=2.0)):
        want = oracles.symbol_per_cell_reference(g, spec, q, path)
        assert np.array_equal(symbol(g, spec, q, path).array(), want)


# n = 1 on 256^2 at extents 32 and 64 and on 1024^2, and n = 2 on 32^3, 64^3
# and 128^3; and the edges of the phases' tau mirror, N_t = 2 (no column
# mirrored) at n = 1 and N_t = 4 (one) at n = 2
_CELL_GRIDS = [SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0),
               SpacetimeGrid(Grid(1, 256, 64.0), 256, 64.0),
               SpacetimeGrid(Grid(1, 1024, 64.0), 1024, 64.0),
               SpacetimeGrid(Grid(2, 32, 32.0), 32, 32.0),
               SpacetimeGrid(Grid(2, 64, 32.0), 64, 32.0),
               SpacetimeGrid.default(2),
               SpacetimeGrid(Grid(1, 64, 16.0), 2, 6.0),
               SpacetimeGrid(Grid(2, 32, 16.0), 4, 8.0)]


@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
@pytest.mark.parametrize("g", _CELL_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
def test_symbol_array_has_the_bits_of_the_cell_assembly(g, path):
    # the rows as one product over the whole table, gathered to every
    # cell, against the assembly that wrote one block of cells at a time
    # from its slice of the table
    quad = RadialQuadrature.for_grid(g)
    for alpha in (0.3, 0.5, 0.7):
        spec = KernelSpec(alpha, g.space.n)
        want = oracles.symbol_cells_reference(g, spec, quad, path)
        assert np.array_equal(symbol(g, spec, quad, path).array(), want), alpha


@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.6])
def test_symbol_off_the_cone_is_the_truncated_radial_integral(alpha):
    # a few cells off the cone with |xi| + |tau| < 0.5 on the scan-region
    # grid, against the integral of 2 omega_hat(r |xi|) cos(2 pi r tau)
    # r^(2 alpha - 1) over (0, r_max) in mpmath, read from a table that
    # must have been built for this grid, window, order and these cells
    g = _CONTRACTION_GRIDS["scan-region"][0]
    quad = RadialQuadrature.for_grid(g)
    table = offcone_table.load()
    assert (table["points"], table["extent"]) == (g.space.points, g.space.extent)
    assert table["r_max"] == quad.r_max
    assert np.array_equal(table["cells"], offcone_table.CELLS)
    k, l = table["cells"].T
    assert np.array_equal(table["xi"], g.space.freq_radius()[k])
    assert np.array_equal(table["tau"], g.t_freq_axis()[l])
    assert np.all(table["xi"] + table["tau"] < 0.5) and np.all(k != l)
    [row] = np.flatnonzero(table["alphas"] == alpha)
    for path in ("multiplier", "cone-direct"):
        m = symbol(g, KernelSpec(alpha, 1), quad, path).array()
        assert np.max(np.abs(m[k, l] - table["values"][row])) <= 2e-3 * np.max(np.abs(m))


def test_symbol_peak_stays_within_the_per_cell_footprint():
    # the product over the distinct |xi| holds the table, the phases and
    # the rows, against the (nodes x cells) gather of the per-cell
    # contraction; the profile runs on blocks of the table.  Measured:
    # 0.945 of the per-cell peak on this 1024^2 grid
    g, spec = _CONTRACTION_GRIDS["norm-test"]
    quad = RadialQuadrature.for_grid(g)
    peaks = []
    for build in (symbol, oracles.symbol_per_cell_reference):
        tracemalloc.start()
        try:
            build(g, spec, quad, "multiplier")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.96 * peaks[1], peaks


@pytest.mark.parametrize("name, count", [("norm-test", 160), ("norm-test", 640),
                                         ("norm-test", 2560), ("n2-64", 160), ("n2-64", 640)])
def test_a_symbol_build_holds_its_rows_once(name, count):
    # traced peak of symbol, in units of its rows' bytes: at most the
    # rows, the phases, the table and one profile block, which holds up
    # to about 9 times its arguments' bytes (measured: 8.96 on the
    # norm-test grid, 8.42 on 64^3).  Measured: 0.72, 0.84 and 0.94 of
    # the bound on norm-test at 160, 640 and 2560 nodes, 0.72 and 0.90 on
    # 64^3.  A second rows-sized copy breaks it on norm-test (1.29, 1.18
    # and 1.07), and at 2560 nodes, more than twice the rows' count, so
    # does a copy of half the phases while they are mirrored (1.10)
    g, spec = _CONTRACTION_GRIDS[name]
    quad = RadialQuadrature.for_grid(g, count)
    tracemalloc.start()
    try:
        m = symbol(g, spec, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = m.rows.nbytes
    phases, table = 8 * count * g.t_points, 8 * count * m.rows.shape[0]
    block = 9 * 8 * conop._PROFILE_POINTS
    assert peak <= rows + phases + table + block, peak / rows


def test_the_symbols_the_package_builds_adopt_fresh_read_only_rows(monkeypatch):
    # symbol's rows, each refinement change that convergence_check
    # measures and the change that relative_change measures are arrays of
    # their own, read-only, that share memory with no symbol or input
    # they were made from
    g, spec = _APPLY_GRIDS[1]
    quad = RadialQuadrature.for_grid(g, 32)
    f = _random_field(g, "real", 53)
    m, other = symbol(g, spec, quad), symbol(g, spec, quad, "cone-direct")
    measured = []
    relative_norm = fields._HeldSpectrum.relative_norm

    def spy(self, d, base):
        measured.append(d)
        return relative_norm(self, d, base)

    monkeypatch.setattr(fields._HeldSpectrum, "relative_norm", spy)
    apply = symbol_applier(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        convergence_check(apply, spec, quad, m)
    apply.relative_change(other, m)
    assert len(measured) == 4
    assert np.array_equal(measured[-1].rows, other.rows - m.rows)
    given = [m.rows, other.rows, f.samples]
    for s in [m, other] + measured:
        assert isinstance(s, RadialSymbol) and s.grid == g
        with pytest.raises(ValueError, match="read-only"):
            s.rows[0, 0] = 0.0
        assert not any(np.shares_memory(s.rows, a) for a in given if a is not s.rows)


def test_symbol_and_symbol_applier_guards():
    g = _grid(32, 16.0)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 16)
    with pytest.raises(ValueError, match="cone-direct"):
        symbol(g, spec, quad, "slices")
    with pytest.raises(ValueError, match="dimension"):
        symbol(g, KernelSpec(1.0, 2), quad)
    m = symbol(g, spec, quad)
    with pytest.raises(TypeError):
        symbol_applier(ens.gaussian(Grid(1, 32, 16.0)))(m)


def _complex_pair(f: SpacetimeField, m: RadialSymbol) -> np.ndarray:
    # the full complex FFT pair with shifts and spacing scales
    m = m.array()
    axes = range(f.samples.ndim)
    g = f.grid
    spacings = (g.space.spacing,) * g.space.n + (g.t_spacing,)
    return oracles.inverse_transform_reference(
        m * oracles.transform_reference(f.samples, axes, spacings), axes, spacings)


def _random_field(g: SpacetimeGrid, kind: str, seed: int) -> SpacetimeField:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.shape)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(g.shape)
    return SpacetimeField(g, x)


_APPLY_GRIDS = {
    1: (SpacetimeGrid(Grid(1, 64, 16.0), 32, 16.0), KernelSpec(0.4, 1)),
    2: (SpacetimeGrid(Grid(2, 16, 8.0), 16, 8.0), KernelSpec(1.0, 2)),
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
def test_symbol_applier_agrees_with_the_complex_pair(path, n, kind):
    # the half-spectrum real-input apply against the full complex pair
    g, spec = _APPLY_GRIDS[n]
    m = symbol(g, spec, RadialQuadrature.for_grid(g, 32), path)
    f = _random_field(g, kind, 11 + n)
    keep = f.samples.copy()
    out = symbol_applier(f)(m)
    assert np.array_equal(f.samples, keep)
    want = _complex_pair(f, m)
    assert np.linalg.norm(out - want) <= 1e-13 * np.linalg.norm(want)


def _complex_typed_real_apply(samples: np.ndarray, m: RadialSymbol) -> np.ndarray:
    # the real path on complex-typed fields: rfftn of the real part (a
    # strided view of the complex128 samples), the tau >= 0 half of m,
    # irfftn, and the output widened to complex128 again
    m = m.array()
    wide = np.asarray(samples, dtype=np.complex128)
    half = m.shape[-1] // 2 + 1
    axes = tuple(range(m.ndim))
    out = np.fft.irfftn(np.fft.rfftn(wide.real) * m[..., :half], s=m.shape, axes=axes)
    return np.asarray(out, dtype=np.complex128)


def test_symbol_applier_keeps_real_inputs_real():
    g, spec = _APPLY_GRIDS[1]
    m = symbol(g, spec, RadialQuadrature.for_grid(g, 32))
    for f in (_random_field(g, "real", 3), ens.gaussian_spacetime(g, 1.5),
              SpacetimeField(g, _random_field(g, "real", 4).samples.astype(np.complex128))):
        out = symbol_applier(f)(m)
        assert out.dtype == np.float64
        want = _complex_typed_real_apply(f.samples, m)
        assert np.all(want.imag == 0.0)
        assert np.array_equal(out, want.real)
        assert np.any(out != 0.0)


_TWIN_GRIDS = {
    # a spatial grid for the norms alone, then a spacetime grid of as many
    # samples: Grid.default(1) and 64 x 64, a 32^3 box and 32^2 x 32
    "n1": (Grid.default(1), SpacetimeGrid(Grid(1, 64, 16.0), 64, 16.0), KernelSpec(0.4, 1)),
    "n2": (Grid(3, 32, 16.0), SpacetimeGrid(Grid(2, 32, 16.0), 32, 16.0), KernelSpec(1.0, 2)),
}
_TWIN_EXPONENTS = (1 / 0.86, 2.0, 1 / 0.3)


@pytest.mark.parametrize("name", sorted(_TWIN_GRIDS))
def test_real_fields_report_the_numbers_of_their_complex_twins(name):
    # a float64 field and its complex128 twin (imaginary part +0.0) give
    # the same norms, operator outputs and ladder ratios to the last bit
    space, g, spec = _TWIN_GRIDS[name]
    for w in (0.5, 2.0):
        f = ens.gaussian(space, w)
        twin = Field(space, f.samples.astype(np.complex128))
        assert f.samples.dtype == np.float64
        for p in _TWIN_EXPONENTS:
            assert lp_norm(f, p) == lp_norm(twin, p), (w, p)
    m = symbol(g, spec, RadialQuadrature.for_grid(g, 32))
    widths = (0.75, 1.5, 3.0)
    real = [ens.gaussian_spacetime(g, w) for w in widths]
    real.append(ens.cone_plate(g, 1.0, t_span=3.0))
    twins = [SpacetimeField(g, f.samples.astype(np.complex128)) for f in real]
    for f, twin in zip(real, twins):
        assert f.samples.dtype == np.float64 and twin.samples.dtype == np.complex128
        for p in _TWIN_EXPONENTS:
            assert lp_norm(f, p) == lp_norm(twin, p), p
        out, twin_out = symbol_applier(f)(m), symbol_applier(twin)(m)
        assert np.array_equal(out, twin_out)
        assert np.array_equal(out, _complex_typed_real_apply(f.samples, m).real)
    inv_p = 0.7
    inv_q = inv_p - spec.alpha / spec.n
    ratios = [ratio_ladder(m, [(inv_p, inv_q)], family)[0].ratios for family in (real, twins)]
    want = tuple(lp_norm(_applied(f, m), 1.0 / inv_q) / lp_norm(f, 1.0 / inv_p) for f in real)
    assert ratios[0] == ratios[1] == want


def _no_transforms(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("a transform ran before the symbol was checked")

    for name in ("rfftn", "fftn", "rfft"):
        monkeypatch.setattr(np.fft, name, no_fft)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_every_apply_refuses_a_bare_array_before_any_transform(monkeypatch, kind):
    # the bare array of the symbol's own cells: its evenness is not held
    # by its type, so no entry point takes it
    g, spec = _APPLY_GRIDS[1]
    f = _random_field(g, kind, 5)
    quad = RadialQuadrature.for_grid(g, 32)
    m = symbol(g, spec, quad)
    bare = m.array()
    point = ExponentPoint(0.7, 0.7 - spec.alpha, spec.alpha, 1)
    _no_transforms(monkeypatch)
    apply = symbol_applier(f)
    for call in (lambda: apply(bare), lambda: apply.last(bare),
                 lambda: apply.relative_change(bare, m), lambda: apply.relative_change(m, bare),
                 lambda: apply.relative_norm(bare, m), lambda: apply.relative_norm(m, bare),
                 lambda: convergence_check(f, spec, quad, bare),
                 lambda: convergence_check(apply, spec, quad, bare),
                 lambda: ratio_ladder(bare, [(point.inv_p, point.inv_q)], [f]),
                 lambda: ratio_probes(bare, [point], [1.0, 2.0])):
        with pytest.raises(TypeError, match="RadialSymbol"):
            call()
    with pytest.raises(AssertionError):
        symbol_applier(f).last(m)  # the guard passes a symbol on


def test_every_apply_refuses_a_symbol_of_another_grid_before_any_transform(monkeypatch):
    # a symbol on the 16-extent grid and a field of the same shape on the
    # 32-extent one: the samples would fit, the frequencies do not
    near = SpacetimeGrid(Grid(1, 64, 16.0), 64, 16.0)
    far = SpacetimeGrid(Grid(1, 64, 32.0), 64, 32.0)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(near, 32)
    m = symbol(near, spec, quad)
    f = ens.gaussian_spacetime(far, 1.0)
    assert far.shape == near.shape
    own = symbol(far, spec, quad)
    _no_transforms(monkeypatch)
    apply = symbol_applier(f)
    for call in (lambda: apply(m), lambda: apply.last(m),
                 lambda: apply.relative_change(m, own), lambda: apply.relative_change(own, m),
                 lambda: apply.relative_norm(m, own), lambda: apply.relative_norm(own, m),
                 lambda: convergence_check(f, spec, quad, m),
                 lambda: ratio_ladder(m, [(0.7, 0.3)], [f])):
        with pytest.raises(ValueError, match="grid"):
            call()
    with pytest.raises(AssertionError):
        apply(own)  # the guard passes a symbol of the field's grid on


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_single_use_apply_leaves_its_input_and_symbol_unchanged(kind):
    # used once, the apply multiplies into its own spectrum, never into f or m
    g, spec = _APPLY_GRIDS[2]
    m = symbol(g, spec, RadialQuadrature.for_grid(g, 32))
    f = _random_field(g, kind, 19)
    keep_f, keep_m = f.samples.copy(), m.rows.copy()
    out = symbol_applier(f).last(m).whole()
    assert np.array_equal(f.samples, keep_f) and np.array_equal(m.rows, keep_m)
    assert np.array_equal(out, symbol_applier(f)(m))


@pytest.mark.parametrize("kind, bound", [("real", 2.1), ("complex", 1.1)])
def test_a_single_use_apply_holds_no_field_sized_temporaries(kind, bound):
    # traced peak of one apply on a 512^2 field, in units of the field's
    # bytes: the spectrum and, for a real field, the float64 output; the
    # symbol's cells are gathered from its rows a block at a time
    g = SpacetimeGrid(Grid(1, 512, 32.0), 512, 32.0)
    f = _random_field(g, kind, 29)
    a = np.random.default_rng(31).standard_normal((g.space.points // 2 + 1, g.t_points))
    m = RadialSymbol(g, a + np.roll(a[:, ::-1], 1, axis=1))
    del a
    tracemalloc.start()
    try:
        out = symbol_applier(f).last(m).whole()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == f.samples.dtype
    assert peak <= bound * f.samples.nbytes, peak / f.samples.nbytes


def _count_transforms(monkeypatch):
    calls = []
    for name in ("rfftn", "fftn"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_symbol_applier_transforms_once_and_then_holds_only_the_spectrum(monkeypatch, kind):
    g, spec = _APPLY_GRIDS[1]
    f = _random_field(g, kind, 7)
    symbols = [symbol(g, spec, RadialQuadrature.for_grid(g, count), path)
               for count in (16, 32) for path in ("multiplier", "cone-direct")]
    want = [symbol_applier(f).last(m).whole() for m in symbols]
    calls = _count_transforms(monkeypatch)
    apply = symbol_applier(f)
    assert calls == []  # nothing is transformed before the first symbol
    alive = weakref.ref(f)
    del f
    got = [apply(m) for m in symbols]
    gc.collect()
    assert alive() is None  # the spectrum replaced the input's samples
    assert len(calls) == 1
    assert got[0].dtype == (np.float64 if kind == "real" else np.complex128)
    for a, b in zip(got, want):
        assert np.array_equal(SpacetimeField(g, a).samples, b)


def _sample_change(apply, m1, m0) -> float:
    # the relative L2 change between two outputs, by two inverse transforms
    base = apply(m0)
    return float(np.linalg.norm(apply(m1) - base)) / float(np.linalg.norm(base))


@pytest.mark.parametrize("pair", ["refinement", "cross-path"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["float64", "complex-zero-imag", "complex"])
def test_relative_change_equals_the_sample_domain_change(kind, n, pair):
    # Parseval on the held spectrum against the distance of the two outputs
    g, spec = _APPLY_GRIDS[n]
    quad = RadialQuadrature.for_grid(g, 32)
    m0 = symbol(g, spec, quad)
    if pair == "refinement":
        m1 = symbol(g, spec, quad.refined(r_min=quad.r_min / 2.0))
    else:
        m1 = symbol(g, spec, quad, "cone-direct")
    samples = _random_field(g, "complex" if kind == "complex" else "real", 23 + n).samples
    if kind == "complex-zero-imag":
        samples = samples.astype(np.complex128)
    apply = symbol_applier(SpacetimeField(g, samples))
    want = _sample_change(apply, m1, m0)
    assert apply.relative_change(m1, m0) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_relative_change_refuses_a_broken_symbol_before_any_transform(monkeypatch):
    g, spec = _APPLY_GRIDS[1]
    m = symbol(g, spec, RadialQuadrature.for_grid(g, 32))
    other = symbol(g, spec, RadialQuadrature.for_grid(g, 48))
    elsewhere = SpacetimeGrid(Grid(1, 64, 32.0), g.t_points, g.t_extent)
    bad = [(m.array(), TypeError, "RadialSymbol"),
           (symbol(elsewhere, spec, RadialQuadrature.for_grid(g, 32)), ValueError, "grid")]
    calls = _count_transforms(monkeypatch)
    for f in (_random_field(g, "real", 37), SpacetimeField(g, np.zeros(g.shape))):
        apply = symbol_applier(f)
        for wrong, error, match in bad:
            with pytest.raises(error, match=match):
                apply.relative_change(wrong, m)
            with pytest.raises(error, match=match):
                apply.relative_change(m, wrong)
    assert calls == []
    # a zero output reads 0.0, once the symbols have passed the checks
    assert apply.relative_change(other, m) == 0.0


def test_a_single_use_apply_takes_the_orthant_route_for_an_even_separable_input_alone(
        monkeypatch):
    # fields picks the route: the reference Gaussian, even on every axis,
    # gives the output's nonnegative orthant; a factor rolled by one
    # sample, a materialized field and a wave packet give the generic
    # output, bit for bit the reusable apply's, and the reusable apply
    # never takes the orthant route
    g = SpacetimeGrid(Grid(1, 64, 16.0), 64, 16.0)
    m = symbol(g, KernelSpec(0.4, 1), RadialQuadrature.for_grid(g, 32))
    sep = ens.separable_gaussian(g, 1.0)
    generic = [SeparableField(g, sep.space, np.roll(sep.time, 1)),
               ens.gaussian_spacetime(g, 1.0), ens.wave_packet(g, 1.0, k_x=0.5, k_t=0.25)]
    full = symbol_applier(sep)(m)
    wants = [symbol_applier(f)(m) for f in generic]
    routes = []
    for route, name in (("generic", "_spectrum"), ("orthant", "_orthant_spectrum")):
        def spy(samples, route=route, transform=getattr(fields, name)):
            routes.append(route)
            return transform(samples)
        monkeypatch.setattr(fields, name, spy)
    apply = symbol_applier(sep)
    out = apply.last(m)
    assert routes == ["orthant"] and isinstance(out, fields._Orthant)
    half = (g.space.points // 2 + 1, g.t_points // 2 + 1)
    orthant = full[:half[0], :half[1]]
    assert np.max(np.abs(out.part(0, out.size).reshape(half) - orthant)) <= (
        1e-14 * np.max(np.abs(orthant)))
    with pytest.raises(RuntimeError, match="given up"):
        apply(m)
    for f, want in zip(generic, wants):
        routes.clear()
        apply = symbol_applier(f)
        assert np.array_equal(apply.last(m).whole(), want)
        assert routes == ["generic"]
        for call in (lambda: apply(m), lambda: apply.last(m), lambda: apply.relative_norm(m, m)):
            with pytest.raises(RuntimeError, match="given up"):
                call()
    routes.clear()
    assert np.array_equal(symbol_applier(sep)(m), full)
    assert routes == ["generic"]


@pytest.mark.parametrize("route", ["generic", "orthant"])
def test_the_whole_output_of_a_single_use_apply_is_the_apply_or_a_named_refusal(route):
    # the orthant route streams part and weight alone, and its whole()
    # says so; the generic route's whole() is the reusable apply, bit for bit
    g = SpacetimeGrid(Grid(1, 32, 16.0), 32, 16.0)
    m = symbol(g, KernelSpec(0.4, 1), RadialQuadrature.for_grid(g, 32))
    sep = ens.separable_gaussian(g, 1.0)
    f = sep if route == "orthant" else SeparableField(g, sep.space, np.roll(sep.time, 1))
    out = symbol_applier(f).last(m)
    if route == "orthant":
        with pytest.raises(RuntimeError, match=r"streams part.*weight.*only.*apply\(m\)"):
            out.whole()
    else:
        assert np.array_equal(out.whole(), symbol_applier(f)(m))


def test_symbol_applier_guards_its_input():
    with pytest.raises(TypeError):
        symbol_applier(ens.gaussian(Grid(1, 32, 16.0)))


def test_apply_path_lookup():
    assert apply_path("multiplier") is omega_hat
    assert apply_path("cone-direct") is omega_hat_jacobi
    for gone in ("slices", "spectral"):
        with pytest.raises(ValueError, match="cone-direct"):
            apply_path(gone)


# ---------------------------------------------------------------------------
# homogeneity


def test_joint_dilation_homogeneity():
    # I(f(./d)) = d^(B alpha) [I f](./d) with B = (n+1)/n, provided the
    # radial window co-dilates so both sides integrate the same cone
    # shells.  Checked through two scalar consequences that need no
    # resampling of the output: the origin value (where ./d is a fixed
    # point) and the L2 norm, which picks up an extra d^((n+1)/2).
    g = _grid(256, 64.0)
    spec = KernelSpec(0.4, 1)
    # width 2 keeps the half-scale member (width 1) well resolved
    f = ens.gaussian_spacetime(g, 2.0)
    a0, a1 = g.t_spacing / 4.0, 12.0
    out = _apply(f, spec, RadialQuadrature(a0, a1, 160))
    center = g.space.points // 2
    t_center = g.t_points // 2
    origin = out.samples[center, t_center].real
    power = spec.time_scale_power * spec.alpha
    for delta in (0.5, 2.0):
        # f(./d) is the Gaussian of width 2 d, built on the grid exactly
        lhs = _apply(ens.gaussian_spacetime(g, 2.0 * delta), spec,
                     RadialQuadrature(a0 * delta, a1 * delta, 160))
        got_origin = lhs.samples[center, t_center].real
        assert got_origin == pytest.approx(delta**power * origin, rel=5e-3)
        got_norm = lp_norm(lhs, 2.0)
        want_norm = delta ** (power + 1.0) * lp_norm(out, 2.0)
        assert got_norm == pytest.approx(want_norm, rel=5e-3), f"delta={delta}"


# ---------------------------------------------------------------------------
# diagnostics


def test_convergence_check_reports_and_warns():
    g = _grid(64, 16.0)
    f = ens.gaussian_spacetime(g, 1.0)
    spec = KernelSpec(0.4, 1)
    coarse = RadialQuadrature.for_grid(g, 48)
    with pytest.warns(UnderResolvedWarning):
        rep = convergence_check(f, spec, coarse, symbol(g, spec, coarse))
    assert set(rep) == {
        "r_min_halved",
        "r_max_doubled",
        "nodes_doubled",
        "tolerance",
        "under_resolved",
        "windows",
    }
    assert rep["under_resolved"] is True
    for key, rule in conop._refinements(coarse, g).items():
        assert rep["windows"][key] == {"r_min": rule.r_min, "r_max": rule.r_max,
                                       "added_nodes": rule.count - coarse.count}

    # a deep, dense window on a short frequency range stays quiet: the
    # inner-cutoff completion error scales like r_min^(B alpha), so the
    # cutoff has to sit well below the time step before 1e-3 is met
    g2 = SpacetimeGrid(Grid(1, 64, 16.0), 16, 16.0)
    f2 = ens.gaussian_spacetime(g2, 1.0)
    roomy = RadialQuadrature(g2.t_spacing / 2048.0, 16.0, 960)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnderResolvedWarning)
        rep2 = convergence_check(f2, spec, roomy, symbol(g2, spec, roomy),
                                 tol=1e-3)
    assert rep2["under_resolved"] is False


def test_convergence_check_takes_an_applier_with_the_same_bits(monkeypatch):
    g = _grid(64, 16.0)
    f = ens.gaussian_spacetime(g, 1.0)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 48)
    m = symbol(g, spec, quad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        want = convergence_check(f, spec, quad, m)
        calls = _count_transforms(monkeypatch)
        got = convergence_check(symbol_applier(f), spec, quad, m)
    assert got == want
    assert len(calls) == 1


def test_convergence_check_reports_an_unrun_r_max_refinement_as_not_measured():
    # r_max already at half the time extent: the cap leaves no room for a
    # larger window, so that refinement is not run and must not read as a
    # zero sensitivity or enter the verdict
    g = _grid(64, 16.0)
    f = ens.gaussian_spacetime(g, 1.0)
    spec = KernelSpec(0.4, 1)
    for r_max in (g.t_extent / 2.0, g.t_extent):
        quad = RadialQuadrature(g.t_spacing / 4.0, r_max, 48)
        m = symbol(g, spec, quad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedWarning)
            rep = convergence_check(f, spec, quad, m)
        assert rep["r_max_doubled"] is None
        measured = [rep["r_min_halved"], rep["nodes_doubled"]]
        assert all(v > 0.0 for v in measured)
        for tol in (0.5 * min(measured), 2.0 * max(measured)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnderResolvedWarning)
                again = convergence_check(f, spec, quad, m, tol=tol)
            assert again["under_resolved"] is (max(measured) > tol)


def test_convergence_check_of_a_zero_input_reads_zero_after_the_checks():
    g = _grid(64, 16.0)
    f = SpacetimeField(g, np.zeros(g.shape))
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature.for_grid(g, 48)
    m = symbol(g, spec, quad)
    rep = convergence_check(f, spec, quad, m)
    assert [rep[k] for k in ("r_min_halved", "r_max_doubled", "nodes_doubled")] == [0.0] * 3
    assert rep["under_resolved"] is False
    with pytest.raises(ValueError, match="cone-direct"):
        convergence_check(f, spec, quad, m, path="slices")
    with pytest.raises(TypeError, match="RadialSymbol"):
        convergence_check(f, spec, quad, m.array())


# the benchmark's op-apply boxes and the applier grids at their default
# windows, and a window whose r_max refinement is capped below 2 r_max
_REFINED_GRIDS = {
    "bench-n1": SpacetimeGrid(Grid(1, 256, 64.0), 256, 64.0),
    "bench-n2": SpacetimeGrid(Grid(2, 32, 32.0), 32, 32.0),
    "apply-n1": _APPLY_GRIDS[1][0],
    "apply-n2": _APPLY_GRIDS[2][0],
    "capped": _grid(64, 16.0),
}


@pytest.mark.parametrize("name", sorted(_REFINED_GRIDS))
def test_refined_rules_keep_every_base_node_and_end_where_asked(name):
    g = _REFINED_GRIDS[name]
    if name == "capped":
        quad = RadialQuadrature(g.t_spacing / 4.0, 0.375 * g.t_extent, 48)
    else:
        quad = RadialQuadrature.for_grid(g)
    base = quad.nodes()
    dlog = np.log(quad.r_max / quad.r_min) / (quad.count - 1)
    rules = conop._refinements(quad, g)
    assert list(rules) == ["r_min_halved", "r_max_doubled", "nodes_doubled"]

    low = rules["r_min_halved"]
    nodes = low.nodes()
    added = low.count - quad.count
    assert np.array_equal(nodes[added:], base)
    assert nodes[0] == low.r_min == quad.r_min / 2.0
    steps = np.diff(np.log(nodes[:added + 1]))
    assert 0.0 < steps[0] < dlog
    assert np.allclose(steps[1:], dlog, rtol=1e-12, atol=0.0)

    hi = min(2.0 * quad.r_max, g.t_extent / 2.0)
    high = rules["r_max_doubled"]
    nodes = high.nodes()
    assert np.array_equal(nodes[:quad.count], base)
    assert nodes[-1] == high.r_max == hi
    assert (hi < 2.0 * quad.r_max) is (name == "capped")
    steps = np.diff(np.log(nodes[quad.count - 1:]))
    assert 0.0 < steps[-1] < dlog
    assert np.allclose(steps[:-1], dlog, rtol=1e-12, atol=0.0)

    double = rules["nodes_doubled"]
    assert double.count == 2 * quad.count - 1
    assert np.array_equal(double.nodes()[::2], base)

    # each rule is a trapezoid rule in log r: its log weights add up to
    # its window, and a base node's weight moves only at a moved end
    for rule in (low, high, double):
        assert rule.log_weights().sum() == pytest.approx(np.log(rule.r_max / rule.r_min),
                                                         rel=1e-13)
    w = quad.log_weights()
    assert np.array_equal(low.log_weights()[added + 1:], w[1:])
    assert np.array_equal(high.log_weights()[:quad.count - 1], w[:-1])


@pytest.mark.parametrize("key", ["r_min_halved", "r_max_doubled", "nodes_doubled"])
@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
@pytest.mark.parametrize("n", [1, 2])
def test_base_plus_a_refinement_change_is_the_refined_rule_summed_per_cell(n, path, key):
    # the change assembled from the added nodes alone, added to the base
    # symbol, against the refined rule's whole symbol summed node by node
    g, spec = _APPLY_GRIDS[n]
    quad = RadialQuadrature.for_grid(g)
    m = symbol(g, spec, quad, path)
    refined = conop._refinements(quad, g)[key]
    change = conop._refinement_change(g, spec, apply_path(path), quad, refined, m)
    e = spec.time_scale_power * spec.alpha - 1.0
    want = oracles.rule_symbol_reference(g, spec, path, refined.nodes(),
                                         refined.measure_weights(e),
                                         refined.completion_mass(e))
    assert isinstance(change, RadialSymbol) and change.grid == g
    m = m.array()
    assert np.max(np.abs(m + change.array() - want)) <= 1e-12 * np.max(np.abs(m))
    # the base rule itself, through the same reference
    base = oracles.rule_symbol_reference(g, spec, path, quad.nodes(),
                                         quad.measure_weights(e), quad.completion_mass(e))
    assert np.max(np.abs(m - base)) <= 1e-12 * np.max(np.abs(m))
