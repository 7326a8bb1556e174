"""Classifier, norms, inequality checkers, and trend verdicts."""

import gc
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import conewave.analysis as analysis
import conewave.ensembles as ens
import conewave.fields as fields
from conewave import (
    CaseBoundReport,
    ExponentPoint,
    Field,
    Grid,
    InadmissibleParamsError,
    KernelSpec,
    MixedNormSpec,
    RadialQuadrature,
    Region,
    SeparableField,
    SpacetimeField,
    SpacetimeGrid,
    SteinWeissParams,
    boundedness_verdict,
    case_bound_check,
    classify_exponents,
    crucial_estimate_ratio,
    lp_norm,
    mixed_norms,
    mixed_norms_refined,
    necessary_window,
    omega_hat,
    ratio_ladder,
    ratio_probes,
    stein_weiss_measure,
    sw_derived_params,
    symbol,
    symbol_applier,
)
from conewave.analysis import CaseFit, _lp
from conewave.fields import RadialSymbol
from conewave.specialfn import bessel_remainder


# ---------------------------------------------------------------------------
# exponent-region classifier


def test_worked_examples():
    assert classify_exponents(ExponentPoint(0.7, 0.2, 1.0, 2)) is Region.REGION_I
    assert classify_exponents(ExponentPoint(0.7, 0.3, 0.4, 1)) is Region.REGION_II
    assert classify_exponents(ExponentPoint(0.95, 0.55, 0.4, 1)) is Region.OPEN_GAP


def test_necessary_window_values():
    lo, hi = necessary_window(0.4, 1)
    assert (lo, hi) == (pytest.approx(0.4), pytest.approx(1.0))
    lo, hi = necessary_window(1.0, 2)
    assert (lo, hi) == (pytest.approx(0.625), pytest.approx(0.875))


def test_off_line_points_are_scaling_violated_first():
    # off the line AND outside the window: the scaling check wins
    assert classify_exponents(ExponentPoint(0.2, 0.9, 0.4, 1)) is Region.SCALING_VIOLATED


def test_boundary_labels():
    # sub-window edges at n=1, alpha=0.4 sit at 1/p = 0.5 and 0.9
    assert classify_exponents(ExponentPoint(0.5, 0.1, 0.4, 1)) is Region.BOUNDARY
    assert classify_exponents(ExponentPoint(0.9, 0.5, 0.4, 1)) is Region.BOUNDARY
    # outer window edge 1/p = 0.4 (its 1/q leaves (0,1), so step slightly in)
    assert classify_exponents(ExponentPoint(0.4 + 5e-13, 5e-13, 0.4, 1)) is Region.BOUNDARY


def test_region_one_includes_the_threshold_order():
    # alpha = n/(n+1) exactly: both theorems apply, RegionI takes precedence
    assert classify_exponents(ExponentPoint(0.7, 0.2, 0.5, 1)) is Region.REGION_I


def test_point_validation():
    with pytest.raises(ValueError):
        ExponentPoint(0.0, 0.3, 0.4, 1)
    with pytest.raises(ValueError):
        ExponentPoint(0.7, 1.0, 0.4, 1)
    with pytest.raises(ValueError):
        ExponentPoint(0.7, 0.3, 1.5, 1)
    with pytest.raises(ValueError):
        ExponentPoint(0.7, 0.3, 0.4, 0)


@given(
    n=st.integers(min_value=1, max_value=3),
    ip=st.floats(min_value=0.02, max_value=0.98),
    frac=st.floats(min_value=0.02, max_value=0.98),
    off=st.sampled_from([0.0, 0.0, 0.1, -0.07]),
)
@settings(max_examples=400, deadline=None)
def test_classifier_agrees_with_rational_rederivation(n, ip, frac, off):
    alpha = frac * n
    iq = ip - alpha / n + off
    if not 0.0 < iq < 1.0:
        return
    got = classify_exponents(ExponentPoint(ip, iq, alpha, n))
    assert got.value == oracles.classify_reference(ip, iq, alpha, n)


@given(ip=st.floats(min_value=0.51, max_value=0.89))
@settings(max_examples=120, deadline=None)
def test_region_two_is_self_dual(ip):
    # (1/p, 1/q) and (1-1/q, 1-1/p) share RegionII membership
    alpha, n = 0.4, 1
    pt = ExponentPoint(ip, ip - alpha / n, alpha, n)
    if classify_exponents(pt) is not Region.REGION_II:
        return
    dual = classify_exponents(ExponentPoint(1.0 - pt.inv_q, 1.0 - pt.inv_p, alpha, n))
    assert dual is Region.REGION_II


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_label_is_self_dual_on_exact_rationals(n):
    # on the scaling line 1/p - 1/q = alpha/n the dual point (1 - 1/q,
    # 1 - 1/p) lies on the same line, and 1/p -> 1 + alpha/n - 1/p swaps
    # the window's ends and Region II's ends, so a point and its dual carry
    # one label.  Every point of a rational grid, its ends included, is
    # formed in exact arithmetic; both points are classified by
    # classify_exponents and by the rational rederivation
    den = 24
    seen = set()
    for a in range(1, den * n):
        alpha = Fraction(a, den)
        for k in range(1, den):
            inv_p = Fraction(k, den)
            inv_q = inv_p - alpha / n
            if not 0 < inv_q < 1:
                continue
            labels = set()
            for x, y in ((inv_p, inv_q), (1 - inv_q, 1 - inv_p)):
                pt = ExponentPoint(float(x), float(y), float(alpha), n)
                labels |= {classify_exponents(pt).value,
                           oracles.classify_reference(pt.inv_p, pt.inv_q, pt.alpha, n)}
            assert len(labels) == 1, (alpha, inv_p, labels)
            seen |= labels
    # at n = 1 the window (alpha, 1) is the whole of the line inside the
    # unit square, so no point of it lies outside
    want = {"Boundary", "OutsideNecessary", "RegionI", "RegionII", "OpenGap"}
    assert seen == (want - {"OutsideNecessary"} if n == 1 else want)


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_gaussian_closed_forms():
    g = Grid(1, 2048, 64.0)
    for width in (0.5, 1.0, 3.0):
        f = ens.gaussian(g, width)
        for p in (1.5, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(
                oracles.gaussian_lp_reference(width, p), rel=1e-10
            )
        assert lp_norm(f, float("inf")) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_guards():
    g = Grid(1, 64, 16.0)
    f = ens.gaussian(g, 1.0)
    with pytest.raises(ValueError):
        lp_norm(f, 1.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(TypeError):
        lp_norm(np.zeros(4), 2.0)
    bad = Field(g, np.full(64, np.nan))
    with pytest.raises(ValueError):
        lp_norm(bad, 2.0)


# 1 + 2^-40 puts the cut 2^(-1080/p) itself below the least subnormal
_LP_EXPONENTS = [1 + 2.0**-40, 1 / 0.9, 1 / 0.7, 1 / 0.55, 1 / 0.3, 2.0, 10.0, float("inf")]


def _lp_reference(x, p, cell, axis=None):
    # frozen reference: pow on every magnitude, summed in one np.sum
    if np.isinf(p):
        return np.abs(x).max(axis=axis)
    return (np.sum(np.abs(x) ** p, axis) * cell) ** (1 / p)


def _tail_fields():
    # Gaussian ladder inputs whose tails hold exact zeros, subnormals and
    # normal values whose p-th power underflows
    st256 = SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0)
    fields = [ens.gaussian_spacetime(st256, w) for w in (0.5, 1.0, 2.0)]
    fields += [ens.gaussian(Grid(2, 256, 32.0), w) for w in (0.5, 1.0, 2.0)]
    fields += [ens.gaussian(Grid.default(1), w) for w in (0.25, 0.5, 1.0)]
    return fields


def test_lp_matches_the_pow_everywhere_reduction_bit_for_bit():
    fields = _tail_fields()
    mags = np.concatenate([np.abs(f.samples).ravel() for f in fields])
    assert np.any(mags == 0.0)
    assert np.any((mags > 0.0) & (mags < np.finfo(float).tiny))
    normal = mags[mags >= np.finfo(float).tiny]
    for p in _LP_EXPONENTS[1:-1]:
        assert np.any(normal**p == 0.0), p  # some powers underflow
    for p in _LP_EXPONENTS:
        for f in fields:
            want = _lp_reference(f.samples, p, f.cell_volume)
            assert lp_norm(f, p) == want, (p, f.grid)


def test_lp_axis_form_matches_the_reference_bit_for_bit():
    # the layout mixed_norms reduces: one norm per leading index
    g = Grid(2, 256, 32.0)
    stack = np.stack([ens.gaussian(g, w).samples for w in (0.5, 1.0, 2.0)])
    for samples in (stack, stack.astype(np.complex128)):
        for p in _LP_EXPONENTS:
            [got] = _lp(samples, [p], g.cell_volume, by_row=True)
            want = _lp_reference(samples, p, g.cell_volume, axis=(1, 2))
            assert got.shape == (3,)
            assert np.array_equal(got, want), p


@pytest.mark.parametrize("p", _LP_EXPONENTS[:-1])
def test_lp_keeps_powers_that_round_to_the_smallest_subnormal(p):
    # x with x**p the smallest subnormal, and its neighbours, lie just above
    # the cut; a cut at 2^(-1022/p) would drop them and read a zero norm
    least = np.nextafter(0.0, 1.0)
    x = 2.0 ** (-1074.0 / p)
    while x**p > least:
        x = np.nextafter(x, 0.0)
    while x**p < least:
        x = np.nextafter(x, 1.0)
    assert x**p == least
    vals = [x]
    for direction in (0.0, 1.0):
        y = x
        for _ in range(4):
            y = np.nextafter(y, direction)
            vals.append(y)
    samples = np.zeros(16)
    samples[:len(vals)] = vals
    f = Field(Grid(1, 16, 16.0), samples)  # unit cells: the sum stays exact
    want = _lp_reference(samples, p, 1.0)
    assert want > 0.0
    assert lp_norm(f, p) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lp_refuses_non_finite_samples_in_a_zero_tail(bad):
    f = ens.gaussian(Grid(2, 256, 32.0), 0.5)
    assert f.samples[0, 0] == 0.0 and f.samples[-1, 3] == 0.0
    for where in ((0, 0), (-1, 3)):
        samples = f.samples.copy()
        samples[where] = bad
        for p in _LP_EXPONENTS:
            with pytest.raises(ValueError, match="non-finite"):
                lp_norm(Field(f.grid, samples), p)


def _lp_samples():
    # a spacetime Gaussian with a zero and subnormal tail, real and complex
    f = ens.gaussian_spacetime(SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0), 0.5)
    packet = ens.wave_packet(f.grid, 0.5, k_x=1.0)
    return f.cell_volume, (f.samples, packet.samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lp_refuses_non_finite_samples_and_leaves_them_untouched(bad):
    cell, arrays = _lp_samples()
    for samples in arrays:
        for where in ((0, 0), (-1, 3), (128, 128)):
            broken = samples.copy()
            broken[where] = bad
            kept = broken.copy()
            for by_row in (False, True):
                for p in _LP_EXPONENTS:
                    with pytest.raises(ValueError, match="non-finite"):
                        _lp(broken, [p], cell, by_row=by_row)
            assert np.array_equal(broken, kept, equal_nan=True)
        for by_row in (False, True):
            kept = samples.copy()
            for p in _LP_EXPONENTS:
                _lp(samples, [p], cell, by_row=by_row)
            assert np.array_equal(samples, kept)


_OUTPUT_GRIDS = {
    "512^2": SpacetimeGrid(Grid(1, 512, 32.0), 512, 32.0),
    "1024^2": SpacetimeGrid(Grid(1, 1024, 64.0), 1024, 64.0),
    "32^3": SpacetimeGrid(Grid(2, 32, 16.0), 32, 16.0),
    "64^3": SpacetimeGrid(Grid(2, 64, 16.0), 64, 16.0),
}


def _output_symbol(grid):
    n = grid.space.n
    return symbol(grid, KernelSpec(0.4 * n, n), RadialQuadrature.for_grid(grid, 32))


def _assert_same_norms(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) and a == b, (a, b)


@pytest.mark.parametrize("grid", list(_OUTPUT_GRIDS.values()), ids=list(_OUTPUT_GRIDS))
def test_lp_over_leaves_is_the_whole_array_reduction_bit_for_bit(grid):
    # operator outputs, real and complex, reduced as arrays and as they are
    # made (last), against the frozen whole-array reduction
    m = _output_symbol(grid)
    cell = grid.cell_volume
    for f in (ens.gaussian_spacetime(grid, 0.5), ens.wave_packet(grid, 0.5, k_x=1.0)):
        out = symbol_applier(f)(m)
        want = [oracles.lp_reference(out, p, cell) for p in _LP_EXPONENTS]
        _assert_same_norms(_lp(out, _LP_EXPONENTS, cell), want)
        streamed = fields.real_symbol_apply(f.samples).last(m)
        _assert_same_norms(_lp(streamed, _LP_EXPONENTS, cell), want)
        for p, norm in zip(_LP_EXPONENTS, want):
            assert lp_norm(SpacetimeField(grid, out), p) == float(norm)


def test_lp_over_leaves_keeps_tails_and_factors_bit_for_bit():
    # exact zeros, subnormals and powers that underflow, over one leaf and
    # over many; the 1-d factors of separable members; rows shorter and
    # longer than a leaf
    arrays = [f.samples for f in _tail_fields()]
    arrays.append(ens.gaussian_spacetime(_OUTPUT_GRIDS["1024^2"], 0.25).samples)
    for grid in (_OUTPUT_GRIDS["1024^2"], _OUTPUT_GRIDS["64^3"]):
        sep = ens.separable_gaussian(grid, 0.25)
        arrays += [sep.space, sep.time]
    assert any(x.size > 16 * analysis._LEAF and np.any(x == 0.0) for x in arrays)
    # sizes whose pairwise halves are not powers of two, with magnitudes
    # over many decades, so that any other order of the sums shows
    rng = np.random.default_rng(3)
    for shape in ((513, 1030), (10**6,)):
        arrays.append(rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 40.0, shape)))
    for x in arrays:
        _assert_same_norms(_lp(x, _LP_EXPONENTS, 0.5),
                           [oracles.lp_reference(x, p, 0.5) for p in _LP_EXPONENTS])
    stacks = [np.stack(arrays[3:6]), np.stack(arrays[6:9])]  # rows of 65536 and 4096
    for x in stacks:
        axis = tuple(range(1, x.ndim))
        for p in _LP_EXPONENTS:
            [got] = _lp(x, [p], 0.5, by_row=True)
            assert np.array_equal(got, oracles.lp_reference(x, p, 0.5, axis=axis)), p


def test_a_streamed_norm_leaves_nothing_for_the_cyclic_collector():
    # the spectrum a member's inverse holds is freed when the norms are
    # taken, without waiting for a garbage collection
    grid = _OUTPUT_GRIDS["512^2"]
    inverse = fields.real_symbol_apply(ens.gaussian_spacetime(grid, 1.0).samples).last(
        _output_symbol(grid))
    alive = weakref.ref(inverse)
    gc.disable()
    try:
        _lp(inverse, [2.0, 3.0], grid.cell_volume)
        del inverse
        assert alive() is None
    finally:
        gc.enable()


def _r_grid(count=96):
    return RadialQuadrature(1e-3, 8.0, count)


def test_mixed_norm_spec_validation():
    with pytest.raises(ValueError):
        MixedNormSpec(10.0, 5.0, 0.4, _r_grid())  # s < q
    with pytest.raises(ValueError):
        MixedNormSpec(0.9, 2.0, 0.4, _r_grid())  # q < 1
    # q = 1 has no lp_norm, so no mixed norm could be computed with it
    with pytest.raises(ValueError, match="q > 1"):
        MixedNormSpec(1.0, 2.0, 0.4, _r_grid())
    with pytest.raises(ValueError):
        MixedNormSpec(2.0, 2.0, -0.1, _r_grid())


def test_mixed_norm_alpha_must_match_kernel():
    g = Grid(1, 256, 32.0)
    f = ens.gaussian(g, 1.0)
    mn = MixedNormSpec(2.0, 2.0, 0.5, _r_grid())
    with pytest.raises(ValueError):
        mixed_norms([f], KernelSpec(0.4, 1), mn)


def test_mixed_norm_plancherel_route_agrees_only_at_q_two():
    # at q = s = 2 the physical route must reproduce the spectral integral;
    # at q = 10 the spectral analogue is a different functional and the
    # implementation must not have silently switched to it
    g = Grid(1, 512, 64.0)
    f = ens.gaussian(g, 1.0)
    spec = KernelSpec(0.4, 1)
    quad = _r_grid(128)

    def spectral_route(q):
        fhat = np.abs(oracles.transform_reference(f.samples, (0,), (g.spacing,)))
        dxi = g.freq_spacing
        r = quad.nodes()
        w = quad.measure_weights(spec.alpha * q - 1.0)
        total = 0.0
        for j in range(quad.count):
            inner = (np.sum(fhat**2 * omega_hat(r[j] * g.freq_axis(), spec) ** 2) * dxi) ** (q / 2.0)
            total += w[j] * inner
        mass = quad.completion_mass(spec.alpha * q - 1.0)
        inner0 = (np.sum(fhat**2 * omega_hat(0.0, spec) ** 2) * dxi) ** (q / 2.0)
        return (total + mass * inner0) ** (1.0 / q)

    mn2 = MixedNormSpec(2.0, 2.0, 0.4, quad)
    physical = mixed_norms([f], spec, mn2)[0]
    assert physical == pytest.approx(spectral_route(2.0), rel=1e-10)

    mn10 = MixedNormSpec(10.0, 10.0, 0.4, quad)
    physical10 = mixed_norms([f], spec, mn10)[0]
    assert abs(physical10 - spectral_route(10.0)) > 0.01 * physical10


def test_mixed_norm_requires_spatial_field():
    sg = SpacetimeGrid(Grid(1, 32, 8.0), 32, 8.0)
    mn = MixedNormSpec(2.0, 2.0, 0.4, _r_grid())
    with pytest.raises(TypeError):
        mixed_norms([ens.gaussian_spacetime(sg, 1.0)], KernelSpec(0.4, 1), mn)


def _mixed_norm_reference(f, spec, mn):
    # frozen node-by-node form: one spatial convolution per radial node, by
    # the continuum reference pair
    quad = mn.r_grid
    r = quad.nodes()
    w = quad.measure_weights(mn.alpha * mn.s - 1.0)
    axes, spacings = range(f.grid.n), (f.grid.spacing,) * f.grid.n
    fhat = oracles.transform_reference(f.samples, axes, spacings)
    xi = f.grid.freq_radius()
    total = 0.0
    for j in range(quad.count):
        conv = oracles.inverse_transform_reference(fhat * omega_hat(r[j] * xi, spec), axes, spacings)
        total += w[j] * lp_norm(Field(f.grid, conv), mn.q) ** mn.s
    mass = quad.completion_mass(mn.alpha * mn.s - 1.0)
    total += mass * (omega_hat(0.0, spec) * lp_norm(f, mn.q)) ** mn.s
    return float(total ** (1.0 / mn.s))


@pytest.mark.parametrize("q", [2.0, 10.0])
def test_mixed_norm_matches_node_by_node_reference(q):
    # 2048 samples: blocks of 32 nodes, the last of the 100 short
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature(1e-3, 8.0, 100)
    mn = MixedNormSpec(q, q, 0.4, quad)
    f = ens.gaussian(Grid(1, 2048, 64.0), 1.0, 0.5)
    assert mixed_norms([f], spec, mn)[0] == pytest.approx(
        _mixed_norm_reference(f, spec, mn), rel=1e-12, abs=0.0
    )


def test_mixed_norm_matches_node_by_node_reference_in_two_dimensions():
    # 64^2 samples: blocks of 16 nodes, the last of the 40 short
    spec = KernelSpec(0.5, 2)
    mn = MixedNormSpec(2.0, 4.0, 0.5, RadialQuadrature(1e-2, 4.0, 40))
    f = ens.gaussian(Grid(2, 64, 16.0), 1.5)
    assert mixed_norms([f], spec, mn)[0] == pytest.approx(
        _mixed_norm_reference(f, spec, mn), rel=1e-12, abs=0.0
    )


def test_mixed_norms_gives_one_mixed_norm_per_field():
    # one profile evaluation serves every field, with the bits of one
    # one-field call per field, in order
    spec = KernelSpec(0.4, 1)
    mn = MixedNormSpec(4.0, 6.0, 0.4, RadialQuadrature(1e-2, 8.0, 70))
    g = Grid(1, 1024, 32.0)
    fields = [ens.gaussian(g, w, c) for w, c in ((0.5, 0.0), (1.0, 0.5), (2.0, -1.0))]
    assert mixed_norms(fields, spec, mn) == [mixed_norms([f], spec, mn)[0] for f in fields]
    with pytest.raises(ValueError, match="one grid"):
        mixed_norms([fields[0], ens.gaussian(Grid(1, 512, 32.0), 1.0)], spec, mn)
    with pytest.raises(TypeError):
        mixed_norms([fields[0], ens.gaussian_spacetime(SpacetimeGrid(g, 16, 8.0))], spec, mn)


def test_mixed_norms_refuses_an_empty_input_before_any_work(monkeypatch):
    monkeypatch.setattr("conewave.analysis.omega_hat",
                        lambda *a: pytest.fail("profile evaluated"))
    mn = MixedNormSpec(4.0, 6.0, 0.4, RadialQuadrature(1e-2, 8.0, 70))
    with pytest.raises(ValueError, match="empty"):
        mixed_norms([], KernelSpec(0.4, 1), mn)


def test_mixed_norms_refined_is_the_doubled_rule_bit_for_bit(monkeypatch):
    # the doubled rule keeps every base node, so the refined value reuses
    # the base norms of its field and evaluates the profile on the
    # midpoints alone, with the bits of a direct one-field call on that rule
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature(1e-2, 8.0, 70)
    mn = MixedNormSpec(4.0, 6.0, 0.4, quad)
    g = Grid(1, 1024, 32.0)
    fields = [ens.gaussian(g, w, c) for w, c in ((0.5, 0.0), (1.0, 0.5), (2.0, -1.0))]
    fine = MixedNormSpec(4.0, 6.0, 0.4, quad.refined(density=2))
    rows = []
    profile = analysis.omega_hat

    def spy(x, *args):
        if np.ndim(x) == 2:
            rows.append(np.shape(x)[0])
        return profile(x, *args)

    monkeypatch.setattr(analysis, "omega_hat", spy)
    for index in (0, 1, 2):
        rows.clear()
        norms, refined = mixed_norms_refined(fields, spec, mn, index)
        assert sum(rows) == quad.count + quad.count - 1
        assert norms == mixed_norms(fields, spec, mn)
        assert refined == mixed_norms([fields[index]], spec, fine)[0]
    with pytest.raises(IndexError):
        mixed_norms_refined(fields, spec, mn, 3)


def test_mixed_norm_guards_of_the_convolution():
    f = ens.gaussian(Grid(1, 256, 32.0), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        mixed_norms([f], KernelSpec(0.4, 2), MixedNormSpec(2.0, 2.0, 0.4, _r_grid()))


# ---------------------------------------------------------------------------
# weighted inequality parameters


def test_sw_constructor_guards():
    with pytest.raises(ValueError):
        SteinWeissParams(1, 1.0, 0.0, 0.0, 2.0, 2.0)  # a = N
    with pytest.raises(ValueError):
        SteinWeissParams(1, 0.5, 0.0, 0.0, 1.0, 2.0)  # p = 1
    with pytest.raises(ValueError):
        SteinWeissParams(0, 0.5, 0.0, 0.0, 2.0, 2.0)


def test_hls_specialization_is_admissible():
    params = SteinWeissParams(1, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0)
    assert params.admissible()
    assert params.constraint_failures() == []


def test_each_single_violation_is_named():
    base = dict(N=1, a=0.5, gamma_w=0.0, delta_w=0.0, p=4.0 / 3.0, q=4.0)
    # the scaling identity couples a to the weights, so isolating one
    # violation means moving a along with the offending weight
    fails = SteinWeissParams(**{**base, "a": 0.75, "gamma_w": 0.25}).constraint_failures()
    assert len(fails) == 1 and fails[0].startswith("gamma_w < N/q")
    fails = SteinWeissParams(**{**base, "a": 0.75, "delta_w": 0.25}).constraint_failures()
    assert len(fails) == 1 and fails[0].startswith("delta_w < N(p-1)/p")
    # negative joint weight, scaling restored through a = 0.2
    fails = SteinWeissParams(
        N=1, a=0.2, gamma_w=-0.3, delta_w=0.2, p=2.0, q=5.0
    ).constraint_failures()
    assert len(fails) == 1 and fails[0].startswith("gamma_w + delta_w >= 0")
    # broken scaling identity alone
    fails = SteinWeissParams(**{**base, "a": 0.4}).constraint_failures()
    assert len(fails) == 1 and fails[0].startswith("a/N = 1/p - 1/q")


def test_derived_parameters():
    p2 = sw_derived_params(0.5, 2)
    assert (p2.N, p2.q, p2.p) == (1, pytest.approx(4.0), pytest.approx(4.0 / 3.0))
    assert p2.gamma_w == pytest.approx(0.125)
    assert p2.delta_w == p2.gamma_w
    assert p2.a == pytest.approx(0.75)
    assert p2.admissible()
    assert sw_derived_params(0.6, 3).admissible()
    # n = 1 collapses onto the boundary: a reaches N and the constructor refuses
    with pytest.raises(ValueError):
        sw_derived_params(0.4, 1)
    # order too large for the q-range
    with pytest.raises(ValueError):
        sw_derived_params(1.2, 2)


def test_published_sign_variant_breaks_scaling():
    p2 = sw_derived_params(0.5, 2)
    variant = SteinWeissParams(
        N=1,
        a=2.0 * (0.25 - p2.gamma_w),
        gamma_w=p2.gamma_w,
        delta_w=p2.delta_w,
        p=p2.p,
        q=p2.q,
    )
    assert any(f.startswith("a/N") for f in variant.constraint_failures())


# ---------------------------------------------------------------------------
# weighted inequality measurements


def _bump(center=0.0, width=1.0, grid=None):
    g = grid or Grid(1, 512, 32.0)
    return ens.gaussian(g, width, center)


def _sw_ratio(params, f, depth=12, nodes_per_panel=8, allow_inadmissible=False):
    # the measured constant of one set on one field, by a measurer of its own
    allowed = (params,) if allow_inadmissible else ()
    return stein_weiss_measure([params], f.grid, depth, nodes_per_panel, allowed)(f)[0]


def _sw_pass(sets, half, depth, points, nodes=8):
    # (geometry, (datas, cols, indptr)) of one row pass for the sets
    geom = analysis._sw_geometry(half, depth, nodes)
    return geom, analysis._sw_rows(geom, half, nodes, points,
                                   [(params.a - params.N, params.delta_w) for params in sets])


def test_stein_weiss_ratio_scale_and_translation_invariance():
    params = SteinWeissParams(1, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0)
    base = _sw_ratio(params, _bump(0.0, 1.0))
    wide = _sw_ratio(params, _bump(0.0, 2.0))
    moved = _sw_ratio(params, _bump(3.0, 1.0))
    assert wide == pytest.approx(base, rel=0.05)
    assert moved == pytest.approx(base, rel=0.05)


def test_inadmissible_sets_raise_with_condition_names():
    bad = SteinWeissParams(1, 0.9 - 1e-9, 0.3, 0.0, 4.0 / 3.0, 4.0)
    with pytest.raises(InadmissibleParamsError, match="gamma_w"):
        _sw_ratio(bad, _bump())


def test_inadmissible_ratio_tracks_truncation_depth():
    # gamma_w above N/q: the measured constant grows with panel depth
    # instead of converging, which is how the failure shows up numerically
    q = 4.0
    gamma = 1.0 / q + 0.05
    a = 0.5 + gamma  # restore the scaling identity with delta_w = 0
    bad = SteinWeissParams(1, a, gamma, 0.0, 4.0 / 3.0, q)
    assert not bad.admissible()
    f = _bump(0.0, 1.0)
    shallow = _sw_ratio(bad, f, depth=8, allow_inadmissible=True)
    deep = _sw_ratio(bad, f, depth=14, allow_inadmissible=True)
    assert deep > shallow * 1.05


def test_stein_weiss_input_guards():
    params = SteinWeissParams(1, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0)
    g = Grid(1, 128, 16.0)
    with pytest.raises(ValueError):
        _sw_ratio(params, Field(g, np.zeros(128)))
    with pytest.raises(ValueError):
        _sw_ratio(params, Field(g, np.full(128, -1.0)))
    with pytest.raises(ValueError):
        _sw_ratio(params, Field(g, np.full(128, 1.0j)))
    two_d = SteinWeissParams(2, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0)
    with pytest.raises(ValueError):
        _sw_ratio(two_d, _bump())


def _dyadic_panel_rule(a, b, singular, depth, nodes):
    # frozen one-rule form of the composite Gauss-Legendre rule: panels
    # halving dyadically toward each singular point
    breaks = {a, b}
    span = b - a
    for s in singular:
        breaks.add(min(max(s, a), b))
        for k in range(1, depth + 1):
            h = span * 0.5**k
            for cand in (s - h, s + h):
                if a < cand < b:
                    breaks.add(cand)
    cuts = np.array(sorted(breaks))
    keep = np.concatenate([[True], np.diff(cuts) > 1e-15 * max(abs(span), 1.0)])
    cuts = cuts[keep]
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    lo = cuts[:-1]
    widths = np.diff(cuts)
    pts = (lo[:, None] + widths[:, None] * (gx[None, :] + 1.0) * 0.5).ravel()
    wts = (widths[:, None] * gw[None, :] * 0.5).ravel()
    return pts, wts


def _stein_weiss_reference(params, f, depth=12, nodes_per_panel=8):
    # frozen per-x form: one inner panel rule and one sum per outer node
    grid_x = f.grid.axis()
    fr = f.samples.real
    half = f.grid.extent / 2.0

    def fval(u):
        return np.interp(u, grid_x, fr, left=0.0, right=0.0)

    xs, xw = _dyadic_panel_rule(-half, half, (0.0,), depth, nodes_per_panel)
    pot = np.empty_like(xs)
    for i, x in enumerate(xs):
        us, uw = _dyadic_panel_rule(-half, half, (0.0, float(x)), depth,
                                    nodes_per_panel)
        integrand = fval(us) * np.abs(us) ** (-params.delta_w) \
            * np.abs(x - us) ** (params.a - params.N)
        pot[i] = float(np.sum(uw * integrand))
    weighted = np.abs(xs) ** (-params.gamma_w) * pot
    out_norm = float(np.sum(xw * weighted**params.q) ** (1.0 / params.q))
    in_norm = float(np.sum(xw * fval(xs) ** params.p) ** (1.0 / params.p))
    return out_norm / in_norm


@pytest.mark.parametrize("depth", [8, 14])
@pytest.mark.parametrize(
    "params",
    [sw_derived_params(0.4, 2), SteinWeissParams(1, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0),
     SteinWeissParams(1, 0.95, 0.35, 0.2, 10.0 / 7.0, 10.0 / 3.0)],
    ids=["derived", "hls", "inadmissible"],
)
def test_stein_weiss_ratio_matches_per_x_reference(params, depth):
    f = _bump(1.0, 1.5)
    got = _sw_ratio(params, f, depth=depth,
                            allow_inadmissible=not params.admissible())
    assert got == pytest.approx(_stein_weiss_reference(params, f, depth), rel=1e-12, abs=0.0)


def test_stein_weiss_ratio_geometry_follows_the_box_and_depth():
    # the rules follow the box and the depth of each measurer
    params = sw_derived_params(0.4, 2)
    for grid, depth in ((Grid(1, 512, 32.0), 8), (Grid(1, 256, 16.0), 8),
                        (Grid(1, 256, 16.0), 10), (Grid(1, 512, 32.0), 8)):
        f = _bump(0.5, 1.0, grid)
        assert _sw_ratio(params, f, depth=depth) == pytest.approx(
            _stein_weiss_reference(params, f, depth), rel=1e-12, abs=0.0
        )


def _frozen_dyadic_panels(a, b, singular, depth):
    # frozen copy of the vectorized panel builder the tables were cut from
    span = b - a
    h = span * 0.5 ** np.arange(1, depth + 1)
    near = singular[:, :, None] + np.concatenate([[0.0], -h, h])
    near[:, :, 1:][(near[:, :, 1:] <= a) | (near[:, :, 1:] >= b)] = np.nan
    ends = np.broadcast_to([a, b], (singular.shape[0], 2))
    cuts = np.sort(np.concatenate([ends, near.reshape(len(singular), -1)], axis=1), axis=1)
    keep = np.ones(cuts.shape, dtype=bool)
    keep[:, 1:] = np.diff(cuts, axis=1) > 1e-15 * max(abs(span), 1.0)
    row = np.nonzero(keep)[0]
    cuts = cuts[keep]
    inner = row[1:] == row[:-1]
    lo = cuts[:-1][inner]
    return lo, cuts[1:][inner] - lo, row[:-1][inner]


def _frozen_stein_weiss(params, f, depth=12, nodes_per_panel=8):
    # frozen copy of the vectorized stein_weiss_ratio body that computed
    # every power per call: np.unique geometry, scatter through the sorted
    # nodes, blocks of 2^16 elements.  The product-integration rows that
    # replace it fold the interpolation into the sums, which reassociates
    # them: the two agree to rounding, within _SW_REL
    fr = f.samples.real
    grid_x = f.grid.axis()
    half = f.grid.extent / 2.0
    nodes = nodes_per_panel
    gx, gw = np.polynomial.legendre.leggauss(nodes)

    def points(lo, width):
        return lo[:, None] + width[:, None] * (gx[None, :] + 1.0) * 0.5

    def fval(u):
        return np.interp(u, grid_x, fr, left=0.0, right=0.0)

    lo, width, _ = _frozen_dyadic_panels(-half, half, np.zeros((1, 1)), depth)
    xs = points(lo, width).ravel()
    xw = (width[:, None] * gw[None, :] * 0.5).ravel()
    lo, width, owner = _frozen_dyadic_panels(
        -half, half, np.column_stack([np.zeros_like(xs), xs]), depth)
    panels, distinct = np.unique(np.column_stack([lo, width]), axis=0, return_inverse=True)
    distinct = distinct.ravel()
    us = points(panels[:, 0], panels[:, 1]).ravel()
    order = np.argsort(us).astype(np.int32)
    us = us[order]
    dist = points(lo, width)
    dist -= xs[owner, None]
    np.abs(dist, out=dist)
    starts = np.searchsorted(owner, np.arange(xs.size)) * nodes

    vals = fval(us)
    vals *= np.abs(us) ** (-params.delta_w)
    head = np.empty_like(vals)
    head[order] = vals
    head = head.reshape(-1, nodes)
    terms = np.empty_like(dist)
    step = max(1, 2**16 // nodes)
    for i in range(0, len(dist), step):
        blk = slice(i, i + step)
        np.power(dist[blk], params.a - params.N, out=terms[blk])
        terms[blk] *= head[distinct[blk]]
        terms[blk] *= width[blk, None] * gw[None, :] * 0.5
    pot = np.add.reduceat(terms.ravel(), starts)
    weighted = np.abs(xs) ** (-params.gamma_w) * pot
    out_norm = float(np.sum(xw * weighted**params.q) ** (1.0 / params.q))
    in_norm = float(np.sum(xw * fval(xs) ** params.p) ** (1.0 / params.p))
    return out_norm / in_norm


# the rows and the frozen route differ by rounding alone: 3.3e-16 at most,
# relative, over 203 bumps, the three exponent sets and depths 8, 12 and 18
_SW_REL = 1e-13

_SW_PARAM_SETS = {
    "derived": sw_derived_params(0.4, 2),
    "hls": SteinWeissParams(1, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0),
    "inadmissible": SteinWeissParams(1, 0.95, 0.35, 0.2, 10.0 / 7.0, 10.0 / 3.0),
}


@pytest.mark.parametrize("depth", [8, 12, 18])
@pytest.mark.parametrize("name", sorted(_SW_PARAM_SETS))
def test_stein_weiss_ratio_is_the_per_call_route_bit_for_bit(name, depth):
    # the name is kept from when the routes agreed bit for bit; the rows
    # reassociate the sums, so they now agree to _SW_REL
    params = _SW_PARAM_SETS[name]
    for f in (_bump(1.0, 1.5), _bump(-2.0, 0.6, Grid.default(1))):
        got = _sw_ratio(params, f, depth=depth, allow_inadmissible=True)
        assert got == pytest.approx(_frozen_stein_weiss(params, f, depth), rel=_SW_REL, abs=0.0)


def test_stein_weiss_tables_follow_exponents_depths_and_boxes_bit_for_bit():
    # the rows follow the exponents, the depth and the box of each
    # measurer (agreeing with the frozen route to _SW_REL, no longer bit
    # for bit)
    big, small = Grid(1, 512, 32.0), Grid(1, 256, 16.0)
    sequence = [("hls", big, 12), ("hls", big, 12), ("derived", big, 12),
                ("inadmissible", big, 12), ("derived", big, 12), ("derived", big, 10),
                ("derived", small, 10), ("inadmissible", small, 10), ("hls", small, 10),
                ("hls", big, 10), ("hls", big, 12), ("inadmissible", small, 12),
                ("inadmissible", small, 12)]
    for k, (name, grid, depth) in enumerate(sequence):
        params = _SW_PARAM_SETS[name]
        f = _bump(0.25 * k - 1.0, 0.8 + 0.1 * k, grid)
        got = _sw_ratio(params, f, depth=depth, allow_inadmissible=True)
        assert got == pytest.approx(_frozen_stein_weiss(params, f, depth),
                                    rel=_SW_REL, abs=0.0), (k, name, grid, depth)
    # and the panel order
    f = _bump(0.5, 1.0, big)
    for nodes in (8, 5, 8):
        got = _sw_ratio(_SW_PARAM_SETS["hls"], f, depth=9, nodes_per_panel=nodes)
        assert got == pytest.approx(_frozen_stein_weiss(_SW_PARAM_SETS["hls"], f, 9, nodes),
                                    rel=_SW_REL, abs=0.0)


def test_stein_weiss_rows_follow_the_grid_spacing():
    # two grids on one box share the panels but not the rows: the samples
    # the interpolation splits onto sit at another spacing
    params = _SW_PARAM_SETS["derived"]
    for k, points in enumerate((512, 1024, 512, 1024, 1024, 512)):
        f = _bump(0.3 * k - 0.8, 1.0, Grid(1, points, 32.0))
        got = _sw_ratio(params, f, depth=10)
        assert got == pytest.approx(_frozen_stein_weiss(params, f, 10), rel=_SW_REL, abs=0.0)
        geom, ([data], cols, indptr) = _sw_pass([params], 16.0, 10, points)
        # np.add.reduceat gives an empty segment the next row's first entry
        assert indptr.size == geom[0].size
        assert indptr[0] == 0 and np.all(np.diff(indptr) > 0) and indptr[-1] < data.size
        assert cols.dtype == np.intp and cols.min() >= 0 and cols.max() < points


@pytest.mark.parametrize("grid", [Grid.default(1), Grid(1, 512, 32.0)], ids=["default", "512"])
@pytest.mark.parametrize("depth", [8, 18])
def test_stein_weiss_rows_of_several_sets_are_the_one_set_rows(grid, depth):
    # one pass builds every set's rows: each equals the rows of that set
    # built alone, bit for bit, beside one cols and one indptr
    names = ("hls", "inadmissible", "derived")
    sets = [_SW_PARAM_SETS[name] for name in names]
    half = grid.extent / 2.0
    _, (datas, cols, indptr) = _sw_pass(sets, half, depth, grid.points)
    for name, params, data in zip(names, sets, datas):
        _, alone = _sw_pass([params], half, depth, grid.points)
        for got, want in zip((data, cols, indptr), (alone[0][0], *alone[1:])):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_stein_weiss_measurer_of_several_sets_is_the_one_set_measurers_bit_for_bit(monkeypatch):
    # several sets measured together give each set's own ratio, in either
    # order, and one measurer builds its rows once for several fields
    names = ("hls", "inadmissible", "derived")
    sets = [_SW_PARAM_SETS[name] for name in names]
    fields = [_bump(0.5, 1.2), _bump(-1.0, 0.9), _bump(2.0, 1.6)]
    alone = [[_sw_ratio(params, f, depth=10, allow_inadmissible=True) for params in sets]
             for f in fields]
    passes = []
    rows = analysis._sw_rows
    monkeypatch.setattr(analysis, "_sw_rows", lambda *a: passes.append(a) or rows(*a))
    for order in (sets, sets[::-1]):
        passes.clear()
        measure = stein_weiss_measure(order, Grid(1, 512, 32.0), 10, allow_inadmissible=sets)
        for f, want in zip(fields, alone):
            assert measure(f) == (want if order is sets else want[::-1])
        assert len(passes) == 1


def test_stein_weiss_measure_guards_every_set_it_is_not_told_to_allow(monkeypatch):
    # allowing one inadmissible set does not allow another measured with
    # it; every refusal comes before any rule is built
    inad = _SW_PARAM_SETS["inadmissible"]
    broken = SteinWeissParams(1, 0.9 - 1e-9, 0.3, 0.0, 4.0 / 3.0, 4.0)
    grid = _bump().grid
    monkeypatch.setattr(analysis, "_sw_geometry", lambda *a: pytest.fail("geometry built"))
    monkeypatch.setattr(analysis, "_sw_rows", lambda *a: pytest.fail("rows built"))
    for sets in ([inad, broken], [broken, inad]):
        with pytest.raises(InadmissibleParamsError, match="gamma_w < N/q"):
            stein_weiss_measure(sets, grid, depth=8, allow_inadmissible=(inad,))
    with pytest.raises(InadmissibleParamsError):
        stein_weiss_measure([inad, _SW_PARAM_SETS["hls"]], grid, depth=8)
    with pytest.raises(ValueError, match="at least one"):
        stein_weiss_measure([], grid, depth=8)
    with pytest.raises(ValueError, match="N = 1"):
        stein_weiss_measure([SteinWeissParams(2, 0.5, 0.0, 0.0, 4.0 / 3.0, 4.0)], grid)
    with pytest.raises(ValueError, match="^depth must be an integer >= 1"):
        stein_weiss_measure([inad], grid, depth=0, allow_inadmissible=(inad,))
    for not_a_line in (Grid(2, 64, 16.0), _bump()):
        with pytest.raises(TypeError, match="one-dimensional spatial grid"):
            stein_weiss_measure([_SW_PARAM_SETS["hls"]], not_a_line)


def test_stein_weiss_measure_refuses_a_field_off_its_grid_before_any_sum(monkeypatch):
    # a call reads the field (np.interp) before it sums anything, so a
    # refusal that comes before any read comes before any sum
    measure = stein_weiss_measure([_SW_PARAM_SETS["hls"]], Grid(1, 512, 32.0), depth=8)
    reads = []
    interp = np.interp

    def spy(*args, **kwargs):
        reads.append(args)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    for other in (Grid(1, 256, 32.0), Grid(1, 512, 16.0)):
        with pytest.raises(ValueError, match="measurer's"):
            measure(_bump(0.5, 1.0, other))
    with pytest.raises(TypeError, match="one-dimensional spatial field"):
        measure(ens.gaussian(Grid(2, 64, 16.0), 1.0))
    with pytest.raises(TypeError, match="one-dimensional spatial field"):
        measure(_bump().samples)
    assert reads == []


def test_stein_weiss_measurer_frees_its_rows_when_it_goes(monkeypatch):
    # the rows live in the measurer alone: nothing else keeps them alive
    alive = []
    rows = analysis._sw_rows

    def spy(*args):
        datas, cols, indptr = out = rows(*args)
        alive.extend(weakref.ref(arr) for arr in (*datas, cols, indptr))
        return out

    monkeypatch.setattr(analysis, "_sw_rows", spy)
    measure = stein_weiss_measure([_SW_PARAM_SETS["hls"], _SW_PARAM_SETS["derived"]],
                                  Grid(1, 512, 32.0), depth=9)
    assert len(measure(_bump(0.5, 1.0))) == 2
    assert len(alive) == 4 and all(ref() is not None for ref in alive)
    del measure
    gc.collect()
    assert [ref() for ref in alive] == [None] * 4


def test_stein_weiss_interpolates_the_field_on_the_outer_nodes_only(monkeypatch):
    # the inner nodes are folded into the rows; a call reads the field at
    # the outer nodes once, for the input norm
    params = _SW_PARAM_SETS["hls"]
    f = _bump(0.5, 1.0)
    measure = stein_weiss_measure([params], f.grid, depth=11)
    sizes = []
    interp = np.interp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    measure(f)
    assert sizes == [analysis._sw_geometry(16.0, 11, 8)[0].size]


@pytest.mark.parametrize("name, ratio_rel", [("hls", 1.1e-2), ("derived", 7e-4)])
def test_stein_weiss_potentials_match_the_quadpack_oracle(name, ratio_rel):
    # The oracle integrates the Gaussian itself by QUADPACK's algebraic
    # weights: no interpolation, no panels, no rows.  At outer nodes on the
    # bump's flanks and tails, where a one-sample shift of the rows moves
    # the potential by 0.7-5% on this grid, the largest gap of the
    # interpolate-per-call route was 2.8e-4 (hls) and 1.4e-4 (derived);
    # the bound is twice that, rounded up.  Near the peak the truncated
    # singularity at u = x dominates (gaps of 3-6e-3), so those nodes are
    # left to the ratio below.
    params = _SW_PARAM_SETS[name]
    grid, width, center, depth = Grid(1, 512, 32.0), 1.0, 0.5, 12
    f = _bump(center, width, grid)
    got = _sw_ratio(params, f, depth=depth)
    geom, ([data], cols, indptr) = _sw_pass([params], 16.0, depth, grid.points)
    xs = geom[0]
    pot = np.add.reduceat(data * f.samples[cols], indptr)
    for target in (-3.0, -0.6, 1.6, 5.0):
        i = int(np.argmin(np.abs(xs - target)))
        ref = oracles.stein_weiss_potential_reference(params, float(xs[i]), 16.0, width, center)
        assert pot[i] == pytest.approx(ref, rel=6e-4, abs=0.0), (target, xs[i])
    # the whole measured constant, on the same outer rule: the
    # interpolate-per-call route was 5.5e-3 (hls) and 3.1e-4 (derived) off,
    # mostly from the truncated singularity at u = x; the bound is twice
    # that, rounded up
    ref = oracles.stein_weiss_ratio_reference(params, 16.0, depth, width, center)
    assert got == pytest.approx(ref, rel=ratio_rel, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stein_weiss_refuses_non_finite_samples(bad):
    params = _SW_PARAM_SETS["hls"]
    f = _bump(0.0, 1.0)
    samples = f.samples.copy()
    samples[200] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _sw_ratio(params, Field(f.grid, samples))
    samples = f.samples.astype(np.complex128)
    samples[200] += 1j * bad
    with pytest.raises(ValueError, match="non-finite"):
        _sw_ratio(params, Field(f.grid, samples))


def test_stein_weiss_refuses_a_complex_bump_and_takes_its_real_twin():
    params = _SW_PARAM_SETS["hls"]
    f = _bump(0.0, 1.0)
    assert f.samples.dtype == np.float64
    twin = Field(f.grid, f.samples.astype(np.complex128))
    assert _sw_ratio(params, twin) == _sw_ratio(params, f)
    samples = f.samples.astype(np.complex128)
    samples[200] += 1e-3j
    with pytest.raises(ValueError, match=r"^input must be real and nonnegative$"):
        _sw_ratio(params, Field(f.grid, samples))


@pytest.mark.parametrize("name, value", [
    ("depth", 0), ("depth", -3), ("depth", 2.7), ("depth", 12.0), ("depth", True),
    ("depth", "12"), ("nodes_per_panel", 0), ("nodes_per_panel", -1),
    ("nodes_per_panel", 7.5), ("nodes_per_panel", None),
])
def test_stein_weiss_refuses_bad_rule_sizes(name, value):
    params = _SW_PARAM_SETS["hls"]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        _sw_ratio(params, _bump(), **{name: value})


def test_stein_weiss_accepts_numpy_integer_rule_sizes():
    params = _SW_PARAM_SETS["hls"]
    f = _bump(0.5, 1.0)
    assert _sw_ratio(params, f, depth=np.int64(9), nodes_per_panel=np.int32(6)) \
        == _sw_ratio(params, f, depth=9, nodes_per_panel=6)


@pytest.mark.parametrize("nodes", [1, 2, 5, 8, 16, 24])
def test_stein_weiss_panel_rule_is_gauss_legendre(nodes):
    # the panels' rule is the Gauss-Jacobi rule at a = 0: exact on every
    # monomial up to degree 2K - 1 (the odd ones integrate to 0) and
    # numpy's Gauss-Legendre rule to rounding
    s, w = analysis._gl_rule(nodes)
    assert s.shape == w.shape == (nodes,)
    for m in range(2 * nodes):
        got = float(w @ s**m)
        if m % 2:
            assert abs(got) <= 3e-13, m
        else:
            assert got == pytest.approx(2.0 / (m + 1), rel=3e-13), m
    x, v = np.polynomial.legendre.leggauss(nodes)
    assert np.max(np.abs(s - x)) <= 2e-15
    assert np.max(np.abs(w - v)) <= 2e-15


# ---------------------------------------------------------------------------
# composition estimate


def test_crucial_ratio_joint_dilation_invariance():
    g = Grid(1, 1024, 64.0)
    spec = KernelSpec(0.4, 1)
    base = crucial_estimate_ratio(spec, 10.0, 2.0, 1.0, ens.gaussian(g, 1.0))
    scaled = crucial_estimate_ratio(spec, 10.0, 4.0, 2.0, ens.gaussian(g, 2.0))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_crucial_ratio_radius_exchange_symmetry():
    g = Grid(1, 512, 64.0)
    spec = KernelSpec(0.4, 1)
    f = ens.gaussian(g, 1.0)
    assert crucial_estimate_ratio(spec, 10.0, 2.0, 1.0, f) == pytest.approx(
        crucial_estimate_ratio(spec, 10.0, 1.0, 2.0, f), rel=1e-12
    )


def test_crucial_ratio_guards():
    g1 = Grid(1, 64, 16.0)
    g2 = Grid(2, 32, 16.0)
    f1, f2 = ens.gaussian(g1, 1.0), ens.gaussian(g2, 1.0)
    with pytest.raises(ValueError):
        crucial_estimate_ratio(KernelSpec(0.5, 2), 2.0, 1.0, 1.0, f2)  # r = s, n = 2
    crucial_estimate_ratio(KernelSpec(0.5, 1), 2.0, 1.0, 1.0, f1)  # n = 1 allows r = s
    with pytest.raises(ValueError):
        crucial_estimate_ratio(KernelSpec(0.5, 1), 1.0, 2.0, 1.0, f1)  # q = 1
    with pytest.raises(ValueError):
        crucial_estimate_ratio(KernelSpec(0.5, 1), 2.0, -1.0, 1.0, f1)
    with pytest.raises(ValueError):
        crucial_estimate_ratio(KernelSpec(0.5, 2), 2.0, 2.0, 1.0, f1)  # dim mismatch


# ---------------------------------------------------------------------------
# case-by-case symbol bound


def test_case_bound_report_structure():
    spec = KernelSpec(0.5, 2)
    r, s = 2.0, 1.0
    xi = [0.01, 0.05, 0.1, 0.5, 1.0, 10.0, 100.0]
    report = case_bound_check(spec, [(x, r, s) for x in xi])
    assert isinstance(report, CaseBoundReport)
    assert report.split_lo == pytest.approx(1.0 / (4.0 * np.pi))
    assert report.split_hi == pytest.approx(1.0 / (2.0 * np.pi))
    assert sum(fit.count for fit in report.cases.values()) == len(xi)
    assert all(fit.count > 0 for fit in report.cases.values())
    assert report.fitted_c == max(fit.fitted_c for fit in report.cases.values())
    assert np.isfinite(report.fitted_c) and report.fitted_c > 0.0


def test_case_bound_guards():
    spec = KernelSpec(0.5, 2)
    with pytest.raises(ValueError):
        case_bound_check(spec, [(1.0, 1.0, 2.0)])  # r < s
    with pytest.raises(ValueError):
        case_bound_check(spec, [(0.0, 2.0, 1.0)])
    with pytest.raises(ValueError):
        case_bound_check(spec, [(1.0, 1.0, 1.0)])  # r = s at n = 2
    with pytest.raises(ValueError):
        case_bound_check(spec, [])
    # n = 1: the middle exponent vanishes and r = s is fine
    report = case_bound_check(KernelSpec(0.4, 1), [(1.0, 1.0, 1.0)])
    assert np.isfinite(report.fitted_c)


_GOOD_BATCH = [(x, 2.0, 1.0) for x in np.linspace(0.01, 10.0, 1000)]


@pytest.mark.parametrize(
    "bad, message",
    [((1.0, 1.0, 2.0), "need xi > 0 and r >= s > 0, got (1.0, 1.0, 2.0)"),
     ((0.0, 2.0, 1.0), "need xi > 0 and r >= s > 0, got (0.0, 2.0, 1.0)"),
     ((1.0, 1.0, 1.0), "envelope degenerates at r = s for n > 1")],
    ids=["r-below-s", "zero-xi", "equal-radii-n2"],
)
def test_case_bound_guards_find_one_bad_sample_in_a_batch(bad, message):
    batch = _GOOD_BATCH[:500] + [bad] + _GOOD_BATCH[500:]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        case_bound_check(KernelSpec(0.5, 2), batch)


def test_case_bound_guards_name_the_first_offender():
    spec = KernelSpec(0.5, 2)
    equal, swapped = (3.0, 1.0, 1.0), (4.0, 1.0, 2.0)
    batch = _GOOD_BATCH[:300] + [equal] + _GOOD_BATCH[300:600] + [swapped] + _GOOD_BATCH[600:]
    with pytest.raises(ValueError, match="^envelope degenerates"):
        case_bound_check(spec, batch)
    batch = _GOOD_BATCH[:300] + [swapped] + _GOOD_BATCH[300:600] + [equal] + _GOOD_BATCH[600:]
    with pytest.raises(ValueError, match=re.escape("got (4.0, 1.0, 2.0)")):
        case_bound_check(spec, batch)
    with pytest.raises(ValueError, match="no samples"):
        case_bound_check(spec, [])
    # n = 1 lets the equal-radii sample through
    report = case_bound_check(KernelSpec(0.4, 1), _GOOD_BATCH[:500] + [equal])
    assert sum(fit.count for fit in report.cases.values()) == 501


def _case_bound_reference(spec, samples):
    # frozen per-sample form: two scalar remainder calls per sample
    n = spec.n
    nu = spec.bessel_order
    b_alpha = spec.time_scale_power * spec.alpha
    rows = []
    for xi, r, s in samples:
        xi, r, s = float(xi), float(r), float(s)
        e_r = abs(float(bessel_remainder(nu, 2.0 * np.pi * r * xi)))
        e_s = abs(float(bessel_remainder(nu, 2.0 * np.pi * s * xi)))
        lhs = xi ** (-b_alpha) * np.sqrt(r * xi) * np.sqrt(s * xi) * e_r * e_s
        mid = 1.0 if n == 1 else (r - s) ** (-(n - 1) / n * spec.alpha)
        env = mid * xi ** (-2.0 * spec.alpha)
        rows.append((xi, r, s, lhs / env))

    def regime(xi, r, s):
        if xi <= 1.0 / (2.0 * np.pi * r):
            return 1
        if xi <= 1.0 / (2.0 * np.pi * s):
            return 2
        return 3

    cases = {}
    for idx in (1, 2, 3):
        sub = [(xi, ratio) for xi, r, s, ratio in rows if regime(xi, r, s) == idx]
        if sub:
            arg, best = max(sub, key=lambda t: t[1])
            cases[idx] = CaseFit(len(sub), float(best), float(arg))
        else:
            cases[idx] = CaseFit(0, 0.0, float("nan"))
    overall = max(fit.fitted_c for fit in cases.values())
    top = max((fit for fit in cases.values() if fit.count), key=lambda f: f.fitted_c)
    xi_max = max(xi for xi, _, _, _ in rows)
    at_edge = bool(np.isclose(top.argmax_xi, xi_max, rtol=1e-9))
    r0, s0 = rows[0][1], rows[0][2]
    return CaseBoundReport(float(overall), at_edge, cases,
                           1.0 / (2.0 * np.pi * r0), 1.0 / (2.0 * np.pi * s0))


def _assert_same_report(got, want):
    assert got.fitted_c == pytest.approx(want.fitted_c, rel=1e-12, abs=0.0)
    assert got.max_at_edge == want.max_at_edge
    assert (got.split_lo, got.split_hi) == (want.split_lo, want.split_hi)
    assert sorted(got.cases) == sorted(want.cases) == [1, 2, 3]
    for idx, fit in want.cases.items():
        assert got.cases[idx].count == fit.count
        if fit.count:
            assert got.cases[idx].fitted_c == pytest.approx(fit.fitted_c, rel=1e-12, abs=0.0)
            assert got.cases[idx].argmax_xi == fit.argmax_xi
        else:
            assert (got.cases[idx].fitted_c, np.isnan(got.cases[idx].argmax_xi)) == (0.0, True)


@pytest.mark.parametrize(
    "spec, pairs",
    [(KernelSpec(0.4, 1), [(2.0, 1.0)]),
     (KernelSpec(0.4, 1), [(1.0, 1.0), (3.0, 0.5)]),
     (KernelSpec(0.5, 2), [(4.0, 1.0)]),
     (KernelSpec(0.5, 2), [(2.0, 1.0), (3.0, 0.5), (4.0, 2.0)]),
     (KernelSpec(4.0 / 3.0, 2), [(2.0, 1.0)])],
    ids=["n1", "n1-mixed-radii", "n2", "n2-mixed-radii", "n2-zero-remainder"],
)
def test_case_bound_check_matches_per_sample_reference(spec, pairs):
    # mixed radii put each sample in the regimes of its own (r, s), not of
    # the first sample's splits; at the half-integer order 1/2 every ratio
    # is 0 and each regime's argmax is its first sample
    xi = np.exp(np.linspace(np.log(1e-4), np.log(1e3), 600 // len(pairs)))
    samples = [(x, r, s) for r, s in pairs for x in xi]
    _assert_same_report(case_bound_check(spec, samples),
                        _case_bound_reference(spec, samples))


def test_case_bound_check_accepts_an_array_of_triples():
    spec = KernelSpec(0.5, 2)
    xi = np.exp(np.linspace(np.log(1e-3), np.log(1e2), 200))
    arr = np.column_stack([xi, np.full_like(xi, 2.0), np.ones_like(xi)])
    _assert_same_report(case_bound_check(spec, arr),
                        case_bound_check(spec, [tuple(row) for row in arr]))


# ---------------------------------------------------------------------------
# ratio ensembles and verdicts


_LADDER_GRID = SpacetimeGrid(Grid(1, 64, 16.0), 64, 16.0)


def _ladder_symbol():
    return symbol(_LADDER_GRID, KernelSpec(0.4, 1), RadialQuadrature.for_grid(_LADDER_GRID, 32))


def _ladder_members():
    # real members, a complex one, and a separable one held as its factors
    g = _LADDER_GRID
    members = [ens.gaussian_spacetime(g, 0.5), ens.gaussian_spacetime(g, 1.0),
               ens.wave_packet(g, 1.0, k_x=0.5, k_t=0.25),
               ens.cone_plate(g, 1.0, t_span=3.0),
               ens.separable_gaussian(g, 2.0)]
    return members, ["a", "b", "c", "d", "e"]


def _applied(f, m):
    # the operator with symbol m on one member, wrapped as a field
    return SpacetimeField(f.grid, symbol_applier(f)(m))


def _assert_generic_ratios(got, members, m, inv_p, inv_q):
    # got against lp_norm(_applied(f, m), q) / lp_norm(f, p) member by
    # member: bit for bit for a member of the generic route, and within
    # the separable-member bound for one that is even on every axis, whose
    # ladder measures the output's nonnegative orthant alone
    assert len(got) == len(members)
    for ratio, f in zip(got, members):
        want = lp_norm(_applied(f, m), 1.0 / inv_q) / lp_norm(f, 1.0 / inv_p)
        if fields._is_even(f):
            assert ratio == pytest.approx(want, rel=4e-15, abs=0.0)
        else:
            assert ratio == want


def test_ratio_ladder_is_the_generic_ratio_bit_for_bit():
    # every member but the even separable one (the last) bit for bit
    m = _ladder_symbol()
    members, labels = _ladder_members()
    assert [fields._is_even(f) for f in members] == [False] * 4 + [True]
    probes = [(0.7, 0.3), (0.7, 0.35), (0.6, 0.2)]
    copies = [f.samples.copy() for f in members[:4]]  # the last is held as its factors
    for pool_map in (None, lambda fn, items: [fn(it) for it in reversed(items)][::-1]):
        stats = ratio_ladder(m, probes, members, labels, pool_map=pool_map)
        assert len(stats) == len(probes)
        for (inv_p, inv_q), st in zip(probes, stats):
            _assert_generic_ratios(st.ratios, members, m, inv_p, inv_q)
            assert st.labels == tuple(labels)
            assert st.maximum == max(st.ratios)
            assert st.median == float(np.median(st.ratios))
            assert st.mean == float(np.mean(st.ratios))
    # the members the caller holds are left as they were
    held = [f.samples for f in members[:4]]
    assert held[2].dtype == np.complex128
    assert all(np.array_equal(a, b) for a, b in zip(held, copies))


@pytest.mark.parametrize("grid", [_OUTPUT_GRIDS["512^2"], _OUTPUT_GRIDS["64^3"]],
                         ids=["512^2", "64^3"])
def test_ratio_ladder_takes_its_q_norms_as_the_output_is_made(grid):
    # members of many leaves, real, separable and complex; every probe's
    # q-norm, a repeated q among them, is the materialized output's
    m = _output_symbol(grid)
    members = [ens.gaussian_spacetime(grid, 1.0), ens.separable_gaussian(grid, 0.5),
               ens.wave_packet(grid, 1.0, k_x=0.5, k_t=0.25)]
    probes = [(0.7, 0.3), (0.6, 0.3), (0.9, 0.5), (0.55, 0.15)]
    stats = ratio_ladder(m, probes, members)
    for (inv_p, inv_q), st in zip(probes, stats):
        _assert_generic_ratios(st.ratios, members, m, inv_p, inv_q)


def test_ratio_ladder_guards():
    m = _ladder_symbol()
    f = ens.gaussian_spacetime(_LADDER_GRID, 1.0)

    def never():
        raise AssertionError("a member was measured before the guards")

    # the probe, family, label and symbol guards fire before any member is
    # measured, whatever kinds of member follow: never is no field, and
    # measuring it would raise another error
    members = [f, never, ens.wave_packet(_LADDER_GRID, 1.0)]
    with pytest.raises(ValueError, match="empty"):
        ratio_ladder(m, [(0.7, 0.3)], [])
    with pytest.raises(ValueError, match="labels"):
        ratio_ladder(m, [(0.7, 0.3)], members, labels=["a", "b"])
    for probe in ((1.2, 0.3), (0.7, 0.0), (0.7, 1.0), (float("nan"), 0.3)):
        with pytest.raises(ValueError, match="must lie in"):
            ratio_ladder(m, [(0.7, 0.3), probe], members)
    with pytest.raises(ValueError, match="probes"):
        ratio_ladder(m, [], members)
    with pytest.raises(TypeError, match="RadialSymbol"):
        ratio_ladder(m.array(), [(0.7, 0.3)], members)
    # a member of another grid is refused
    small = SpacetimeGrid(Grid(1, 32, 8.0), 32, 8.0)
    with pytest.raises(ValueError, match="grid"):
        ratio_ladder(m, [(0.7, 0.3)], [ens.gaussian_spacetime(small, 1.0)])


def _spy_on_the_transforms(monkeypatch, seen):
    # every forward transform of a ratio ladder member runs through
    # fields._spectrum (the generic route) or fields._orthant_spectrum (an
    # even separable member's); records (route, seen(member)) in order
    transformed = []
    for route, name in (("spectrum", "_spectrum"), ("orthant", "_orthant_spectrum")):
        def spy(samples, route=route, transform=getattr(fields, name)):
            transformed.append((route, seen(samples)))
            return transform(samples)
        monkeypatch.setattr(fields, name, spy)
    return transformed


@pytest.mark.parametrize("kind", ["field", "complex", "separable"])
def test_ratio_ladder_refuses_a_zero_norm_member_before_any_transform(monkeypatch, kind):
    m = _ladder_symbol()
    g = _LADDER_GRID
    if kind == "separable":
        # one zero factor makes the product zero; the first member is
        # separable too, so the spy sees a factored transform
        first = ens.separable_gaussian(g, 1.0)
        member = SeparableField(g, np.ones(g.space.shape), np.zeros(g.t_points))
    else:
        first = ens.gaussian_spacetime(g, 1.0)
        zeros = np.zeros(g.shape, np.complex128 if kind == "complex" else np.float64)
        member = SpacetimeField(g, zeros)
    transformed = _spy_on_the_transforms(monkeypatch, type)
    with pytest.raises(ValueError, match="zero norm"):
        ratio_ladder(m, [(0.7, 0.3)], [first, member])
    # the first member's transform, not the zero one's: a separable first
    # member is the reference Gaussian, even on every axis, so its
    # transform is the orthant's
    assert transformed == [("orthant", SeparableField) if kind == "separable"
                           else ("spectrum", np.ndarray)]


def test_ratio_ladder_refuses_a_non_finite_norm(monkeypatch):
    # a member whose p-norm overflows is refused before it is transformed,
    # and an output whose q-norm overflows once it is made, so no ratio is
    # ever inf or nan
    m = _ladder_symbol()
    g = _LADDER_GRID
    first = ens.separable_gaussian(g, 1.0)
    huge = SeparableField(g, np.full(g.space.shape, 1e200), np.full(g.t_points, 1e200))
    transformed = _spy_on_the_transforms(monkeypatch, lambda samples: samples)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="member with a non-finite norm"):
            ratio_ladder(m, [(0.7, 0.3)], [first, huge])
        assert transformed == [("orthant", first)]
        with pytest.raises(ValueError, match="output with a non-finite norm"):
            ratio_ladder(RadialSymbol(g, m.rows * 1e300), [(0.7, 0.3)], [first])
    assert transformed == [("orthant", first)] * 2


def test_ratio_probes_are_one_ladder_and_its_verdicts_bit_for_bit():
    # unsorted widths: the family is the reference Gaussian at the sorted
    # widths, labeled by width, and each point's pair is the ladder's stats
    # and boundedness_verdict on them, in point order
    m = _ladder_symbol()
    g = _LADDER_GRID
    points = [ExponentPoint(0.7, 0.3, 0.4, 1), ExponentPoint(0.9, 0.5, 0.4, 1),
              ExponentPoint(0.6, 0.2, 0.4, 1)]
    widths = [2.0, 0.25, 1.0, 0.5]
    ordered = sorted(widths)
    want = ratio_ladder(m, [(pt.inv_p, pt.inv_q) for pt in points],
                        [ens.separable_gaussian(g, w) for w in ordered],
                        [f"width {w:g}" for w in ordered])
    for pool_map in (None, lambda fn, items: [fn(it) for it in reversed(items)][::-1]):
        got = ratio_probes(m, points, widths, pool_map)
        assert len(got) == len(points)
        for (stats, verdict), st in zip(got, want):
            assert stats == st
            assert stats.labels == ("width 0.25", "width 0.5", "width 1", "width 2")
            assert verdict == boundedness_verdict(ordered, st.ratios)
            assert verdict.spread == max(st.ratios) / min(st.ratios)
    assert widths == [2.0, 0.25, 1.0, 0.5]


@pytest.mark.parametrize("grid", [
    SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0),
    SpacetimeGrid(Grid(1, 1024, 64.0), 1024, 64.0),
    SpacetimeGrid(Grid(2, 32, 16.0), 32, 16.0),
], ids=["256^2", "1024^2", "32^3"])
def test_a_separable_member_agrees_with_its_materialized_field(grid):
    # the factored route (1-d transforms and factor norms, and the
    # ladder's orthant route) against the generic one on the outer
    # product; measured worst cases over these grids: spectrum 5.2e-16 of
    # max |X|, p-norms 4.4e-16, ratios 4.4e-16
    widths = (0.25, 0.5, 1.0, 2.0, 4.0)
    inv_ps = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    for width in widths:
        sep, f = ens.separable_gaussian(grid, width), ens.gaussian_spacetime(grid, width)
        assert np.array_equal(f.samples, np.multiply(sep.space[..., None], sep.time))
        spectrum, real = fields._spectrum(sep)
        want = np.fft.rfftn(f.samples)
        assert real and spectrum.shape == want.shape
        assert np.max(np.abs(spectrum - want)) <= 2e-15 * np.max(np.abs(want))
        for p in [1.0 / inv_p for inv_p in inv_ps] + [np.inf]:
            assert lp_norm(sep, p) == pytest.approx(lp_norm(f, p), rel=2e-15, abs=0.0)
    n = grid.space.n
    m = symbol(grid, KernelSpec(0.4 * n, n), RadialQuadrature.for_grid(grid, 32))
    probes = [(0.7, 0.3), (0.6, 0.2), (0.9, 0.5)]
    factored = ratio_ladder(m, probes, [ens.separable_gaussian(grid, w) for w in widths])
    materialized = ratio_ladder(m, probes, [ens.gaussian_spacetime(grid, w) for w in widths])
    for a, b in zip(factored, materialized):
        np.testing.assert_allclose(a.ratios, b.ratios, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("grid", [_OUTPUT_GRIDS["64^3"], *(
    SpacetimeGrid(Grid(n, points, extent), points, extent)
    for n, points, extent in ((1, 256, 32.0), (1, 1024, 64.0), (2, 32, 16.0)))],
    ids=["64^3", "256^2", "1024^2", "32^3"])
def test_a_ladder_measures_an_even_member_on_its_orthant(monkeypatch, grid):
    # the reference Gaussians are even on every axis and take the orthant
    # route, within the separable bound of their materialized fields'
    # ratios.  The same member with a factor rolled by one sample, and at
    # n = 2 one even under x -> -x but not under one axis's reflection,
    # fail the check and take the generic route, bit for bit
    n = grid.space.n
    m = _output_symbol(grid)
    probes = [(0.7, 0.3), (0.6, 0.2), (0.9, 0.5)]
    widths = (0.25, 0.5, 1.0, 2.0, 4.0)
    materialized = ratio_ladder(m, probes, [ens.gaussian_spacetime(grid, w) for w in widths])
    even = [ens.separable_gaussian(grid, w) for w in widths]
    ref = even[2]
    uneven = [SeparableField(grid, ref.space, np.roll(ref.time, 1)),
              SeparableField(grid, np.roll(ref.space, 1, axis=n - 1), ref.time)]
    if n == 2:
        u, v = np.meshgrid(grid.space.axis(), grid.space.axis(), indexing="ij", sparse=True)
        skew = np.exp(-np.pi * ((u - v) ** 2 / 4.0 + (u + v) ** 2))
        assert np.array_equal(skew[1:, 1:], skew[:0:-1, :0:-1])
        uneven.append(SeparableField(grid, skew, ref.time))
    transformed = _spy_on_the_transforms(monkeypatch, lambda f: f)
    stats = ratio_ladder(m, probes, even + uneven)
    assert transformed == [("orthant", f) for f in even] + [("spectrum", f) for f in uneven]
    for (inv_p, inv_q), st, want in zip(probes, stats, materialized):
        np.testing.assert_allclose(st.ratios[:len(even)], want.ratios, rtol=4e-15, atol=0.0)
        assert st.ratios[len(even):] == tuple(
            lp_norm(_applied(f, m), 1.0 / inv_q) / lp_norm(f, 1.0 / inv_p) for f in uneven)


def test_separable_member_guards():
    g = _LADDER_GRID
    space, time = np.ones(g.space.shape), np.ones(g.t_points)
    # held as float64, with the grid's shape
    f = SeparableField(g, space.astype(np.int64), time)
    assert f.space.dtype == np.float64 and f.time is time
    assert f.shape == g.shape
    assert f.cell_volume == g.cell_volume
    # complex, non-finite or wrongly shaped factors are refused
    with pytest.raises(ValueError, match="real"):
        SeparableField(g, space + 0j, time)
    with pytest.raises(ValueError, match="real"):
        SeparableField(g, space, time + 1j)
    for bad in (np.nan, np.inf, -np.inf):
        spoilt = time.copy()
        spoilt[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SeparableField(g, space, spoilt)
    with pytest.raises(ValueError, match="shape"):
        SeparableField(g, np.ones(g.shape), time)
    with pytest.raises(ValueError, match="shape"):
        SeparableField(g, space, np.ones(g.t_points // 2))
    # it passes symbol_applier's symbol checks unchanged
    m = _ladder_symbol()
    sep = ens.separable_gaussian(g, 1.0)
    with pytest.raises(TypeError, match="RadialSymbol"):
        symbol_applier(sep)(m.array())
    wide = SpacetimeGrid(Grid(1, 64, 32.0), 64, 16.0)
    with pytest.raises(ValueError, match="grid"):
        symbol_applier(sep)(symbol(wide, KernelSpec(0.4, 1), RadialQuadrature.for_grid(wide, 32)))
    assert symbol_applier(sep)(m).dtype == np.float64


def test_boundedness_verdicts():
    deltas = [0.25, 0.5, 1.0, 2.0, 4.0]
    flat = [1.0, 1.02, 0.99, 1.01, 1.0]
    assert boundedness_verdict(deltas, flat).verdict == "pass"

    growing = [d**0.2 for d in deltas]
    v = boundedness_verdict(deltas, growing)
    assert v.verdict == "fail" and v.monotone and v.fitted_exponent == pytest.approx(0.2)

    shrinking = [d**-0.2 for d in deltas]
    assert boundedness_verdict(deltas, shrinking).verdict == "fail"

    # mild monotone drift below the growth cutoff is still a pass
    mild = [d**0.02 for d in deltas]
    assert boundedness_verdict(deltas, mild).verdict == "pass"

    ragged = [1.0, 5.0, 0.4, 3.0, 1.0]
    assert boundedness_verdict(deltas, ragged).verdict == "inconclusive"


def test_boundedness_verdict_guards():
    with pytest.raises(ValueError):
        boundedness_verdict([1.0], [1.0])
    with pytest.raises(ValueError):
        boundedness_verdict([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        boundedness_verdict([1.0, 2.0], [1.0, -1.0])
    # a repeated scale leaves nothing to fit a trend to
    for scales in ([1.0, 1.0], [2.0, 2.0, 2.0]):
        with pytest.raises(ValueError, match="distinct"):
            boundedness_verdict(scales, [1.0, 1.5, 2.0][:len(scales)])
