"""Kernel family: exponents, densities, spectral profiles, CSV tables."""

import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import conewave.kernel as kernel
import oracles
from conewave import (
    KernelSpec,
    RadialQuadrature,
    SpacetimeGrid,
    KernelValidityError,
    gamma_const,
    lambda_of,
    multiplier_split,
    omega_hat,
    omega_physical,
)
from conewave.kernel import omega_hat_jacobi, write_kernel_tables
from conewave.specialfn import reciprocal_gamma


def test_lambda_values():
    assert lambda_of(0.5, 1) == 0.5
    assert isinstance(lambda_of(0.5, 1), float)
    assert lambda_of(1.0, 2) == pytest.approx(0.75)
    # endpoint alpha -> n collapses lambda to 0
    assert lambda_of(1.0 - 1e-12, 1) == pytest.approx(0.0, abs=1e-11)


def test_lambda_rejects_out_of_range_orders():
    for alpha, n in ((0.0, 1), (1.0, 1), (-0.2, 2), (2.0, 2), (3.5, 3)):
        with pytest.raises(KernelValidityError):
            lambda_of(alpha, n)
    with pytest.raises(KernelValidityError):
        lambda_of(0.5, 0)


@given(
    n=st.integers(min_value=1, max_value=3),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=100, deadline=None)
def test_derived_exponents_stay_in_their_strips(n, frac):
    spec = KernelSpec(frac * n, n)
    assert -0.5 < spec.bessel_order < (n + 1) / 2 - 0.5
    assert 0.0 < spec.lam < (n + 1) / 2
    assert spec.time_scale_power == (n + 1) / n
    # the two derived exponents are tied: nu = n/2 - lam
    assert spec.bessel_order == pytest.approx(n / 2 - spec.lam, abs=1e-12)


def test_normalizing_constant_against_high_precision():
    for alpha, n in ((0.5, 1), (0.3, 1), (0.9, 2), (2.2, 3)):
        spec = KernelSpec(alpha, n)
        lam = spec.lam
        want = mpmath.pi ** (-mpmath.mpf(lam)) / mpmath.gamma(1 - mpmath.mpf(lam))
        assert isinstance(gamma_const(spec), float)
        assert gamma_const(spec) == pytest.approx(float(want), rel=1e-13)
    # lam = 1/2 gives the closed value 1/pi
    assert gamma_const(KernelSpec(0.5, 1)) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_continuation_zero_where_gamma_poles_sit():
    # lam = 1 at alpha = n(n-1)/(n+1): the reciprocal gamma kills the pole
    spec = KernelSpec(2.0 / 3.0, 2)
    assert spec.lam == 1.0
    assert gamma_const(spec) == 0.0
    # the spectral profile stays finite and normalized through that point
    assert omega_hat(0.0, spec) == pytest.approx(1.0, rel=1e-14)


def test_physical_density_shape_and_support():
    spec = KernelSpec(0.5, 1)  # lam = 1/2, inside the density strip
    x = np.linspace(-2.0, 2.0, 401)
    w = omega_physical(x, spec)
    assert np.all(w[np.abs(x) >= 1.0] == 0.0)
    inside = np.abs(x) < 1.0
    assert np.all(w[inside] > 0.0)
    assert w[inside].min() >= gamma_const(spec)  # density >= its center value
    assert omega_physical(0.0, spec) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_physical_density_integrates_to_zero_frequency_mass():
    spec = KernelSpec(0.5, 1)
    lam = spec.lam
    u, wts = roots_jacobi(800, -lam, -lam)
    # the Jacobi weight IS the density up to gamma_const, so sum(w) ~ mass
    mass = gamma_const(spec) * wts.sum()
    assert mass == pytest.approx(omega_hat(0.0, spec), rel=1e-12)


def test_physical_density_refuses_outside_strip():
    # n=2, alpha=0.5 has lam = 1.125: only a distribution, no density
    with pytest.raises(KernelValidityError):
        omega_physical(0.5, KernelSpec(0.5, 2))


def test_spectral_profile_matches_quadrature_oracle():
    for alpha in (0.3, 0.5, 0.8):
        spec = KernelSpec(alpha, 1)
        for xi in (0.0, 0.5, 2.0, 7.0):
            want = oracles.profile_transform_reference(alpha, xi)
            assert omega_hat(xi, spec) == pytest.approx(want, abs=1e-9)


def test_jacobi_profile_accuracy_floor_up_to_the_default_grid_reach():
    # alpha = 0.1, n = 2 (lam' = 0.925) is where the rule's weights nearest
    # s = +-1 are least accurate; |xi| up to 64 covers r_max x Nyquist on
    # the default n = 1 spacetime grid, and 128 twice that
    spec = KernelSpec(0.1, 2)
    nu = spec.bessel_order
    for xi_max, bound in ((32.0, 2e-12), (64.0, 1.5e-11), (128.0, 1e-11)):
        xi = np.linspace(0.01, xi_max, 401)
        want = np.array([oracles.scaled_bessel_reference(nu, 2.0 * np.pi * x) for x in xi])
        want *= (2.0 * np.pi) ** nu
        err = np.max(np.abs(omega_hat_jacobi(xi, spec) - want)) / omega_hat(0.0, spec)
        assert err <= bound, xi_max


def test_jacobi_profile_accuracy_against_mpmath_at_the_least_accurate_order():
    # 5.61561e-12 of omega_hat(0) was the error of one rule sized for the
    # largest |xi| on these points; per-band rules may cost half as much again
    spec = KernelSpec(0.1, 2)
    nu = spec.bessel_order
    xi = np.linspace(0.0, 64.0, 500)
    _, scaled = oracles.bessel_pair_reference(nu, 2.0 * np.pi * xi[1:])
    want = (2.0 * np.pi) ** nu * np.concatenate([[oracles.scaled_bessel_reference(nu, 0.0)], scaled])
    err = np.max(np.abs(omega_hat_jacobi(xi, spec) - want)) / omega_hat(0.0, spec)
    assert err <= 1.5 * 5.61561e-12, err


@pytest.mark.parametrize("profile", [omega_hat, omega_hat_jacobi])
def test_profiles_do_not_depend_on_the_batch_bit_for_bit(profile):
    # Bessel arguments rho = 2 pi |xi| in (0, 14] and in (14, 4000], the
    # latter sparsely for the quadrature, whose rules grow with rho
    rng = np.random.default_rng(5)
    rho = np.concatenate([np.linspace(0.0, 14.0, 121)[1:],
                          np.geomspace(14.0, 4000.0, 9 if profile is omega_hat_jacobi else 300)[1:]])
    xi = rng.permutation(rho) / (2.0 * np.pi) * rng.choice([-1.0, 1.0], rho.size)
    for alpha, n in ((0.1, 2), (0.5, 1), (1.5, 2)):
        spec = KernelSpec(alpha, n)
        batch = profile(xi, spec)
        assert np.array_equal(batch, [profile(x, spec) for x in xi]), (alpha, n)


def test_a_jacobi_value_does_not_move_when_far_bands_join_the_call():
    # with one rule sized for the call's largest |xi|, the value at 0.7
    # moved by 2.2e-13 when 64.0 joined the call
    spec = KernelSpec(0.1, 2)
    xi = np.array([0.7, 0.3, 1.2, 2.5, 5.0, 9.0, 17.0, 33.0, 64.0])
    batch = omega_hat_jacobi(xi, spec)
    assert np.array_equal(batch, [omega_hat_jacobi(x, spec) for x in xi])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_profiles_refuse_non_finite_frequencies(bad, monkeypatch):
    counts = _spy_node_counts(monkeypatch)
    spec = KernelSpec(0.5, 1)
    for profile in (omega_hat, omega_hat_jacobi):
        with pytest.raises(ValueError):
            profile(bad, spec)
        with pytest.raises(ValueError):
            profile(np.array([0.5, bad, 2.0]), spec)
    assert counts == []  # refused before any rule is built


@pytest.mark.parametrize("nodes", [1, 2, 8, 24, 25])
@pytest.mark.parametrize("a", [-0.925, -0.5, 0.0, 0.3, 1.0])
def test_jacobi_rule_integrates_its_even_moments_exactly(nodes, a):
    # a Gauss rule on K nodes is exact up to degree 2K - 1; the even moments
    # of (1 - s^2)^a are Beta(m + 1/2, a + 1), the odd ones vanish by symmetry
    ((s, w),) = kernel._jacobi_rules([nodes], a)
    assert s.shape == w.shape == (nodes,)
    assert np.all(np.diff(s) > 0.0) and np.all(w > 0.0)
    for m in range(nodes):
        want = float(mpmath.beta(m + 0.5, mpmath.mpf(a) + 1))
        assert float(w @ s ** (2 * m)) == pytest.approx(want, rel=3e-13), m


def _band_nodes(xi):
    # the node count omega_hat_jacobi gives each |xi|: ceil(3.5 e) + 24 at
    # the upper edge e of its half-octave band [0, 1], (1, 2^(1/2)], ...
    def count(r):
        j = 0
        while 2.0 ** (0.5 * j) < r:
            j += 1
        return math.ceil(3.5 * 2.0 ** (0.5 * j)) + 24
    return np.array([count(r) for r in np.abs(np.ravel(xi))], dtype=int)


def _unfolded_jacobi(xi, spec, nodes):
    # frozen reference: the cosine sum over every node of one Gauss-Jacobi
    # rule of the given count, as omega_hat_jacobi computed it before the
    # sum was folded onto s > 0
    lam = 0.5 - spec.bessel_order
    rho = np.abs(np.asarray(xi, dtype=float)).ravel()
    s, w = oracles.jacobi_rule_reference(nodes, -lam)
    out = np.empty_like(rho)
    step = max(1, 2**16 // nodes)
    for i in range(0, rho.size, step):
        block = np.outer(rho[i:i + step], 2.0 * np.pi * s)
        out[i:i + step] = np.cos(block, out=block) @ w
    out *= np.pi ** (-lam) * reciprocal_gamma(1.0 - lam)
    return out.reshape(np.shape(xi))


def _spy_node_counts(monkeypatch):
    # the node counts of every rule built, in the order of the builder calls
    counts = []
    rules = kernel._jacobi_rules

    def spy(ks, a):
        counts.extend(ks)
        return rules(ks, a)

    monkeypatch.setattr(kernel, "_jacobi_rules", spy)
    return counts


def test_folded_jacobi_profile_matches_the_unfolded_sum(monkeypatch):
    counts = _spy_node_counts(monkeypatch)
    band_counts = set(_band_nodes(0.7).tolist())
    for alpha, n in ((0.1, 2), (0.3, 1), (0.45, 1), (0.6, 1), (0.5, 2), (1.5, 2)):
        spec = KernelSpec(alpha, n)
        scale = abs(omega_hat(0.0, spec))
        for xi_max in (0.0, 2.0, 4.0, 10.0, 64.0, 64.2):
            xi = np.linspace(0.0, xi_max, 1501)
            got = omega_hat_jacobi(xi, spec)
            nodes = _band_nodes(xi)
            band_counts.update(nodes.tolist())
            for k in np.unique(nodes).tolist():
                sel = nodes == k
                want = _unfolded_jacobi(xi[sel], spec, k)
                assert np.max(np.abs(got[sel] - want)) <= 1e-15 * scale, (alpha, n, xi_max, k)
        (k,) = _band_nodes(0.7).tolist()
        assert omega_hat_jacobi(0.7, spec) == pytest.approx(
            float(_unfolded_jacobi(0.7, spec, k)), abs=1e-15 * scale)
    # the rules drawn are exactly the bands' counts, odd and even ones
    assert set(counts) == band_counts
    assert {k % 2 for k in counts} == {0, 1}


@pytest.fixture(scope="module")
def default_tables():
    # the cone-direct tables of each default spacetime grid, at the default
    # radial window and at the r_max refinement of the convergence check:
    # for each, the arguments and the node counts of the rules drawn
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        counts = _spy_node_counts(mp)
        for n in (1, 2):
            g = SpacetimeGrid.default(n)
            quad = RadialQuadrature.for_grid(g)
            xi = np.unique(g.space.freq_radius().ravel())
            for r_max in (quad.r_max, min(2.0 * quad.r_max, g.t_extent / 2.0)):
                rho = np.outer(quad.refined(r_max=r_max).nodes(), xi)
                del counts[:]
                omega_hat_jacobi(rho, KernelSpec(0.5, n))
                tables.append((n, r_max == quad.r_max, rho.ravel(), list(counts)))
    return tables


def test_jacobi_rule_is_exactly_symmetric_at_the_default_node_counts(default_tables):
    # the fold in omega_hat_jacobi relies on these identities bit for bit
    counts = sorted({k for *_, drawn in default_tables for k in drawn})
    for k in counts + [24, 25]:
        for alpha, n in ((0.1, 2), (0.5, 1), (0.9, 1), (0.5, 2), (1.5, 2)):
            lam = 0.5 - KernelSpec(alpha, n).bessel_order
            ((s, w),) = kernel._jacobi_rules([k], -lam)
            assert np.array_equal(s, -s[::-1]), (k, alpha, n)
            assert np.array_equal(w, w[::-1]), (k, alpha, n)
            assert np.all(s[k - k // 2:] > 0.0)
            if k % 2:
                assert s[k // 2] == 0.0


@pytest.mark.parametrize("a", [-0.925, -0.5, 0.0, 0.3, 1.0])
def test_one_pass_rules_equal_the_per_count_rules_bit_for_bit(default_tables, a):
    # every rule of one _jacobi_rules call has the bits of the frozen
    # per-count builder, whatever the other counts of the call, and comes
    # back in the order of the counts asked for
    drawn = sorted({k for *_, counts in default_tables for k in counts})
    for counts in ([1, 2, 3, 24, 25], drawn, [136, 249, 472], [472, 25, 1, 136, 25]):
        rules = kernel._jacobi_rules(counts, a)
        assert len(rules) == len(counts)
        for k, (s, w) in zip(counts, rules):
            want_s, want_w = oracles.jacobi_rule_reference(k, a)
            assert np.array_equal(s, want_s) and np.array_equal(w, want_w), (k, a)


def test_a_jacobi_profile_call_builds_its_rules_in_one_call(monkeypatch):
    calls = []
    rules = kernel._jacobi_rules
    monkeypatch.setattr(kernel, "_jacobi_rules",
                        lambda ks, a: calls.append(list(ks)) or rules(ks, a))
    xi = np.linspace(0.0, 64.0, 801)
    omega_hat_jacobi(xi, KernelSpec(0.5, 1))
    assert calls == [sorted(set(_band_nodes(xi).tolist()))]


def test_default_tables_draw_band_rules_and_half_the_cosines_at_most(default_tables):
    # counted, not timed: one rule per nonempty band, of the band's count,
    # and cosines (K // 2 per argument) against one rule sized for the
    # largest argument, as every argument had before the bands
    ratios = {}
    for n, default, rho, drawn in default_tables:
        nodes = _band_nodes(rho)
        assert sorted(drawn) == sorted(set(nodes.tolist())), n
        one_rule = rho.size * ((math.ceil(3.5 * rho.max()) + 24) // 2)
        if default:
            ratios[n] = float(np.sum(nodes // 2)) / one_rule
    assert ratios[1] <= 0.5 and ratios[2] <= 0.5, ratios


def test_jacobi_rule_matches_scipy_nodes_to_rounding():
    # scipy's roots_jacobi is an independent construction of the same nodes
    for k in (24, 25, 136, 249):
        for a in (-0.925, -0.5, 0.0, 0.4):
            ((s, _),) = kernel._jacobi_rules([k], a)
            want, _ = roots_jacobi(k, a, a)
            assert np.max(np.abs(s - want)) <= 4e-16, (k, a)


def test_zero_frequency_mass_formula():
    for alpha, n in ((0.5, 1), (0.3, 1), (1.0, 2), (1.5, 3)):
        spec = KernelSpec(alpha, n)
        assert omega_hat(0.0, spec) == pytest.approx(
            oracles.zero_frequency_reference(alpha, n), rel=1e-13
        )


def test_profile_even_and_adjoint_real():
    spec = KernelSpec(0.7, 2)
    xi = np.linspace(0.1, 9.0, 40)
    assert np.array_equal(omega_hat(xi, spec), omega_hat(-xi, spec))
    # real and even, so the profile is its own adjoint
    assert omega_hat(xi, spec).dtype == np.float64


def test_split_main_closed_form():
    # main = (1/pi) xi^{-a} cos(2 pi xi - pi a/2), a = nu + 1/2
    xi = np.geomspace(0.2, 50.0, 200)
    for alpha, n in ((0.5, 1), (0.3, 1), (1.2, 2)):
        spec = KernelSpec(alpha, n)
        a = spec.bessel_order + 0.5
        main, rest = multiplier_split(xi, spec)
        closed = xi ** (-a) * np.cos(2.0 * np.pi * xi - np.pi * a / 2.0) / np.pi
        assert np.max(np.abs(main - closed)) < 1e-13 * np.max(np.abs(closed))
        assert np.max(np.abs(main + rest - omega_hat(xi, spec))) < 1e-14


def test_split_remainder_decays_one_power_faster():
    spec = KernelSpec(0.4, 1)
    a = spec.bessel_order + 0.5
    xi = np.geomspace(1.0, 1e3, 3000)
    _, rest = multiplier_split(xi, spec)
    envelope = np.abs(rest) * xi ** (a + 1.0)
    # bounded envelope: the sup over the last decade is no bigger than over the first
    first = envelope[xi <= 10.0].max()
    last = envelope[xi >= 100.0].max()
    assert last <= 2.0 * first


def test_split_refuses_zero_frequency():
    spec = KernelSpec(0.5, 1)
    with pytest.raises(ValueError):
        multiplier_split(0.0, spec)
    with pytest.raises(ValueError):
        multiplier_split(np.array([1.0, 0.0]), spec)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_kernel_tables_roundtrip(tmp_path):
    spec = KernelSpec(0.5, 1)
    xi = np.linspace(0.0, 3.0, 7)
    x = np.linspace(-1.2, 1.2, 9)
    sp, ph = tmp_path / "spectral.csv", tmp_path / "physical.csv"
    info = write_kernel_tables(spec, xi, x, sp, ph)
    assert info == {"spectral_rows": 7, "physical_rows": 9}

    rows = _read_csv(sp)
    assert rows[0] == ["xi", "omega_hat", "main", "remainder"]
    assert len(rows) == 8
    # xi = 0: profile present, split columns empty (undefined there)
    assert rows[1][0] == "0.0" and rows[1][2] == "" and rows[1][3] == ""
    assert float(rows[1][1]) == omega_hat(0.0, spec)
    for row in rows[2:]:
        v = float(row[0])
        assert float(row[1]) == omega_hat(v, spec)  # repr round-trips exactly
        m, r = multiplier_split(v, spec)
        assert float(row[2]) == m and float(row[3]) == r

    prows = _read_csv(ph)
    assert prows[0] == ["x", "omega"]
    assert len(prows) == 10
    got = np.array([float(r[1]) for r in prows[1:]])
    assert np.array_equal(got, omega_physical(x, spec))


def test_kernel_tables_refuse_density_outside_strip(tmp_path):
    # n=2, alpha=0.5: spectral table written, physical table header-only
    spec = KernelSpec(0.5, 2)
    sp, ph = tmp_path / "s.csv", tmp_path / "p.csv"
    info = write_kernel_tables(spec, np.linspace(0, 2, 5), np.linspace(-1, 1, 5), sp, ph)
    assert info["spectral_rows"] == 5
    assert info["physical_rows"] == 0
    assert len(_read_csv(ph)) == 1


def _scalar_loop_tables(spec, xi_values, x_values, spectral_path, physical_path):
    # the tables written point by point, one scalar profile call per cell,
    # as write_kernel_tables did before it took one call per column
    g = kernel._g
    with open(spectral_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "omega_hat", "main", "remainder"])
        for xi in xi_values:
            oh = omega_hat(float(xi), spec)
            if xi == 0.0:
                w.writerow([g(xi), g(oh), "", ""])
            else:
                main, rest = multiplier_split(float(xi), spec)
                w.writerow([g(xi), g(oh), g(main), g(rest)])
    with open(physical_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "omega"])
        if 0.0 < spec.lam < 1.0:
            for x in x_values:
                w.writerow([g(x), g(omega_physical(float(x), spec))])


@pytest.mark.parametrize("alpha, n", [(0.3, 1), (0.5, 1), (0.95, 1), (0.5, 2), (1.5, 2),
                                      (2.2, 3)])
def test_kernel_tables_have_the_bytes_of_the_scalar_loop(tmp_path, alpha, n):
    # the xi = 0 row keeps its empty split columns, and (0.5, 2) writes a
    # header-only physical table
    spec = KernelSpec(alpha, n)
    xi = np.linspace(0.0, 10.0, 501)
    x = np.linspace(-1.25, 1.25, 301)
    got = (tmp_path / "s.csv", tmp_path / "p.csv")
    want = (tmp_path / "s_ref.csv", tmp_path / "p_ref.csv")
    write_kernel_tables(spec, xi, x, *got)
    _scalar_loop_tables(spec, xi, x, *want)
    for a, b in zip(got, want):
        assert a.read_bytes() == b.read_bytes()
    if (alpha, n) == (0.5, 2):
        assert len(_read_csv(got[1])) == 1
    assert _read_csv(got[0])[1][2:] == ["", ""]


@pytest.mark.parametrize("alpha, n", [(0.2, 1), (0.7, 1), (1.3, 2), (2.6, 3)])
def test_multiplier_split_has_the_bits_of_a_call_per_point(alpha, n):
    spec = KernelSpec(alpha, n)
    xi = np.concatenate([np.geomspace(1e-3, 1e3, 700), -np.linspace(0.05, 40.0, 300)])
    main, rest = multiplier_split(xi, spec)
    for v, a, b in zip(xi.tolist(), main, rest):
        assert multiplier_split(v, spec) == (a, b)
