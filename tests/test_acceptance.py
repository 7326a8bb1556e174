"""End-to-end acceptance battery: one test per shipped guarantee.

Each test measures, logs its scoreboard line, and only then asserts, so a
red run still prints every verdict. Tolerances and runtime budgets sit
inline next to the quantity they gate.
"""

import time

import numpy as np

from conewave.analysis import (
    ExponentPoint,
    Region,
    boundedness_verdict,
    classify_exponents,
    lp_norm,
    ratio_ladder,
)
from conewave.cli import (
    battery_bessel,
    battery_case_bounds,
    battery_mixed_norm,
    battery_stein_weiss,
)
from conewave.conop import RadialQuadrature, symbol
from conewave.ensembles import cone_plate, gaussian_spacetime, wave_packet
from conewave.fields import Grid, SpacetimeField, SpacetimeGrid, symbol_applier
from conewave.kernel import KernelSpec, multiplier_split, omega_hat
from oracles import classify_reference, profile_transform_reference, radial_mass_reference


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_criterion_01_transform_matches_independent_quadrature(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5, 0.6, 0.8):
        spec = KernelSpec(alpha, 1)
        for xi in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            err = abs(omega_hat(xi, spec) - profile_transform_reference(alpha, xi))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    acceptance_log(
        1,
        "kernel transform vs independent quadrature",
        ok,
        f"worst |diff| {worst:.2e} (tol 1e-6), {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_remainder_orders_and_tail_envelope(acceptance_log):
    t0 = time.perf_counter()
    records = battery_bessel()
    elapsed = time.perf_counter() - t0
    failed = [r["name"] for r in records if not r["passed"]]
    ok = not failed and elapsed < 10.0
    acceptance_log(
        2,
        "remainder vanishes at half orders; tail envelope refinement-stable",
        ok,
        f"{len(records)} checks, {elapsed:.1f}s",
    )
    assert not failed, failed
    assert elapsed < 10.0


def test_criterion_03_split_reassembles_with_decaying_remainder(acceptance_log):
    rng = np.random.default_rng(315)
    worst = 0.0
    drifts = []
    for alpha in (0.4, 0.6):
        spec = KernelSpec(alpha, 1)
        xi = np.exp(rng.uniform(np.log(1e-2), np.log(1e3), 10_000))
        main, rest = multiplier_split(xi, spec)
        worst = max(worst, float(np.max(np.abs(main + rest - omega_hat(xi, spec)))))

        # decay index of the main term; the remainder must beat it by one
        # power, so |rest| xi^(a+1) stays bounded on the tail window
        a = spec.bessel_order + 0.5
        sups = []
        for points in (40_001, 160_001):
            grid = np.linspace(1.0, 1e3, points)
            _, tail = multiplier_split(grid, spec)
            sups.append(float(np.max(np.abs(tail) * grid ** (a + 1.0))))
        drifts.append(abs(sups[1] - sups[0]) / sups[1])
    ok = worst <= 1e-12 and max(drifts) < 0.05
    acceptance_log(
        3,
        "two-term split reassembles; remainder decays one extra power",
        ok,
        f"worst |S+E-hat| {worst:.2e} (tol 1e-12), envelope drift {max(drifts):.2%}",
    )
    assert worst <= 1e-12
    assert max(drifts) < 0.05


def test_criterion_04_case_bounds_finite_and_stable(acceptance_log):
    records = battery_case_bounds(2)
    failed = [r["name"] for r in records if not r["passed"]]
    ok = bool(records) and not failed
    acceptance_log(
        4,
        "symbol-product case bounds stable under 4x denser sampling (n=2)",
        ok,
        f"{len(records)} checks over alpha x (r,s) combinations",
    )
    assert records
    assert not failed, failed


def test_criterion_05_operator_paths_agree(acceptance_log):
    # the two paths share the assembly and the apply but no profile
    # arithmetic: Bessel series against Gauss-Jacobi quadrature
    t0 = time.perf_counter()
    g1 = SpacetimeGrid(Grid(1, 512, 64.0), 512, 64.0)
    cases = [(g1, alpha, 1) for alpha in (0.3, 0.4, 0.6)]
    cases.append((SpacetimeGrid(Grid(2, 64, 32.0), 64, 32.0), 0.5, 2))
    worst = 0.0
    for grid, alpha, n in cases:
        spec = KernelSpec(alpha, n)
        quad = RadialQuadrature.for_grid(grid)
        f = gaussian_spacetime(grid, 1.0)
        apply = symbol_applier(f)
        via_mult = apply(symbol(grid, spec, quad, "multiplier"))
        cone = apply(symbol(grid, spec, quad, "cone-direct"))
        worst = max(worst, _rel_l2(cone, via_mult))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    acceptance_log(
        5,
        "multiplier and cone-direct paths agree (n=1 and n=2)",
        ok,
        f"cone-direct vs multiplier {worst:.2e} (tol 1e-8), {elapsed:.1f}s",
    )
    assert worst < 1e-8
    assert elapsed < 60.0


def test_criterion_06_scaling_line_invariance(acceptance_log):
    t0 = time.perf_counter()
    grid = SpacetimeGrid(Grid(1, 2048, 64.0), 2048, 64.0)
    quad = RadialQuadrature.for_grid(grid)
    spec = KernelSpec(0.4, 1)
    inv_p, inv_q = 0.7, 0.3  # on the line: 1/p - 1/q = alpha/n

    # one ladder per member serves the line and both off-line probes, so
    # no two inputs or outputs are held at once
    deltas = (0.25, 0.5, 1.0, 2.0, 4.0)
    offsets = (0.0, 0.05, -0.05)
    m = symbol(grid, spec, quad)
    probes = [(inv_p, inv_q + off) for off in offsets]
    rows = [[stats.ratios[0] for stats in ratio_ladder(m, probes, [gaussian_spacetime(grid, d)])]
            for d in deltas]
    ladder = list(zip(*rows))  # ladder[k]: every member's ratio at probe k
    verdicts = {off: boundedness_verdict(deltas, ratios) for off, ratios in zip(offsets, ladder)}
    elapsed = time.perf_counter() - t0

    # one member's ratios are the generic route's, bit for bit
    g = gaussian_spacetime(grid, deltas[2])
    out = SpacetimeField(grid, symbol_applier(g)(m))
    exact = all(ratios[2] == lp_norm(out, 1.0 / (inv_q + off)) / lp_norm(g, 1.0 / inv_p)
                for off, ratios in zip(offsets, ladder))

    on_line = verdicts[0.0]
    up, down = verdicts[0.05], verdicts[-0.05]
    # moving 1/q off the line by eps changes the dilation exponent of the
    # ratio by (n+1) eps, so the drift direction follows the sign of eps
    ok = (
        on_line.spread < 1.10
        and up.monotone
        and up.fitted_exponent > 0.0
        and down.monotone
        and down.fitted_exponent < 0.0
        and elapsed < 120.0
        and exact
    )
    acceptance_log(
        6,
        "on-line dilation ratio flat; off-line drift has the predicted sign",
        ok,
        f"spread {on_line.spread - 1.0:.2%} (tol 10%), off-line slopes "
        f"{up.fitted_exponent:+.3f}/{down.fitted_exponent:+.3f}, {elapsed:.0f}s, "
        f"width-1 ratios {'equal' if exact else 'differ from'} the generic route",
    )
    assert exact
    assert on_line.spread < 1.10
    assert up.monotone and up.fitted_exponent > 0.0
    assert down.monotone and down.fitted_exponent < 0.0
    assert elapsed < 120.0


def _probe_family(grid):
    # three families: dilated Gaussians, wave packets moving in x and in t,
    # and cone plates; labels read "<family>-<parameter>"
    members, labels = [], []
    for w in (0.5, 1.0, 2.0):
        members.append(gaussian_spacetime(grid, w))
        labels.append(f"gaussian-w{w:g}")
    for k in (0.5, 1.0, 2.0):
        members.append(wave_packet(grid, 1.0, k_x=k))
        labels.append(f"packet-kx{k:g}")
        members.append(wave_packet(grid, 1.0, k_x=0.0, k_t=k))
        labels.append(f"packet-kt{k:g}")
    for th in (0.75, 1.5):
        members.append(cone_plate(grid, th))
        labels.append(f"cone-plate-th{th:g}")
    return members, labels


def test_criterion_07_boundedness_proxy_spread(acceptance_log):
    # lower-bound statistic for the operator norm: the worst ratio each
    # input family produces; the gate is its stability across families
    # and across a 2x grid refinement, not agreement between raw members
    points = ((0.4, 0.7, 0.3, Region.REGION_II), (0.6, 0.8, 0.2, Region.REGION_I))
    spreads = []
    exact = True
    for alpha, inv_p, inv_q, region in points:
        assert classify_exponents(ExponentPoint(inv_p, inv_q, alpha, 1)) is region
        spec = KernelSpec(alpha, 1)
        family_max: dict = {}
        for points_1d in (512, 1024):
            grid = SpacetimeGrid(Grid(1, points_1d, 64.0), points_1d, 64.0)
            quad = RadialQuadrature.for_grid(grid)
            members, labels = _probe_family(grid)
            m = symbol(grid, spec, quad)
            [stats] = ratio_ladder(m, [(inv_p, inv_q)], members, labels)
            for label, ratio, f in zip(labels, stats.ratios, members):
                # the first member of each family, real and complex, against
                # the generic route
                if label in ("gaussian-w0.5", "packet-kx0.5", "cone-plate-th0.75"):
                    out = SpacetimeField(grid, symbol_applier(f)(m))
                    exact = exact and ratio == (lp_norm(out, 1.0 / inv_q)
                                                / lp_norm(f, 1.0 / inv_p))
            for label, ratio in zip(stats.labels, stats.ratios):
                key = (label.split("-")[0], points_1d)
                family_max[key] = max(family_max.get(key, 0.0), ratio)
        values = list(family_max.values())
        spreads.append(max(values) / min(values))
    ok = all(s < 2.0 for s in spreads) and exact
    acceptance_log(
        7,
        "norm-proxy spread < 2 across ensembles and grid refinement",
        ok,
        f"spreads {spreads[0]:.2f} (RegionII), {spreads[1]:.2f} (RegionI), "
        f"ratios {'equal' if exact else 'differ from'} the generic route",
    )
    assert exact
    assert spreads[0] < 2.0
    assert spreads[1] < 2.0


def test_criterion_08_mixed_norm_invariance_and_convergence(acceptance_log):
    records = battery_mixed_norm()
    failed = [r["name"] for r in records if not r["passed"]]
    ok = bool(records) and not failed
    acceptance_log(
        8,
        "radial mixed norm dilation-invariant and grid-converged",
        ok,
        f"{len(records)} checks at q=10",
    )
    assert records
    assert not failed, failed


def test_criterion_09_weighted_inequality_checker(acceptance_log):
    records = battery_stein_weiss(seed=0)
    validators = [r for r in records if r["name"].startswith("validator ")]
    failed = [r["name"] for r in records if not r["passed"]]
    ok = len(validators) == 20 and not failed
    acceptance_log(
        9,
        "validator truth table, bounded constants, concentration growth",
        ok,
        f"{len(validators)} truth-table sets, {len(records)} checks total",
    )
    assert len(validators) == 20
    assert not failed, failed


def test_criterion_10_classifier_matches_exact_arithmetic(acceptance_log):
    worked = (
        (0.7, 0.2, 1.0, 2, Region.REGION_I),
        (0.7, 0.3, 0.4, 1, Region.REGION_II),
        (0.95, 0.55, 0.4, 1, Region.OPEN_GAP),
    )
    for inv_p, inv_q, alpha, n, want in worked:
        assert classify_exponents(ExponentPoint(inv_p, inv_q, alpha, n)) is want
        assert classify_reference(inv_p, inv_q, alpha, n) == want.value

    rng = np.random.default_rng(2026)
    checked = 0
    disagreements = 0
    while checked < 10_000:
        n = int(rng.integers(1, 4))
        alpha = float(rng.uniform(1e-3, n - 1e-3))
        inv_p = float(rng.uniform(1e-3, 1.0 - 1e-3))
        mode = int(rng.integers(0, 4))
        if mode < 2:  # exactly on the scaling line (up to rounding)
            inv_q = inv_p - alpha / n
        elif mode == 2:  # near the line, both sides
            inv_q = inv_p - alpha / n + float(rng.normal(0.0, 0.03))
        else:  # anywhere
            inv_q = float(rng.uniform(1e-3, 1.0 - 1e-3))
        if not 0.0 < inv_q < 1.0:
            continue
        got = classify_exponents(ExponentPoint(inv_p, inv_q, alpha, n)).value
        if got != classify_reference(inv_p, inv_q, alpha, n):
            disagreements += 1
        checked += 1
    ok = disagreements == 0
    acceptance_log(
        10,
        "classifier vs exact rational recomputation",
        ok,
        f"3 worked examples + {checked} random points, {disagreements} disagreements",
    )
    assert disagreements == 0


def test_criterion_11_absolute_normalization(acceptance_log):
    # m at zero frequency integrates the kernel mass against the radial
    # measure over both signs of r, so on each default grid it must be the
    # closed-form mass of the rule's window, 2 omega_hat(0) r_max^(B alpha)
    # / (B alpha), for both paths: a factor 2 lost or gained on the node
    # sum moves it by about 50% or 100%, and on the completion alone by
    # several per cent
    ratio_grid = SpacetimeGrid(Grid(1, 256, 32.0), 256, 32.0)  # scan-region
    cases = [(ratio_grid, alpha, 1) for alpha in (0.2, 0.4, 0.6)]
    cases.append((SpacetimeGrid(Grid(1, 1024, 64.0), 1024, 64.0), 0.4, 1))  # norm-test
    g2 = SpacetimeGrid(Grid(2, 128, 32.0), 128, 32.0)
    cases += [(g2, alpha, 2) for alpha in (0.5, 1.0, 1.2)]
    worst = 0.0
    for grid, alpha, n in cases:
        spec = KernelSpec(alpha, n)
        quad = RadialQuadrature.for_grid(grid)
        want = radial_mass_reference(alpha, n, quad.r_max)
        for path in ("multiplier", "cone-direct"):
            m = symbol(grid, spec, quad, path)
            worst = max(worst, abs(m.rows[0, 0] / want - 1.0))
    ok = worst <= 1e-3
    acceptance_log(
        11,
        "symbol at zero frequency is the closed-form radial mass (n=1 and n=2)",
        ok,
        f"worst |m[0,0] / mass - 1| {worst:.2e} (tol 1e-3) over {2 * len(cases)} symbols",
    )
    assert worst <= 1e-3
