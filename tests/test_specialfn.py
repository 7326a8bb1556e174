"""Bessel and Gamma helpers against arbitrary-precision references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bessel_table
import oracles
from bessel_table import ACCURACY_ORDERS, SIDES
from conewave.specialfn import (
    bessel_j,
    bessel_j_scaled,
    bessel_main_term,
    bessel_remainder,
    gamma_fn,
    reciprocal_gamma,
)

ORDERS = [-0.5, -0.4, -0.25, -0.1, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0]


def test_bessel_matches_mpmath_on_grid():
    rho = np.concatenate([np.linspace(1e-3, 13.9, 60), np.geomspace(14.1, 1e3, 60)])
    for nu in ORDERS:
        got = bessel_j(nu, rho)
        want = np.array([oracles.bessel_reference(nu, r) for r in rho])
        assert np.max(np.abs(got - want)) < 1e-8, f"order {nu}"


def test_half_order_closed_forms_are_exact():
    rho = np.geomspace(1e-2, 1e3, 300)
    minus = np.sqrt(2.0 / (np.pi * rho)) * np.cos(rho)
    plus = np.sqrt(2.0 / (np.pi * rho)) * np.sin(rho)
    assert np.max(np.abs(bessel_j(-0.5, rho) - minus)) < 1e-15
    assert np.max(np.abs(bessel_j(0.5, rho) - plus)) < 1e-15


@given(
    nu=st.floats(min_value=-0.5, max_value=4.0),
    rho=st.floats(min_value=1e-6, max_value=1e3),
)
@settings(max_examples=150, deadline=None)
def test_bessel_matches_mpmath_pointwise(nu, rho):
    assert bessel_j(nu, rho) == pytest.approx(
        oracles.bessel_reference(nu, rho), abs=1e-8, rel=1e-8
    )


def test_scaled_form_limit_and_consistency():
    for nu in ORDERS:
        assert bessel_j_scaled(nu, 0.0) == pytest.approx(
            oracles.scaled_bessel_reference(nu, 0.0), rel=1e-13
        )
    rho = np.geomspace(1e-8, 10.0, 80)
    for nu in (-0.4, 0.0, 0.7, 2.0):
        scaled = bessel_j_scaled(nu, rho)
        direct = bessel_j(nu, rho) / rho**nu
        assert np.max(np.abs(scaled - direct)) < 1e-10 * np.max(np.abs(scaled))
        # smooth through zero: the scaled value near 0 approaches the limit
        assert bessel_j_scaled(nu, 1e-9) == pytest.approx(
            bessel_j_scaled(nu, 0.0), rel=1e-12
        )


def test_main_term_is_the_leading_cosine():
    rho = np.geomspace(1.0, 1e3, 50)
    for nu in ORDERS:
        got = bessel_main_term(nu, rho)
        want = np.array([oracles.envelope_reference(nu, r) for r in rho])
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.3, -0.3])
def test_a_value_does_not_depend_on_the_batch_it_is_evaluated_in(nu):
    # the asymptotic side of the handover: arguments that converge in few
    # terms share the call with ones near the cut that need many
    rho = np.linspace(14.0, 40.0, 401)[1:]
    for fn in (bessel_j, bessel_j_scaled):
        batch = fn(nu, rho)
        assert np.array_equal(batch, [fn(nu, r) for r in rho]), fn.__name__


@pytest.fixture(scope="module")
def worst_errors():
    # worst absolute error of (bessel_j, bessel_j_scaled) over the orders,
    # against the 20-digit mpmath table of bessel_table.py
    table = bessel_table.load()
    assert np.array_equal(table["orders"], ACCURACY_ORDERS)
    worst = {}
    for side, rho in SIDES.items():
        assert np.array_equal(table[f"{side}_rho"], rho)
        ej = es = 0.0
        for nu, j, scaled in zip(ACCURACY_ORDERS, table[f"{side}_j"], table[f"{side}_scaled"]):
            ej = max(ej, float(np.max(np.abs(bessel_j(nu, rho) - j))))
            es = max(es, float(np.max(np.abs(bessel_j_scaled(nu, rho) - scaled))))
        worst[side] = (ej, es)
    return worst


@pytest.mark.parametrize("side", sorted(SIDES))
def test_the_bessel_table_is_the_mpmath_reference_at_seeded_points(side):
    # a live recheck of the table: 24 seeded (order, point) entries per side
    table, rho = bessel_table.load(), SIDES[side]
    picks = np.random.default_rng(19).choice(
        len(ACCURACY_ORDERS) * rho.size, 24, replace=False)
    for k in picks:
        i, p = divmod(int(k), rho.size)
        j, scaled = oracles.bessel_pair_reference(ACCURACY_ORDERS[i], rho[p:p + 1])
        assert table[f"{side}_j"][i, p] == j[0], (ACCURACY_ORDERS[i], rho[p])
        assert table[f"{side}_scaled"][i, p] == scaled[0], (ACCURACY_ORDERS[i], rho[p])


# The worst errors of the term-by-term evaluation that the banded Horner
# form replaced, on the same points; the series side's come from
# cancellation near the cut.  A change may cost at most half as much again.
@pytest.mark.parametrize("side, unscaled, scaled", [
    ("series", 5.29614e-12, 1.32832e-11),
    ("hankel", 1.42941e-14, 4.23502e-14),
])
def test_bessel_accuracy_against_mpmath_on_each_side_of_the_cut(worst_errors, side,
                                                                unscaled, scaled):
    ej, es = worst_errors[side]
    assert ej <= 1.5 * unscaled, ej
    assert es <= 1.5 * scaled, es


@pytest.mark.parametrize("lo, hi", [(0.0, 14.0), (14.0, 4000.0)])
def test_a_batch_equals_its_per_point_values_bit_for_bit(lo, hi):
    # every band of each side in one call, sorted and shuffled, against one
    # call per point
    rho = np.linspace(lo, hi, 301)[1:]
    rho = np.concatenate([rho, np.random.default_rng(3).permutation(rho)])
    for nu in (-0.45, 0.0, 0.7, 3.0):
        for fn in (bessel_j, bessel_j_scaled):
            batch = fn(nu, rho)
            assert np.array_equal(batch, [fn(nu, r) for r in rho]), (nu, fn.__name__)
            assert np.array_equal(fn(nu, rho.reshape(2, -1)), batch.reshape(2, -1))


def test_remainder_is_the_difference_to_machine_accuracy():
    rho = np.geomspace(1e-2, 1e3, 400)
    for nu in ORDERS:
        main = bessel_main_term(nu, rho)
        total = main + bessel_remainder(nu, rho)
        # scale by |main|: near rho = 0 the main term diverges and the
        # recombination cancels at the last floating digit of that scale
        bound = 5e-15 * (1.0 + np.abs(main))
        assert np.all(np.abs(total - bessel_j(nu, rho)) < bound)


def test_remainder_vanishes_identically_at_half_orders():
    rho = np.geomspace(1e-2, 1e3, 4096)
    for nu in (-0.5, 0.5):
        assert np.max(np.abs(bessel_remainder(nu, rho))) <= 1e-12


def test_remainder_decays_like_three_halves_power():
    # sup over a dyadic tail of |remainder| * rho^{3/2} must stay bounded
    for nu in (-0.4, 0.0, 1.0):
        sups = []
        for lo, hi in ((10, 100), (100, 1000), (1000, 10000)):
            rho = np.geomspace(lo, hi, 2000)
            sups.append(np.max(np.abs(bessel_remainder(nu, rho)) * rho**1.5))
        assert max(sups) < 10.0 * min(sups)


def test_domain_guards():
    with pytest.raises(ValueError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_j(math.nan, 1.0)
    with pytest.raises(ValueError):
        bessel_main_term(0.0, 0.0)  # main term needs rho > 0


def test_gamma_helpers():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(5.0) == 24.0
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-2.0)
    # reciprocal gamma is entire: poles of gamma become exact zeros
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("x", [-7.0, -3.0, -1.0, -0.0, 0.0, -2.5, -0.3, 1e-300, 0.075,
                               0.5, 1.0, 1.925, 5.0, 37.3, 171.5, 171.7, 200.0, 1e6])
def test_reciprocal_gamma_matches_mpmath_on_the_real_line(x):
    # poles of Gamma are exact zeros, and past Gamma's overflow at 171.62
    # the reciprocal underflows to exactly 0.0
    got = reciprocal_gamma(x)
    assert isinstance(got, float)
    want = oracles.rgamma_reference(x)
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-15)


def test_reciprocal_gamma_takes_the_real_path_on_the_real_axis():
    assert isinstance(reciprocal_gamma(np.float64(0.925)), float)
    grid = np.array([[0.5, -1.0], [2.0, 171.7]])
    got = reciprocal_gamma(grid)
    assert got.shape == grid.shape and got.dtype == np.float64
    assert np.array_equal(got, [[reciprocal_gamma(v) for v in row] for row in grid])


@given(rho=st.floats(min_value=0.1, max_value=500.0))
@settings(max_examples=80, deadline=None)
def test_recurrence_links_adjacent_orders(rho):
    # J_{nu-1} + J_{nu+1} = (2 nu / rho) J_nu, evaluated away from the cut seam
    nu = 1.0
    lhs = bessel_j(nu - 1.0, rho) + bessel_j(nu + 1.0, rho)
    rhs = 2.0 * nu / rho * bessel_j(nu, rho)
    assert lhs == pytest.approx(rhs, abs=1e-9)
