"""Test-function families: exact values of the reference inputs."""

import random

import numpy as np
import pytest

import conewave.ensembles as ens
from conewave import Grid, SpacetimeGrid


@pytest.mark.parametrize("width", [0.5, 1.3, 4.0])
@pytest.mark.parametrize("grid", [
    SpacetimeGrid(Grid(1, 64, 16.0), 128, 32.0),
    SpacetimeGrid(Grid(2, 32, 16.0), 16, 8.0),
], ids=["n1", "n2"])
def test_gaussian_spacetime_is_the_separable_formula(grid, width):
    # the outer product of the spatial and temporal factors: unit peak
    # exactly at the origin sample, and the direct formula to rounding
    f = ens.gaussian_spacetime(grid, width)
    origin = (grid.space.points // 2,) * grid.space.n + (grid.t_points // 2,)
    assert f.samples[origin] == 1.0
    assert np.max(np.abs(f.samples)) == 1.0
    r2 = grid.space.radius() ** 2
    direct = np.exp(-np.pi * (r2[..., None] + grid.t_axis() ** 2) / width**2)
    assert np.max(np.abs(f.samples - direct)) <= 1e-15
    assert np.all(f.samples.imag == 0.0)


def test_real_families_are_float64_and_modulated_ones_complex128():
    sg = SpacetimeGrid(Grid(1, 32, 16.0), 32, 16.0)
    g = Grid(1, 64, 16.0)
    real = [ens.gaussian(g, 1.0), ens.gaussian(Grid(2, 16, 8.0), 1.0),
            ens.gaussian_spacetime(sg, 1.0), ens.cone_plate(sg, 1.0),
            *ens.random_bumps(g, 2, np.random.default_rng(0))]
    for f in real:
        assert f.samples.dtype == np.float64
    assert ens.wave_packet(sg, 1.0, k_x=0.5).samples.dtype == np.complex128
    assert ens.wave_packet(sg, 1.0, k_x=0.0, k_t=0.5).samples.dtype == np.complex128


@pytest.mark.parametrize("make", [random.Random, np.random.default_rng],
                         ids=["random.Random", "numpy"])
def test_random_bumps_take_any_uniform_generator(make):
    # each bump draws its width, center and amplitude, in that order, from
    # the generator's uniform(lo, hi); the samples are the bump formula
    g = Grid(1, 256, 32.0)
    ranges = dict(width_range=(0.75, 2.0), center_range=(-8.0, 8.0))
    bumps = ens.random_bumps(g, 5, make(4), **ranges)
    rng, x = make(4), g.axis()
    for f in bumps:
        width = float(rng.uniform(0.75, 2.0))
        center = float(rng.uniform(-8.0, 8.0))
        amp = float(rng.uniform(0.5, 2.0))
        assert np.array_equal(f.samples, amp * np.exp(-np.pi * (x - center) ** 2 / width**2))
