"""Test-function families used by the ratio experiments.

Three deliberate probe types: dilated Gaussians (scaling behavior),
modulated Gaussians (frequency localization), and cone-adapted plates,
smoothed slabs around |x| = |t|, aimed at the light-cone singularity that
drives the sharp exponent range.  Everything is generated analytically on
the grid, so a "dilated" member is an exact resampling, not an
interpolation of a base member.  The real families (Gaussians, cone
plates, random bumps) are float64 fields; wave packets are complex128.
The spacetime Gaussian also comes held as its two factors
(separable_gaussian), the form the ratio ladders take.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, Grid, SeparableField, SpacetimeField, SpacetimeGrid

__all__ = [
    "gaussian",
    "separable_gaussian",
    "gaussian_spacetime",
    "wave_packet",
    "cone_plate",
    "random_bumps",
]


def gaussian(grid: Grid, width: float = 1.0, center: float = 0.0) -> Field:
    """exp(-pi |x - c|^2 / width^2), unit peak."""
    if not width > 0.0:
        raise ValueError(f"width must be > 0, got {width}")
    r2 = sum((a - center) ** 2 for a in np.meshgrid(
        *(grid.axis(),) * grid.n, indexing="ij", sparse=True))
    return Field(grid, np.exp(-np.pi * r2 / width**2))


def separable_gaussian(grid: SpacetimeGrid, width: float = 1.0) -> SeparableField:
    """exp(-pi (|x|^2 + t^2) / width^2), the isotropic reference input, held
    as its factors exp(-pi |x|^2 / width^2) and exp(-pi t^2 / width^2)."""
    if not width > 0.0:
        raise ValueError(f"width must be > 0, got {width}")
    space = np.exp(-np.pi * grid.space.radius() ** 2 / width**2)
    time = np.exp(-np.pi * grid.t_axis() ** 2 / width**2)
    return SeparableField(grid, space, time)


def gaussian_spacetime(grid: SpacetimeGrid, width: float = 1.0) -> SpacetimeField:
    """exp(-pi (|x|^2 + t^2) / width^2): the isotropic reference input.

    The outer product of separable_gaussian's factors, so the exponential
    runs on the two small factors, not on the full volume, and the one
    full-volume product is the field's float64 samples.
    """
    g = separable_gaussian(grid, width)
    return SpacetimeField(grid, np.multiply(g.space[..., None], g.time))


def wave_packet(grid: SpacetimeGrid, width: float = 1.0,
                k_x: float = 1.0, k_t: float = 0.0) -> SpacetimeField:
    """Gaussian envelope modulated to sit near frequency (k_x, ..., k_x, k_t)."""
    base = gaussian_spacetime(grid, width)
    x_sum = sum(np.meshgrid(*(grid.space.axis(),) * grid.space.n,
                            indexing="ij", sparse=True))
    t = grid.t_axis()
    phase = np.exp(2j * np.pi * (k_x * x_sum[..., None] + k_t * t))
    return SpacetimeField(grid, base.samples * phase)


def cone_plate(grid: SpacetimeGrid, thickness: float = 1.0,
               t_span: float = 6.0, softness: float = 0.15) -> SpacetimeField:
    """Smoothed slab around the cone |x| = |t|, cut off at |t| = t_span.

    tanh edges on both the distance to the cone and the temporal cutoff;
    softness is the edge width relative to the governing scale.  The
    temporal cutoff keeps the plate well inside the box so shifted copies
    do not wrap.
    """
    if not (thickness > 0.0 and t_span > 0.0 and softness > 0.0):
        raise ValueError("thickness, t_span, softness must all be > 0")
    r = grid.space.radius()[..., None]
    t = np.abs(grid.t_axis())
    dist = np.abs(r - t)
    across = 0.5 * (1.0 + np.tanh((thickness / 2.0 - dist) / (softness * thickness)))
    along = 0.5 * (1.0 + np.tanh((t_span - t) / (softness * t_span)))
    return SpacetimeField(grid, across * along)


def random_bumps(grid: Grid, count: int, rng,
                 width_range=(0.5, 2.0), center_range=None):
    """Nonnegative random Gaussian bumps on a one-dimensional grid, yielded
    one at a time as they are drawn.

    rng is any generator with uniform(lo, hi), a numpy Generator or a
    random.Random; each bump draws its width, center and amplitude in
    that order, when it is asked for.  Centers stay inside the middle
    half of the box by default so that potentials and norms are not
    contaminated by the periodic seam.  A grid of another dimension is
    refused here, at the call.
    """
    if grid.n != 1:
        raise ValueError("random_bumps generates one-dimensional fields")
    if center_range is None:
        center_range = (-grid.extent / 4.0, grid.extent / 4.0)
    return _bumps(grid, int(count), rng, width_range, center_range)


def _bumps(grid: Grid, count: int, rng, width_range, center_range):
    # random_bumps' draws, a bump at a time
    x = grid.axis()
    for _ in range(count):
        width = float(rng.uniform(*width_range))
        center = float(rng.uniform(*center_range))
        amp = float(rng.uniform(0.5, 2.0))
        yield Field(grid, amp * np.exp(-np.pi * (x - center) ** 2 / width**2))
