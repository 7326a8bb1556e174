"""The mpmath reference table of the off-cone symbol test.

The cells lie on the scan-region ratio grid (n = 1, 256 points over
extent 32 in x and in t, so frequencies are multiples of 1/32), off the
cone |xi| = |tau| and inside |xi| + |tau| < 0.5, where the default radial
rule is nearly resolved.  Each entry is
oracles.truncated_radial_integral_reference at the cell's frequencies
for the window (0, R_MAX) of RadialQuadrature.for_grid on that grid,
rounded to float64, so the test reads in milliseconds what mpmath takes
seconds per alpha to compute.  The table stores its grid, window, orders,
cells, digits and panels, which the test checks against what it asks
for.  After changing any of them, rebuild the table with

    PYTHONPATH=src python tests/offcone_table.py
"""

from pathlib import Path

import numpy as np

import oracles

POINTS, EXTENT = 256, 32.0
R_MAX = EXTENT / 4.0
ALPHAS = (0.2, 0.4, 0.6)
# (xi index, tau index): spacelike and timelike, across the band
CELLS = ((3, 0), (0, 5), (8, 2), (2, 9), (12, 1), (1, 13), (6, 9))
DPS, PANELS = 30, 32
TABLE = Path(__file__).parent / "data" / "offcone_reference.npz"


def write(path=TABLE) -> None:
    """values holds one row per order, in the order of alphas, and one
    column per cell; xi and tau are the cells' frequencies."""
    cells = np.array(CELLS)
    xi, tau = cells[:, 0] / EXTENT, cells[:, 1] / EXTENT
    values = [[oracles.truncated_radial_integral_reference(alpha, 1, x, t, R_MAX, DPS, PANELS)
               for x, t in zip(xi, tau)] for alpha in ALPHAS]
    np.savez_compressed(path, points=POINTS, extent=EXTENT, r_max=R_MAX,
                        alphas=np.array(ALPHAS), cells=cells, xi=xi, tau=tau,
                        values=np.array(values), dps=DPS, panels=PANELS)


def load(path=TABLE) -> dict:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


if __name__ == "__main__":
    write()
