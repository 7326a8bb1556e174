"""The mpmath reference table of the Bessel accuracy test.

The points are the two sides of the series/asymptotic handover at 14,
each side dense where it is least accurate: the series near the cut,
where it cancels.  Every entry is oracles.bessel_pair_reference (J_nu and
J_nu / rho^nu from one 20-digit mpmath.besselj) rounded to float64, so the
test reads in milliseconds what mpmath takes seconds to compute.  After
changing a point or an order, rebuild the table with

    PYTHONPATH=src python tests/bessel_table.py
"""

from pathlib import Path

import numpy as np

import oracles

SERIES_SIDE = np.concatenate([np.linspace(0.012, 11.99, 1000), np.linspace(12.0, 14.0, 200)])
HANKEL_SIDE = np.geomspace(14.0, 4000.0, 801)[1:]
SIDES = {"series": SERIES_SIDE, "hankel": HANKEL_SIDE}
ACCURACY_ORDERS = (-0.45, -0.4, -0.25, -0.1, 0.0, 0.1, 0.3, 0.45, 0.7, 1.0, 1.2, 1.5)
TABLE = Path(__file__).parent / "data" / "bessel_reference.npz"


def write(path=TABLE) -> None:
    """<side>_rho holds a side's points; <side>_j and <side>_scaled hold
    one row of values per order, in the order of `orders`."""
    arrays = {"orders": np.array(ACCURACY_ORDERS)}
    for side, rho in SIDES.items():
        pairs = [oracles.bessel_pair_reference(nu, rho) for nu in ACCURACY_ORDERS]
        arrays[f"{side}_rho"] = rho
        arrays[f"{side}_j"] = np.array([j for j, _ in pairs])
        arrays[f"{side}_scaled"] = np.array([scaled for _, scaled in pairs])
    np.savez_compressed(path, **arrays)


def load(path=TABLE) -> dict:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


if __name__ == "__main__":
    write()
