"""Command-line driver.

Five subcommands map onto the package's experiment surfaces: kernel-table
dumps the kernel's spectral and physical profiles, verify runs a named
check battery, scan-region sweeps exponent space along the scaling line,
op-apply pushes a stored field through the operator, and norm-test probes
one exponent point with a dilation ladder.

A run is a pure function of (config, seed): reports carry the full merged
configuration (defaults included, nothing hidden), floats are written in
shortest round-trip decimal, and the one nondeterministic quantity, wall
time, goes to stderr and never into a report file.  Exit codes: 0 all
checks passed, 2 a numerical check failed, 3 the configuration or usage
was invalid.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import platform
import random
import sys
import time
import warnings
from collections import deque
from functools import cache

import numpy as np

from . import __version__
from .analysis import (
    ExponentPoint,
    MixedNormSpec,
    Region,
    SteinWeissParams,
    _median,
    boundedness_verdict,
    case_bound_check,
    classify_exponents,
    crucial_estimate_ratio,
    lp_norm,
    mixed_norms_refined,
    ratio_probes,
    stein_weiss_measure,
    sw_derived_params,
)
from .conop import (
    RadialQuadrature,
    UnderResolvedWarning,
    apply_path,
    convergence_check,
    symbol,
    symbol_applier,
)
from .ensembles import gaussian, random_bumps
from .fields import FieldFormatError, Grid, SpacetimeField, SpacetimeGrid, load_field, save_field
from .kernel import KernelSpec, multiplier_split, omega_hat, omega_hat_jacobi, write_kernel_tables
from .specialfn import bessel_remainder, reciprocal_gamma


class ConfigError(ValueError):
    """Invalid run configuration; reported on stderr with exit code 3."""


# ---------------------------------------------------------------------------
# configuration: flat INI sections, defaults echoed in full


_DEFAULTS = {
    "kernel": {"alpha": "0.5", "n": "1"},
    "kernel-table": {
        "xi_max": "10.0",
        "xi_count": "201",
        "x_max": "1.25",
        "x_count": "201",
    },
    "case-bounds": {"n": "2"},
    "stein-weiss": {"bumps": "200", "depth": "12"},
    "scan-region": {
        "n": "1",
        "alpha_min": "0.2",
        "alpha_max": "0.8",
        "alpha_step": "0.2",
        "inv_p_min": "0.1",
        "inv_p_max": "0.9",
        "inv_p_step": "0.05",
        "with_ratios": "false",
        "ratio_deltas": "0.5 1.0 2.0",
        "ratio_points": "256",
        "ratio_extent": "32.0",
    },
    "op-apply": {
        "input": "",
        "path": "multiplier",
        "cross_check": "auto",
        "cross_tol": "auto",
        "convergence_tol": "1e-3",
        "r_min": "auto",
        "r_max": "auto",
        "count": "160",
    },
    "norm-test": {
        "alpha": "0.4",
        "n": "1",
        "inv_p": "0.7",
        "inv_q": "auto",
        "deltas": "0.25 0.5 1.0 2.0 4.0",
        "path": "multiplier",
        "points": "1024",
        "extent": "64.0",
        "t_points": "1024",
        "t_extent": "64.0",
    },
}


def load_config(path=None) -> dict:
    """Merge a key/value file over the defaults.

    Unknown sections or keys are rejected outright; a typo that silently
    falls back to a default would poison the full-echo guarantee.
    """
    cfg = {sec: dict(keys) for sec, keys in _DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")
    for sec in parser.sections():
        if sec not in cfg:
            raise ConfigError(f"unknown config section [{sec}]; known: {sorted(cfg)}")
        for key, val in parser.items(sec):
            if key not in cfg[sec]:
                raise ConfigError(
                    f"unknown key {key!r} in [{sec}]; known: {sorted(cfg[sec])}"
                )
            cfg[sec][key] = val.strip()
    return cfg


def _to_float(cfg, sec, key) -> float:
    raw = cfg[sec][key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key} must be a number, got {raw!r}")


def _tolerance(cfg, sec, key) -> float:
    # a gate or advisory tolerance: finite and > 0, since nan fails every
    # comparison (and is no JSON number), inf passes every one, and a
    # tolerance <= 0 fails every nonzero difference
    value = _to_float(cfg, sec, key)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"[{sec}] {key} must be finite and > 0, got {cfg[sec][key]!r}")
    return value


def _to_int(cfg, sec, key) -> int:
    raw = cfg[sec][key]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key} must be an integer, got {raw!r}")


def _to_bool(cfg, sec, key) -> bool:
    raw = cfg[sec][key].lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{sec}] {key} must be a boolean, got {cfg[sec][key]!r}")


def _to_floats(cfg, sec, key) -> list:
    raw = cfg[sec][key].split()
    if not raw:
        raise ConfigError(f"[{sec}] {key} must list at least one number")
    try:
        return [float(tok) for tok in raw]
    except ValueError:
        raise ConfigError(f"[{sec}] {key} must be numbers, got {cfg[sec][key]!r}")


def _widths(cfg, sec, key) -> list:
    # a ratio ladder's widths: at least two, positive, none repeated (a
    # repeat leaves too few distinct scales to fit a trend to), and finite
    # with a finite square, which the Gaussian members divide by
    deltas = _to_floats(cfg, sec, key)
    if len(deltas) < 2 or not all(d > 0 for d in deltas):
        raise ConfigError(f"[{sec}] {key} needs at least two positive widths")
    if not all(math.isfinite(d * d) for d in deltas):
        raise ConfigError(f"[{sec}] {key} needs finite widths whose squares are finite, "
                          f"got {cfg[sec][key]!r}")
    if len(set(deltas)) < len(deltas):
        raise ConfigError(f"[{sec}] {key} repeats a width: {cfg[sec][key]!r}")
    return deltas


def _kernel_from(cfg) -> KernelSpec:
    try:
        return KernelSpec(_to_float(cfg, "kernel", "alpha"), _to_int(cfg, "kernel", "n"))
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# report plumbing


def _rec(name, value=None, threshold=None, passed=True, provenance="", note=""):
    """One check record: a measured value against its gate, with the grid
    and quadrature it came from."""
    return {
        "name": str(name),
        "value": None if value is None else float(value),
        "threshold": None if threshold is None else float(threshold),
        "passed": bool(passed),
        "provenance": str(provenance),
        "note": str(note),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def write_report(path, payload) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_records_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "value", "threshold", "passed", "provenance", "note"])
        for r in records:
            w.writerow(
                [
                    r["name"],
                    "" if r["value"] is None else repr(float(r["value"])),
                    "" if r["threshold"] is None else repr(float(r["threshold"])),
                    "true" if r["passed"] else "false",
                    r["provenance"],
                    r["note"],
                ]
            )


@cache
def _scipy_version():
    # the installed distribution's version, without importing scipy (the
    # library does not use it); None when it is not installed
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "conewave": __version__,
    }


def _report(command, cfg, seed, records, **extra) -> dict:
    # no jobs field: the pool size is execution plumbing, and reports must
    # stay byte-identical for a fixed (config, seed) whatever the pool
    payload = {
        "command": command,
        "config": cfg,
        "seed": int(seed),
        "records": records,
        "passed": all(r["passed"] for r in records),
        "versions": _versions(),
    }
    payload.update(extra)
    return payload


def _grid_prov(stg: SpacetimeGrid) -> str:
    return (
        f"grid n={stg.space.n} N={stg.space.points} L={stg.space.extent:g} "
        f"Nt={stg.t_points} Lt={stg.t_extent:g}"
    )


def _quad_prov(quad: RadialQuadrature) -> str:
    return f"radial nodes {quad.count} on [{quad.r_min:.6g}, {quad.r_max:.6g}] with completion"


def _default_window(stg: SpacetimeGrid, setting: str, name: str,
                    count: int = 160) -> RadialQuadrature:
    # RadialQuadrature.for_grid, whose cap r_max = extent / 4 must exceed
    # 1; a short extent is refused naming the setting it comes from
    r_max = stg.t_extent / 4.0
    if not r_max > 1.0:
        raise ConfigError(f"{setting} = {stg.t_extent:g} leaves no radial window: "
                          f"r_max = {name} / 4 = {r_max:g} must exceed 1")
    try:
        return RadialQuadrature.for_grid(stg, count)
    except ValueError as exc:
        raise ConfigError(str(exc))


# the most cells a ratio probe's spacetime grid may have (4096^2 or 256^3):
# a member's spectrum alone is 8 bytes a cell, so a larger grid is refused
# before any symbol or member is built
_MAX_PROBE_CELLS = 2**24


def _probe_grid(cfg, sec: str, n: int, points: str, extent: str,
                t_points: str, t_extent: str) -> tuple:
    # a ratio probe's spacetime grid from the section's keys, and the
    # default radial window on it.  The radii square the half-extents and
    # the norms scale by the cell volume, so a half-extent whose square
    # overflows, or a box whose volume does, is refused before any work
    try:
        stg = SpacetimeGrid(Grid(n, _to_int(cfg, sec, points), _to_float(cfg, sec, extent)),
                            _to_int(cfg, sec, t_points), _to_float(cfg, sec, t_extent))
    except ValueError as exc:
        raise ConfigError(str(exc))
    for key, length in ((extent, stg.space.extent), (t_extent, stg.t_extent)):
        if not math.isfinite(length / 2.0 * (length / 2.0)):
            raise ConfigError(f"[{sec}] {key} = {length:g} is too large: "
                              f"the square of its half overflows")
    if not math.isfinite(math.prod((stg.space.extent,) * n + (stg.t_extent,))):
        raise ConfigError(f"[{sec}] box volume {extent}^{n} * {t_extent} = "
                          f"{stg.space.extent:g}^{n} * {stg.t_extent:g} overflows")
    cells = math.prod(stg.shape)
    if cells > _MAX_PROBE_CELLS:
        raise ConfigError(f"[{sec}] grid {' x '.join(map(str, stg.shape))} = {cells} cells "
                          f"exceeds the cap of {_MAX_PROBE_CELLS}")
    return stg, _default_window(stg, f"[{sec}] {t_extent}", t_extent)


def _pool_map(fn, items, jobs):
    # ordered collection keeps reports byte-identical whatever the pool size;
    # the oldest result is collected before another item is drawn, so at
    # most `jobs` items are in flight and a streamed input is never held whole
    if jobs <= 1:
        return [fn(it) for it in items]
    # imported here, so a one-worker run loads no concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    results = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        for it in items:
            pending.append(pool.submit(fn, it))
            if len(pending) == jobs:
                results.append(pending.popleft().result())
        results.extend(fut.result() for fut in pending)
    return results


# ---------------------------------------------------------------------------
# verify batteries


def battery_bessel() -> list:
    """Oscillatory-remainder battery.

    Two families of checks: the half-integer orders where the remainder
    vanishes identically, and the envelope sup |remainder| rho^{3/2} over
    a long tail window, which must be finite and stable under grid
    refinement for the two-term reduction to carry any content.
    """
    records = []
    rho = np.exp(np.linspace(np.log(1e-2), np.log(1e3), 4096))
    for nu in (-0.5, 0.5):
        worst = float(np.max(np.abs(bessel_remainder(nu, rho))))
        records.append(
            _rec(
                f"remainder vanishes at order {nu:g}",
                worst,
                1e-12,
                worst <= 1e-12,
                "log grid rho in [1e-2, 1e3], 4096 points",
                "closed trigonometric form leaves no remainder",
            )
        )
    for nu in (-0.4, -0.1, 0.0, 0.5, 1.0):
        sups = []
        for m in (4096, 16384):
            rr = np.exp(np.linspace(0.0, np.log(1e3), m))[1:]
            sups.append(float(np.max(np.abs(bessel_remainder(nu, rr)) * rr**1.5)))
        drift = abs(sups[1]) if sups[0] == 0.0 else abs(sups[1] - sups[0]) / sups[0]
        records.append(
            _rec(
                f"tail envelope at order {nu:g}",
                sups[1],
                0.01,
                drift <= 0.01,
                "sup |remainder| rho^{3/2} on (1, 1e3], 16384 vs 4096 log points",
                f"refinement drift {drift:.3e}",
            )
        )
        small = np.exp(np.linspace(np.log(1e-3), 0.0, 2048))
        head = float(np.max(np.abs(bessel_remainder(nu, small)) * np.sqrt(small)))
        records.append(
            _rec(
                f"head envelope at order {nu:g}",
                head,
                None,
                bool(np.isfinite(head)),
                "sup |remainder| rho^{1/2} on [1e-3, 1], 2048 log points",
                "finiteness only; the main term alone carries the rho^{-1/2} blowup",
            )
        )
    return records


def battery_ft_identity() -> list:
    """Physical-vs-spectral agreement of the kernel profile.

    The Gauss-Jacobi quadrature of the density (projected onto a line for
    n > 1) shares no arithmetic with the Bessel-series profile it judges.
    """
    records = []
    xis = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    for alpha, n in ((0.3, 1), (0.5, 1), (0.6, 1), (0.8, 1), (0.5, 2), (1.0, 2)):
        spec = KernelSpec(alpha, n)
        worst = float(np.max(np.abs(omega_hat_jacobi(xis, spec) - omega_hat(xis, spec))))
        records.append(
            _rec(
                f"transform identity alpha={alpha:g} n={n}",
                worst,
                1e-6,
                worst <= 1e-6,
                f"n={n}; Gauss-Jacobi quadrature of the density vs the "
                "spectral profile; xi in {0, 0.5, 1, 2, 5, 10}",
            )
        )
    for alpha, n in ((0.5, 1), (0.5, 2), (1.0, 2), (1.5, 3)):
        spec = KernelSpec(alpha, n)
        nu = spec.bessel_order
        want = float(np.pi**nu * reciprocal_gamma(nu + 1.0))
        got = omega_hat(0.0, spec)
        diff = abs(got - want)
        records.append(
            _rec(
                f"zero-frequency mass alpha={alpha:g} n={n}",
                got,
                1e-13,
                diff <= 1e-13,
                "closed-form total mass",
                f"expected {want!r}",
            )
        )
    return records


def battery_case_bounds(n: int = 2) -> list:
    """Symbol-product bound against the separation envelope.

    Fits the best constant over a wide log grid of frequencies and radius
    pairs, then refuses to trust it unless the fit is stable under a 4x
    denser grid, attained away from the grid edges, and fed by samples in
    every frequency regime.
    """
    records = []
    n = int(n)
    if n == 1:
        records.append(
            _rec(
                "separation exponent note",
                0.0,
                None,
                True,
                "n=1",
                "the separation factor carries exponent (n-1)/n * alpha = 0 "
                "in one dimension, so the bound reduces to a plain "
                "|xi|^{-2 alpha} comparison with no blowup as r -> s",
            )
        )
        spec = KernelSpec(0.4, 1)
        xi = np.exp(np.linspace(np.log(1e-4), np.log(1e3), 2500))
        rep = case_bound_check(spec, [(x, 2.0, 1.0) for x in xi])
        records.append(
            _rec(
                "fitted constant alpha=0.4 r=2 s=1",
                rep.fitted_c,
                None,
                bool(np.isfinite(rep.fitted_c)) and not rep.max_at_edge,
                "n=1; 2500 log-spaced xi in [1e-4, 1e3]",
                "maximum attained away from the grid edges",
            )
        )
        return records

    for alpha in (0.3, 0.5, 2.0 / 3.0):
        spec = KernelSpec(alpha, n)
        for r, s in ((2.0, 1.0), (4.0, 1.0), (1.5, 1.0)):
            fits = []
            rep = None
            for m in (2500, 10000):
                xi = np.exp(np.linspace(np.log(1e-4), np.log(1e3), m))
                rep = case_bound_check(spec, [(x, r, s) for x in xi])
                fits.append(rep.fitted_c)
            drift = abs(fits[1] - fits[0]) / fits[0]
            counts = tuple(rep.cases[k].count for k in sorted(rep.cases))
            ok = drift <= 0.05 and not rep.max_at_edge and all(c > 0 for c in counts)
            records.append(
                _rec(
                    f"case bound alpha={alpha:.4g} r={r:g} s={s:g}",
                    rep.fitted_c,
                    0.05,
                    ok,
                    f"n={n}; log xi grid [1e-4, 1e3], 10000 vs 2500 points; "
                    f"regime splits at {rep.split_lo:.6g} and {rep.split_hi:.6g}",
                    f"refinement drift {drift:.3e}; regime sample counts {counts}",
                )
            )
    return records


_SW_PREFIXES = (
    "gamma_w < N/q",
    "delta_w < N(p-1)/p",
    "gamma_w + delta_w >= 0",
    "a/N = 1/p - 1/q",
)

# label, constructor kwargs, expected failure prefixes ("reject" = the
# constructor itself must refuse the set)
_SW_TRUTH_TABLE = (
    ("hls fractional integration", dict(N=1, a=0.5, gamma_w=0.0, delta_w=0.0, p=4 / 3, q=4.0), ()),
    ("derived n=2 alpha=0.3", dict(N=1, a=0.85, gamma_w=0.275, delta_w=0.275, p=20 / 13, q=20 / 7), ()),
    ("derived n=2 alpha=0.4", dict(N=1, a=0.8, gamma_w=0.2, delta_w=0.2, p=10 / 7, q=10 / 3), ()),
    ("derived n=2 alpha=0.5", dict(N=1, a=0.75, gamma_w=0.125, delta_w=0.125, p=4 / 3, q=4.0), ()),
    ("derived n=3 alpha=0.6", dict(N=1, a=0.6, gamma_w=0.1, delta_w=0.1, p=10 / 7, q=10 / 3), ()),
    ("generic balanced", dict(N=1, a=0.3, gamma_w=0.1, delta_w=0.1, p=2.0, q=2.5), ()),
    ("one-sided weight", dict(N=1, a=0.4, gamma_w=0.0, delta_w=0.2, p=5 / 3, q=2.5), ()),
    ("asymmetric signs", dict(N=1, a=0.55, gamma_w=0.25, delta_w=-0.1, p=10 / 7, q=10 / 3), ()),
    ("tiny outer weight", dict(N=1, a=0.501, gamma_w=0.001, delta_w=0.0, p=4 / 3, q=4.0), ()),
    ("outer weight at the edge", dict(N=1, a=0.9, gamma_w=0.3, delta_w=0.2, p=10 / 7, q=10 / 3), ("gamma_w < N/q",)),
    ("outer weight above the edge", dict(N=1, a=0.95, gamma_w=0.35, delta_w=0.2, p=10 / 7, q=10 / 3), ("gamma_w < N/q",)),
    ("inner weight at the edge", dict(N=1, a=0.8, gamma_w=0.1, delta_w=0.3, p=10 / 7, q=10 / 3), ("delta_w < N(p-1)/p",)),
    ("inner weight above the edge", dict(N=1, a=0.8, gamma_w=0.05, delta_w=0.35, p=10 / 7, q=10 / 3), ("delta_w < N(p-1)/p",)),
    ("negative joint weight", dict(N=1, a=0.2, gamma_w=-0.3, delta_w=0.2, p=2.0, q=5.0), ("gamma_w + delta_w >= 0",)),
    ("broken scaling", dict(N=1, a=0.35, gamma_w=0.1, delta_w=0.1, p=2.0, q=2.5), ("a/N = 1/p - 1/q",)),
    ("two failures at once", dict(N=1, a=0.8, gamma_w=0.45, delta_w=0.1, p=10 / 7, q=10 / 3), ("a/N = 1/p - 1/q", "gamma_w < N/q")),
    ("kernel power at dimension", dict(N=1, a=1.0, gamma_w=0.0, delta_w=0.0, p=4 / 3, q=4.0), "reject"),
    ("kernel power nonpositive", dict(N=1, a=0.0, gamma_w=0.0, delta_w=0.0, p=4 / 3, q=4.0), "reject"),
    ("order not above one", dict(N=1, a=0.5, gamma_w=0.0, delta_w=0.0, p=1.0, q=4.0), "reject"),
)


def _bump_stream(grid: Grid, count: int, rng, **ranges):
    # the draws of random_bumps(grid, count, rng, **ranges), one field at a time
    for _ in range(count):
        yield random_bumps(grid, 1, rng, **ranges)[0]


def battery_stein_weiss(seed: int = 0, jobs: int = 1, bumps: int = 200, depth: int = 12) -> list:
    """Weighted-inequality battery: validator truth table, measured
    constants on a bump ensemble, and growth ladders that separate an
    admissible set from a just-inadmissible one."""
    records = []
    for label, kwargs, expected in _SW_TRUTH_TABLE:
        if expected == "reject":
            try:
                SteinWeissParams(**kwargs)
                ok, note = False, "constructor accepted an out-of-domain set"
            except ValueError as exc:
                ok, note = True, f"rejected at construction: {exc}"
            records.append(
                _rec(f"validator {label}", None, None, ok, "constructor domain check", note)
            )
            continue
        params = SteinWeissParams(**kwargs)
        fails = params.constraint_failures()
        got = tuple(
            sorted(p for p in _SW_PREFIXES if any(f.startswith(p) for f in fails))
        )
        ok = got == tuple(sorted(expected)) and len(fails) == len(got)
        records.append(
            _rec(
                f"validator {label}",
                None,
                None,
                ok,
                "admissibility conditions",
                "; ".join(fails) if fails else "admissible",
            )
        )

    # the derived one-dimensional reduction is degenerate: the outer
    # weight lands exactly on N/q and the kernel power on N
    try:
        sw_derived_params(0.4, 1)
        records.append(
            _rec("validator derived n=1 degenerate", None, None, False,
                 "derived reduction", "degenerate set was accepted")
        )
    except ValueError as exc:
        records.append(
            _rec("validator derived n=1 degenerate", None, None, True,
                 "derived reduction", f"rejected: {exc}")
        )

    # surface the kernel-power sign question: only a = 2(alpha/n + gamma_w)
    # satisfies the scaling identity; the opposite-sign variant does not
    p2 = sw_derived_params(0.5, 2)
    variant = 2.0 * (0.5 / 2.0 - p2.gamma_w)
    alt = SteinWeissParams(N=1, a=variant, gamma_w=p2.gamma_w,
                           delta_w=p2.delta_w, p=p2.p, q=p2.q)
    alt_fails = alt.constraint_failures()
    records.append(
        _rec(
            "derived kernel power sign",
            p2.a,
            None,
            bool(p2.admissible()) and bool(alt_fails),
            "derived reduction at alpha=0.5, n=2",
            f"a = 2(alpha/n + gamma_w) = {p2.a:g} is admissible; the "
            f"opposite-sign variant a = {variant:g} fails: {'; '.join(alt_fails)}",
        )
    )

    grid = Grid.default(1)
    prov = f"grid n=1 N={grid.points} L={grid.extent:g}; dyadic depth {depth}"

    hls = SteinWeissParams(N=1, a=0.5, gamma_w=0.0, delta_w=0.0, p=4 / 3, q=4.0)
    inad = SteinWeissParams(N=1, a=0.95, gamma_w=0.35, delta_w=0.2, p=10 / 7, q=10 / 3)
    adm = sw_derived_params(0.4, 2)
    predicted = inad.gamma_w - inad.N / inad.q
    # ladders of origin bumps: widths at a fixed truncation floor; a
    # concentrating bump with the panel floor refined with it (floor ~
    # width^2), the honest protocol for a concentrating probe; and one bump
    # at growing depths
    widths = (1.0, 2.0, 4.0, 8.0)
    conc = (4.0, 2.0, 1.0, 0.5, 0.25)
    conc_depths = tuple(int(round(depth + 2 - 2 * math.log2(w))) for w in conc)
    depths = (8, 10, 12, 14)
    probes = ({(w, depth) for w in widths} | set(zip(conc, conc_depths))
              | {(2.0, d) for d in depths})

    # the dyadic panels refine toward the origin, so keep the bumps wide
    # and central enough to be resolved; a narrow bump far out measures
    # panel coarseness, not the inequality
    draws = _bump_stream(grid, int(bumps), random.Random(seed),
                         width_range=(0.75, 2.0), center_range=(-8.0, 8.0))
    arr = np.ravel(_pool_map(stein_weiss_measure([hls], grid, depth), draws, jobs))
    med = _median(arr)
    records.append(
        _rec(
            "hls constant stability",
            float(arr.max()),
            10.0 * med,
            float(arr.max()) < 10.0 * med,
            f"{int(bumps)} seeded random bumps; {prov}",
            f"median {med:.6g}; the max/median gap stays well under the "
            "x10 gate for a bounded inequality",
        )
    )

    # one measurer of the two ladder sets per depth, dropped before the
    # next is built so that one depth's rows are held at a time; a (width,
    # depth) probe shared by two ladders is measured once.  Only inad may
    # be inadmissible: adm is refused if it ever is
    measured = {}
    for d in sorted({d for _, d in probes}):
        measure = stein_weiss_measure((inad, adm), grid, d, allow_inadmissible=(inad,))
        for w in sorted(w for w, pd in probes if pd == d):
            measured[inad, w, d], measured[adm, w, d] = measure(gaussian(grid, w))
        del measure

    lad_in = [measured[inad, w, depth] for w in widths]
    lad_ad = [measured[adm, w, depth] for w in widths]
    tv_in = boundedness_verdict(widths, lad_in)
    records.append(
        _rec(
            "inadmissible width ladder",
            tv_in.fitted_exponent,
            0.02,
            tv_in.monotone and tv_in.fitted_exponent > 0.02,
            f"origin bumps of widths {widths}, fixed truncation floor; {prov}",
            f"outer weight past N/q by {predicted:g}; at a fixed floor the "
            f"measured constants grow like width^{predicted:g}",
        )
    )
    spread = max(lad_ad) / min(lad_ad) - 1.0
    records.append(
        _rec(
            "admissible flat ladder",
            spread,
            0.10,
            spread <= 0.10,
            f"origin bumps of widths {widths}, fixed truncation floor; {prov}",
            "same ladder under the derived admissible set stays flat",
        )
    )

    # the truncated divergence at the weight singularity climbs
    # monotonically under concentration while the admissible twin converges
    conc_in = [measured[inad, w, d] for w, d in zip(conc, conc_depths)]
    conc_ad = [measured[adm, w, d] for w, d in zip(conc, conc_depths)]
    tv_conc = boundedness_verdict([1.0 / w for w in conc], conc_in)
    records.append(
        _rec(
            "inadmissible concentration growth",
            tv_conc.fitted_exponent,
            0.03,
            tv_conc.monotone and tv_conc.fitted_exponent > 0.03,
            f"origin bumps of widths {conc}, floor refined with the bump; {prov}",
            f"monotone growth under bump concentration at rate close to the "
            f"violation margin {predicted:g} per halving",
        )
    )
    conc_spread = max(conc_ad) / min(conc_ad) - 1.0
    records.append(
        _rec(
            "admissible concentration stability",
            conc_spread,
            0.10,
            conc_spread <= 0.10,
            f"origin bumps of widths {conc}, floor refined with the bump; {prov}",
            "the same concentrating protocol leaves the admissible constant flat",
        )
    )

    sweep_in = [measured[inad, 2.0, d] for d in depths]
    sweep_ad = [measured[adm, 2.0, d] for d in depths]
    grows = all(b > a for a, b in zip(sweep_in, sweep_in[1:]))
    steps = [abs(b - a) / a for a, b in zip(sweep_ad, sweep_ad[1:])]
    records.append(
        _rec(
            "inadmissible depth divergence",
            sweep_in[-1] / sweep_in[0],
            None,
            grows,
            f"refinement depths {depths}; width-2 origin bump; grid n=1 "
            f"N={grid.points} L={grid.extent:g}",
            "the measured constant keeps climbing as the quadrature "
            "resolves more of the singularity: no inequality to converge to",
        )
    )
    records.append(
        _rec(
            "admissible depth convergence",
            max(steps),
            0.02,
            max(steps) <= 0.02,
            f"refinement depths {depths}; width-2 origin bump; grid n=1 "
            f"N={grid.points} L={grid.extent:g}",
            "successive relative steps shrink under the admissible set",
        )
    )
    return records


def battery_crucial() -> list:
    """Composition-estimate battery on the two-kernel symbol product."""
    records = []
    spec = KernelSpec(0.4, 1)
    g1 = Grid.default(1)
    f1 = gaussian(g1, 1.0)
    base = crucial_estimate_ratio(spec, 10.0, 2.0, 1.0, f1)

    g_fine = Grid(1, 2 * g1.points, g1.extent)
    fine = crucial_estimate_ratio(spec, 10.0, 2.0, 1.0, gaussian(g_fine, 1.0))
    drift = abs(fine - base) / base
    records.append(
        _rec(
            "composition ratio alpha=0.4 r=2 s=1",
            fine,
            0.05,
            bool(np.isfinite(fine)) and drift <= 0.05,
            f"q=10; grid n=1 N={g_fine.points} vs N={g1.points}, L={g1.extent:g}",
            f"grid refinement drift {drift:.3e}",
        )
    )

    swap = crucial_estimate_ratio(spec, 10.0, 1.0, 2.0, f1)
    sym = abs(swap - base) / base
    records.append(
        _rec(
            "radius exchange symmetry",
            sym,
            1e-12,
            sym <= 1e-12,
            f"q=10; grid n=1 N={g1.points} L={g1.extent:g}",
            "the distinguished symbol is real, so swapping the radii "
            "cannot move the ratio",
        )
    )

    scaled = crucial_estimate_ratio(spec, 10.0, 4.0, 2.0, gaussian(g1, 2.0))
    inv = abs(scaled - base) / base
    records.append(
        _rec(
            "joint dilation invariance",
            inv,
            1e-12,
            inv <= 1e-12,
            f"q=10; grid n=1 N={g1.points} L={g1.extent:g}",
            "(r, s, f) -> (2r, 2s, f(./2)) leaves the envelope-normalized "
            "ratio fixed",
        )
    )

    try:
        crucial_estimate_ratio(KernelSpec(0.5, 2), 10.0, 1.0, 1.0, gaussian(Grid(2, 64, 16.0), 1.0))
        records.append(
            _rec("equal radii refusal above n=1", None, None, False,
                 "n=2 envelope", "degenerate call was accepted")
        )
    except ValueError as exc:
        records.append(
            _rec("equal radii refusal above n=1", None, None, True,
                 "n=2 envelope", f"rejected: {exc}")
        )
    return records


def battery_mixed_norm() -> list:
    """Radial mixed-norm battery: width invariance and grid convergence."""
    records = []
    g = Grid.default(1)
    spec = KernelSpec(0.4, 1)
    quad = RadialQuadrature(g.spacing / 4.0, 16.0, 160)
    mn = MixedNormSpec(10.0, 10.0, 0.4, quad)
    prov = f"grid n=1 N={g.points} L={g.extent:g}; {_quad_prov(quad)}"

    # one evaluation of the profile serves every width; the refinement
    # doubles the node density of the same rule, so every second node is a
    # base node, and only the width-1 input is measured on the midpoints
    widths = (0.25, 0.5, 1.0, 2.0, 4.0)
    inputs = [gaussian(g, w) for w in widths]
    norms, m2 = mixed_norms_refined(inputs, spec, mn, widths.index(1.0))
    vals = [m / lp_norm(f, 2.0) for m, f in zip(norms, inputs)]
    spread = max(vals) / min(vals) - 1.0
    records.append(
        _rec(
            "width invariance",
            spread,
            0.10,
            spread <= 0.10,
            prov,
            "mixed norm over the input's L2 norm across bump widths "
            "0.25 to 4; both sides scale identically, so the ratio must "
            "stay flat",
        )
    )

    m1 = norms[widths.index(1.0)]
    drift = abs(m1 - m2) / m2
    records.append(
        _rec(
            "radial refinement",
            drift,
            0.02,
            drift <= 0.02,
            prov,
            f"doubling the node density to {2 * quad.count - 1} nodes, which "
            f"keeps every base node, moves the value by {drift:.3e}",
        )
    )

    try:
        MixedNormSpec(10.0, 2.0, 0.4, quad)
        records.append(
            _rec("exponent ordering refusal", None, None, False,
                 "mixed-norm domain", "s < q was accepted")
        )
    except ValueError as exc:
        records.append(
            _rec("exponent ordering refusal", None, None, True,
                 "mixed-norm domain", f"rejected: {exc}")
        )
    return records


def _case_bounds_from(cfg, seed, jobs) -> list:
    n = _to_int(cfg, "case-bounds", "n")
    if n < 1:
        raise ConfigError(f"[case-bounds] n must be a positive integer, got {n}")
    return battery_case_bounds(n)


def _stein_weiss_from(cfg, seed, jobs) -> list:
    bumps = _to_int(cfg, "stein-weiss", "bumps")
    depth = _to_int(cfg, "stein-weiss", "depth")
    if bumps < 2 or depth < 4:
        raise ConfigError("stein-weiss needs bumps >= 2 and depth >= 4")
    return battery_stein_weiss(seed=seed, jobs=jobs, bumps=bumps, depth=depth)


# suite name -> records(cfg, seed, jobs)
_SUITES = {
    "bessel": lambda cfg, seed, jobs: battery_bessel(),
    "ft-identity": lambda cfg, seed, jobs: battery_ft_identity(),
    "case-bounds": _case_bounds_from,
    "stein-weiss": _stein_weiss_from,
    "crucial": lambda cfg, seed, jobs: battery_crucial(),
    "mixed-norm": lambda cfg, seed, jobs: battery_mixed_norm(),
}


# ---------------------------------------------------------------------------
# subcommands: each returns its report payload, which main writes out as
# report.json and records.csv


def cmd_kernel_table(cfg, args) -> dict:
    spec = _kernel_from(cfg)
    xi_max = _to_float(cfg, "kernel-table", "xi_max")
    xi_count = _to_int(cfg, "kernel-table", "xi_count")
    x_max = _to_float(cfg, "kernel-table", "x_max")
    x_count = _to_int(cfg, "kernel-table", "x_count")
    if not (0 < xi_max < math.inf and 0 < x_max < math.inf) or xi_count < 2 or x_count < 2:
        raise ConfigError("kernel-table ranges must be positive and finite "
                          "with at least 2 points")

    xi = np.linspace(0.0, xi_max, xi_count)
    x = np.linspace(-x_max, x_max, x_count)
    spectral_path = os.path.join(args.out, "kernel_spectral.csv")
    physical_path = os.path.join(args.out, "kernel_physical.csv")
    try:
        counts = write_kernel_tables(spec, xi, x, spectral_path, physical_path)
    except ValueError as exc:
        raise ConfigError(str(exc))

    records = [
        _rec(
            "spectral rows",
            counts["spectral_rows"],
            None,
            counts["spectral_rows"] == xi_count,
            f"xi in [0, {xi_max:g}], {xi_count} points",
        ),
        _rec(
            "physical rows",
            counts["physical_rows"],
            None,
            True,
            f"x in [-{x_max:g}, {x_max:g}], {x_count} points",
            "header-only when the density parameter leaves its strip; "
            "the refusal is visible in the artifact",
        ),
    ]
    pos = xi[xi > 0.0]
    if pos.size:
        main, rest = multiplier_split(pos, spec)
        worst = float(np.max(np.abs(main + rest - omega_hat(pos, spec))))
        records.append(
            _rec(
                "split reassembly",
                worst,
                1e-12,
                worst <= 1e-12,
                f"{pos.size} positive frequencies",
                "main + remainder columns must re-add to the profile exactly",
            )
        )
    mass = omega_hat(0.0, spec)
    records.append(
        _rec("zero-frequency mass", mass, None, True, "closed-form total mass")
    )

    return _report("kernel-table", cfg, args.seed, records,
                   files={"spectral": spectral_path, "physical": physical_path})


def cmd_verify(cfg, args) -> dict:
    records = _SUITES[args.suite](cfg, args.seed, args.jobs)
    return _report("verify", cfg, args.seed, records, suite=args.suite)


# the most alpha x inv_p grid points one scan-region run takes; a finer
# grid is refused before any list is built
_MAX_SCAN_POINTS = 100_000


def _ladder(cfg, sec: str, key: str) -> tuple:
    # (min, step, count) of the key's ladder min, min + step, ... <= max
    lo, hi, step = (_to_float(cfg, sec, f"{key}_{end}") for end in ("min", "max", "step"))
    what = f"{key} range"
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ConfigError(f"{what}: min, max and step must be finite")
    if step <= 0 or hi < lo:
        raise ConfigError(f"{what}: need min <= max and step > 0")
    steps = (hi - lo) / step + 1e-9
    if math.isinf(steps):
        raise ConfigError(f"{what}: step {step:g} is too small to count the points "
                          f"from {lo:g} to {hi:g}")
    return lo, step, math.floor(steps) + 1


def cmd_scan_region(cfg, args) -> dict:
    sec = "scan-region"
    n = _to_int(cfg, sec, "n")
    if n < 1:
        raise ConfigError("scan-region n must be a positive integer")
    a_lo, a_step, a_count = _ladder(cfg, sec, "alpha")
    p_lo, p_step, p_count = _ladder(cfg, sec, "inv_p")
    if a_count * p_count > _MAX_SCAN_POINTS:
        raise ConfigError(f"scan-region grid of {a_count} alpha x {p_count} inv_p = "
                          f"{a_count * p_count} points exceeds the cap of {_MAX_SCAN_POINTS}")
    alphas = [a_lo + i * a_step for i in range(a_count)]
    inv_ps = [p_lo + i * p_step for i in range(p_count)]
    for a in alphas:
        if not 0.0 < a < n:
            raise ConfigError(f"scan-region alpha {a:g} leaves (0, {n})")
    for ip in inv_ps:
        if not 0.0 < ip < 1.0:
            raise ConfigError(f"scan-region inv_p {ip:g} leaves (0, 1)")
    with_ratios = _to_bool(cfg, sec, "with_ratios")

    points = []
    for alpha in alphas:
        for ip in inv_ps:
            iq = ip - alpha / n
            if not 0.0 < iq < 1.0:
                continue  # the scaling line leaves the exponent square here
            pt = ExponentPoint(ip, iq, alpha, n)
            points.append((pt, classify_exponents(pt)))

    probed = {}  # point -> (RatioStats, TrendVerdict)
    if with_ratios:
        deltas = _widths(cfg, sec, "ratio_deltas")
        stg, quad = _probe_grid(cfg, sec, n, "ratio_points", "ratio_extent",
                                "ratio_points", "ratio_extent")
        probes = {}  # alpha -> the probed points on its scaling line
        for pt, region in points:
            if region in (Region.REGION_I, Region.REGION_II):
                probes.setdefault(pt.alpha, []).append(pt)

        def ladder(alpha):
            # one symbol, and one apply per width, serve every probe at
            # this alpha
            return ratio_probes(symbol(stg, KernelSpec(alpha, n), quad), probes[alpha], deltas)

        try:
            per_alpha = _pool_map(ladder, list(probes), args.jobs)
        except ValueError as exc:
            raise ConfigError(str(exc))
        for alpha, results in zip(probes, per_alpha):
            probed.update(zip(probes[alpha], results))

    csv_path = os.path.join(args.out, "scan.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["inv_p", "inv_q", "alpha", "n", "region",
                    "ratio_max", "ratio_spread", "verdict"])
        for pt, region in points:
            stats, tv = probed.get(pt, (None, None))
            w.writerow([
                repr(float(pt.inv_p)), repr(float(pt.inv_q)),
                repr(float(pt.alpha)), str(n), region.value,
                "" if stats is None else repr(stats.maximum),
                "" if tv is None else repr(tv.spread),
                "" if tv is None else tv.verdict,
            ])

    tally = {}
    for _, region in points:
        tally[region.value] = tally.get(region.value, 0) + 1
    records = [
        _rec(f"points labeled {name}", count, None, True,
             f"n={n}; {len(alphas)} alpha values x {len(inv_ps)} inv_p values "
             "on the scaling line")
        for name, count in sorted(tally.items())
    ]
    for pt, region in points:
        if pt in probed:
            stats, tv = probed[pt]
            records.append(_rec(
                f"ratio probe alpha={pt.alpha:g} inv_p={pt.inv_p:g}",
                stats.maximum,
                None,
                tv.verdict != "fail",
                f"{region.value}; coarse dilation ladder, multiplier path",
                f"spread {tv.spread:.6g}, verdict {tv.verdict}",
            ))

    return _report("scan-region", cfg, args.seed, records,
                   files={"scan": csv_path}, points=len(points), tally=tally)


def cmd_op_apply(cfg, args) -> dict:
    sec = "op-apply"
    in_path = cfg[sec]["input"]
    if not in_path:
        raise ConfigError("op-apply needs [op-apply] input = <field file>")
    tol = _tolerance(cfg, sec, "convergence_tol")
    cross_tol = 1e-3 if cfg[sec]["cross_tol"] == "auto" else _tolerance(cfg, sec, "cross_tol")
    try:
        field = load_field(in_path)
    except FieldFormatError as exc:
        raise ConfigError(f"unreadable field file {in_path}: {exc}")
    if not np.isfinite(field.samples).all():
        # a nan or inf sample spreads over every output sample through the
        # transform, so the field is refused before any transform or write
        raise ConfigError(f"input field {in_path} has non-finite samples")

    spec = _kernel_from(cfg)
    path = cfg[sec]["path"]
    cross = cfg[sec]["cross_check"]
    if cross == "auto":
        cross = "cone-direct" if path == "multiplier" else "multiplier"
    try:
        apply_path(path)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cross != "none":
        try:
            apply_path(cross)
        except ValueError as exc:
            raise ConfigError(f"cross_check: {exc}")
        if cross == path:
            # the same route run twice agrees with itself to the last bit,
            # so the gate would pass whatever the operator did
            raise ConfigError(
                f"cross_check = {cross} is the same route as path = {path}; "
                "choose the other path, or none"
            )

    grid = field.grid
    if cfg[sec]["r_min"] == "auto" and cfg[sec]["r_max"] == "auto":
        quad = _default_window(grid, f"the time extent L_t of {in_path}", "L_t",
                               _to_int(cfg, sec, "count"))
    else:
        try:
            quad = RadialQuadrature(
                _to_float(cfg, sec, "r_min"), _to_float(cfg, sec, "r_max"),
                _to_int(cfg, sec, "count"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
        if quad.r_max > grid.t_extent / 2.0:
            # the torus cannot hold a longer cone, and the cone-direct rules
            # grow with r_max; convergence_check caps its refinement here too
            raise ConfigError(
                f"r_max = {quad.r_max:g} exceeds half the time extent, "
                f"{grid.t_extent / 2.0:g}"
            )

    # every symbol of the command goes through one applier, which
    # transforms the input once and then holds its spectrum in place of
    # the samples; only the output is transformed back.  The three
    # refinements' changes of the symbol and the cross-check's symbol are
    # measured against the output's symbol on that spectrum
    try:
        apply = symbol_applier(field)
        del field
        m = symbol(grid, spec, quad, path)
        out_field = SpacetimeField(grid, apply(m))
    except (ValueError, TypeError) as exc:
        # validity refusals from the operator layer are configuration
        # problems at this level, not numerical failures
        raise ConfigError(str(exc))

    out_path = os.path.join(args.out, "result.field")
    save_field(out_field, out_path)
    prov = f"{_grid_prov(grid)}; {_quad_prov(quad)}; path {path}"
    records = [
        _rec("output L2 norm", lp_norm(out_field, 2.0), None, True, prov),
    ]
    del out_field

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        diag = convergence_check(apply, spec, quad, m, path=path, tol=tol)
    for key, window in diag["windows"].items():
        value = diag[key]
        if value is None:
            note = ("not measured: the refined r_max is capped at half the time "
                    "extent, which leaves no room above r_max")
        else:
            note = (f"relative L2 movement of the output on the radial window "
                    f"[{window['r_min']:.6g}, {window['r_max']:.6g}], which keeps the "
                    f"{quad.count} nodes and adds {window['added_nodes']}")
            if value > tol:
                note += (f"; exceeds the {tol:g} advisory tolerance, widen or "
                         "densify the radial window if the tail matters")
        # diagnostic, not a gate: the library signals a truncation-
        # sensitive window as a warning, and the CLI keeps that severity
        records.append(_rec(f"sensitivity {key}", value, None, True, prov, note))

    if cross != "none":
        try:
            rel = apply.relative_change(symbol(grid, spec, quad, cross), m)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"cross_check path {cross!r}: {exc}")
        records.append(
            _rec(f"cross-path agreement vs {cross}", rel, cross_tol,
                 rel <= cross_tol, prov,
                 "relative L2 difference between independent evaluation routes")
        )

    return _report("op-apply", cfg, args.seed, records,
                   files={"result": out_path}, diagnostics=diag)


def cmd_norm_test(cfg, args) -> dict:
    sec = "norm-test"
    alpha = _to_float(cfg, sec, "alpha")
    n = _to_int(cfg, sec, "n")
    if n < 1:  # before inv_q = inv_p - alpha / n divides by it
        raise ConfigError(f"[{sec}] n must be a positive integer, got {n}")
    inv_p = _to_float(cfg, sec, "inv_p")
    raw_q = cfg[sec]["inv_q"]
    if raw_q == "auto":
        inv_q = inv_p - alpha / n  # the scaling-line partner of inv_p
    else:
        try:
            inv_q = float(raw_q)
        except ValueError:
            raise ConfigError(f"[{sec}] inv_q must be a number or 'auto', got {raw_q!r}")
    deltas = _widths(cfg, sec, "deltas")
    path = cfg[sec]["path"]

    try:
        spec = KernelSpec(alpha, n)
        pt = ExponentPoint(inv_p, inv_q, alpha, n)
    except ValueError as exc:
        raise ConfigError(str(exc))
    stg, quad = _probe_grid(cfg, sec, n, "points", "extent", "t_points", "t_extent")
    region = classify_exponents(pt)
    prov = f"{_grid_prov(stg)}; {_quad_prov(quad)}; path {path}"

    try:
        [(stats, tv)] = ratio_probes(symbol(stg, spec, quad, path), [pt], deltas,
                                     lambda fn, items: _pool_map(fn, items, args.jobs))
    except ValueError as exc:
        raise ConfigError(str(exc))

    records = [
        _rec(f"ratio at {label}", ratio, None, True, prov,
             "norm ratio of output to input; a lower-bound witness, "
             "never the operator norm")
        for label, ratio in zip(stats.labels, stats.ratios)
    ]
    records.append(
        _rec(
            "trend verdict",
            tv.spread,
            2.0,
            tv.verdict == "pass",
            prov,
            f"verdict {tv.verdict}; fitted exponent {tv.fitted_exponent:+.4g}; "
            f"monotone {tv.monotone}; point classified {region.value}",
        )
    )

    return _report(
        "norm-test", cfg, args.seed, records,
        region=region.value,
        ratio_stats={"max": stats.maximum, "median": stats.median, "mean": stats.mean},
        verdict={"spread": tv.spread, "fitted_exponent": tv.fitted_exponent,
                 "monotone": tv.monotone, "verdict": tv.verdict},
    )


_COMMANDS = {
    "kernel-table": cmd_kernel_table,
    "verify": cmd_verify,
    "scan-region": cmd_scan_region,
    "op-apply": cmd_op_apply,
    "norm-test": cmd_norm_test,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # numerical failures; remap to the configuration exit code
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was, so every
    # main() call in one process parses as a fresh process would
    parser = _Parser(prog="conewave", description="cone-kernel experiment driver")
    parser.add_argument("--config", metavar="PATH", help="INI-style run configuration")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker threads (default: $CONEWAVE_JOBS or 1)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="RNG seed for ensemble draws (default 0)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for report artifacts (default .)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("kernel-table", help="dump spectral and physical kernel profiles")
    pv = sub.add_parser("verify", help="run a named check battery")
    pv.add_argument("suite", choices=_SUITES)
    sub.add_parser("scan-region", help="classify exponent points along the scaling line")
    sub.add_parser("op-apply", help="apply the operator to a stored field")
    sub.add_parser("norm-test", help="probe one exponent point with a dilation ladder")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()

    jobs = args.jobs
    if jobs is None:
        raw = os.environ.get("CONEWAVE_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            print(f"conewave: config error: CONEWAVE_JOBS must be an integer, got {raw!r}",
                  file=sys.stderr)
            return 3
    if jobs < 1:
        print("conewave: config error: --jobs must be >= 1", file=sys.stderr)
        return 3
    if args.seed < 0:
        # random.Random seeds on |seed|, so -S would draw the ensemble of S
        print("conewave: config error: --seed must be >= 0", file=sys.stderr)
        return 3
    args.jobs = jobs

    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {args.out}: {exc}")
        report = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"conewave: config error: {exc}", file=sys.stderr)
        return 3
    write_report(os.path.join(args.out, "report.json"), report)
    write_records_csv(os.path.join(args.out, "records.csv"), report["records"])
    code = 0 if report["passed"] else 2

    # wall time is the one nondeterministic output; it stays on stderr so
    # the report files remain byte-identical across reruns
    print(f"conewave {args.command}: exit {code}, {time.monotonic() - started:.2f}s, "
          f"{jobs} worker(s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
