"""Command-line interface: exit codes, artifacts, determinism."""

import configparser
import csv
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import conewave as cw
import conewave.analysis as analysis
import conewave.cli as cli
import conewave.ensembles as ens
import conewave.fields as fields
from conewave.analysis import lp_norm
from conewave.cli import _pool_map, main


def run(tmp_path, *args, config=None, name="run"):
    out = tmp_path / name
    argv = ["--out", str(out)]
    if config is not None:
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    argv += list(args)
    return main(argv), out


def run_at_jobs(tmp_path, monkeypatch, jobs, *args, config):
    # the same relative --out from a directory per pool size, so reports
    # that echo their artifact paths can be compared byte for byte
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(config)
    where = tmp_path / f"jobs{jobs}"
    where.mkdir()
    monkeypatch.chdir(where)
    code = main(["--out", "out", "--config", str(cfg_path), "--jobs", str(jobs)] + list(args))
    return code, where / "out"


def read_records(out):
    with open(out / "records.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def read_report(out):
    return json.loads((out / "report.json").read_text())


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_suite_exits_three():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 3


def test_bad_flag_value_exits_three():
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "many", "verify", "bessel"])
    assert exc.value.code == 3


def test_unknown_config_key_exits_three(tmp_path):
    code, _ = run(tmp_path, "verify", "bessel", config="[kernel]\nalfa = 0.5\n")
    assert code == 3


def test_kernel_offset_key_is_unknown(tmp_path, capsys):
    # the kernel family is real-order: [kernel] takes alpha and n only
    code, out = run(tmp_path, "kernel-table", config="[kernel]\nv = 0.0\n")
    assert code == 3
    assert "unknown key 'v' in [kernel]" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_block_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Configuration.*?```ini\n(.*?)```", readme, re.S).group(1)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.read_string(block)
    documented = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    assert documented == cli._DEFAULTS


def test_unknown_config_section_exits_three(tmp_path):
    code, _ = run(tmp_path, "verify", "bessel", config="[kernels]\nalpha = 0.5\n")
    assert code == 3


def test_config_file_that_is_not_utf8_exits_three(tmp_path, capsys):
    cfg_path = tmp_path / "latin.ini"
    cfg_path.write_bytes(b"[stein-weiss]\nbumps = 8 \xff\n")
    out = tmp_path / "run"
    assert main(["--out", str(out), "--config", str(cfg_path), "verify", "bessel"]) == 3
    assert "cannot read config file" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_missing_input_field_exits_three(tmp_path):
    code, _ = run(tmp_path, "op-apply")
    assert code == 3
    code, _ = run(
        tmp_path,
        "op-apply",
        config=f"[op-apply]\ninput = {tmp_path}/nowhere.field\n",
        name="gone",
    )
    assert code == 3


def test_bad_jobs_env_exits_three(tmp_path, monkeypatch):
    monkeypatch.setenv("CONEWAVE_JOBS", "lots")
    code, _ = run(tmp_path, "verify", "bessel")
    assert code == 3


@pytest.mark.parametrize("suite", ["stein-weiss", "bessel"])
def test_negative_seed_exits_three_before_any_command(tmp_path, monkeypatch, capsys, suite):
    # random.Random seeds on |seed|, so -S would draw S's ensemble, and a
    # suite that draws nothing would echo it into its report
    def never(*args, **kwargs):
        raise AssertionError("ran the suite")

    monkeypatch.setitem(cli._SUITES, suite, never)
    code, out = run(tmp_path, "--seed", "-1", "verify", suite)
    assert code == 3
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_out_naming_a_file_exits_three(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["--out", str(taken), "verify", "bessel"]) == 3
    assert f"cannot make the output directory {taken}" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_numerical_failure_exits_two(tmp_path):
    # an impossible agreement tolerance turns the cross-path gate red;
    # the run completes and reports, but the exit code flags the failure
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "probe.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    code, out = run(
        tmp_path,
        "op-apply",
        config=f"[op-apply]\ninput = {field_path}\ncross_tol = 1e-18\ncount = 48\n",
    )
    assert code == 2
    recs = read_records(out)
    gate = [r for r in recs if r["name"].startswith("cross-path agreement")]
    assert len(gate) == 1 and gate[0]["passed"] == "false"


# ---------------------------------------------------------------------------
# kernel-table


def test_kernel_table_artifacts(tmp_path):
    code, out = run(tmp_path, "kernel-table", config="[kernel-table]\nxi_count = 21\nx_count = 11\n")
    assert code == 0
    with open(out / "kernel_spectral.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi", "omega_hat", "main", "remainder"]
    assert len(rows) == 22
    assert rows[1][:2] == ["0.0", "1.0"]  # alpha=1/2, n=1: unit mass at xi=0
    assert (out / "kernel_physical.csv").exists()
    report = read_report(out)
    assert report["command"] == "kernel-table"
    assert all(rec["passed"] for rec in report["records"])


def test_kernel_table_physical_refusal_is_visible(tmp_path):
    code, out = run(
        tmp_path,
        "kernel-table",
        config="[kernel]\nalpha = 0.5\nn = 2\n[kernel-table]\nxi_count = 9\nx_count = 9\n",
    )
    assert code == 0
    with open(out / "kernel_physical.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only: the density does not exist here
    recs = read_records(out)
    phys = [r for r in recs if r["name"] == "physical rows"]
    assert phys and phys[0]["value"] == "0.0"


def test_kernel_table_evaluates_each_column_in_one_call(tmp_path, monkeypatch):
    # the profile calls do not grow with the row count, and the split
    # reassembly record has the bits of the point-by-point loop
    import conewave.kernel as kernel

    calls = []
    for module in (kernel, cli):
        for name in ("omega_hat", "multiplier_split", "omega_physical"):
            if hasattr(module, name):
                real = getattr(module, name)

                def counted(*args, _real=real, _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    made = {}
    for rows in (21, 401):
        del calls[:]
        code, out = run(tmp_path, "kernel-table", name=f"rows{rows}",
                        config=f"[kernel]\nalpha = 0.3\n[kernel-table]\n"
                               f"xi_count = {rows}\nx_count = {rows}\n")
        assert code == 0
        made[rows] = sorted(calls)
    assert made[21] == made[401]
    monkeypatch.undo()
    spec = cw.KernelSpec(0.3, 1)
    worst = 0.0
    for v in np.linspace(0.0, 10.0, 401)[1:]:
        main, rest = cw.multiplier_split(float(v), spec)
        worst = max(worst, abs(main + rest - cw.omega_hat(float(v), spec)))
    rec = {r["name"]: r for r in read_report(out)["records"]}["split reassembly"]
    assert rec["value"] == worst


@pytest.mark.parametrize("key, value", [
    ("x_max", "inf"), ("x_max", "nan"), ("xi_max", "inf"), ("xi_max", "nan"),
])
def test_kernel_table_refuses_a_non_finite_range(tmp_path, capsys, key, value):
    # x_max = nan passed the old "<= 0" check and wrote an all-nan x column
    code, out = run(tmp_path, "kernel-table", config=f"[kernel-table]\n{key} = {value}\n")
    assert code == 3
    assert "positive and finite" in capsys.readouterr().err
    assert not (out / "kernel_physical.csv").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_bessel_passes_and_echoes_config(tmp_path):
    code, out = run(tmp_path, "--seed", "5", "verify", "bessel")
    assert code == 0
    report = read_report(out)
    assert report["command"] == "verify"
    assert report["suite"] == "bessel"
    assert report["seed"] == 5
    assert "kernel" in report["config"] and "alpha" in report["config"]["kernel"]
    assert {"python", "numpy", "scipy", "conewave"} <= set(report["versions"])
    recs = read_records(out)
    assert recs and all(r["passed"] == "true" for r in recs)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_case_bounds_refuses_a_dimension_below_one(tmp_path, capsys, n):
    code, out = run(tmp_path, "verify", "case-bounds", config=f"[case-bounds]\nn = {n}\n")
    assert code == 3
    assert "n must be a positive integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_verify_crucial_and_mixed_norm_pass(tmp_path):
    for suite in ("crucial", "mixed-norm"):
        code, out = run(tmp_path, "verify", suite, name=suite)
        assert code == 0, suite
        assert all(r["passed"] == "true" for r in read_records(out)), suite


def test_stein_weiss_bump_stream_draws_the_batch_ensemble():
    # the battery measures bumps as they are drawn: random_bumps yields
    # them one draw at a time, each the bump of the generator's next
    # width, center and amplitude
    grid = cw.Grid.default(1)
    ranges = dict(width_range=(0.75, 2.0), center_range=(-8.0, 8.0))
    rng, x = random.Random(11), grid.axis()
    batch = []
    for _ in range(200):
        width, center = rng.uniform(0.75, 2.0), rng.uniform(-8.0, 8.0)
        amp = rng.uniform(0.5, 2.0)
        batch.append(amp * np.exp(-np.pi * (x - center) ** 2 / width**2))
    stream = ens.random_bumps(grid, 200, random.Random(11), **ranges)
    assert not isinstance(stream, list)
    got = [f.samples for f in stream]
    assert len(got) == len(batch)
    assert all(np.array_equal(a, b) for a, b in zip(got, batch))
    # the n != 1 refusal comes at the call, before any draw
    with pytest.raises(ValueError, match="one-dimensional"):
        ens.random_bumps(cw.Grid(2, 16, 8.0), 3, random.Random(11))
    # a worker pool consumes the stream in draw order too
    peaks = _pool_map(lambda f: float(f.samples.real.max()),
                      ens.random_bumps(grid, 20, random.Random(11), **ranges), 2)
    assert peaks == [float(b.max()) for b in batch[:20]]


def test_stein_weiss_bumps_come_from_the_standard_library_generator():
    # the battery's ensemble is random.Random(seed)'s draws, so the suite
    # needs no numpy.random
    grid = cw.Grid.default(1)
    hls = cw.SteinWeissParams(N=1, a=0.5, gamma_w=0.0, delta_w=0.0, p=4 / 3, q=4.0)
    measure = cw.stein_weiss_measure([hls], grid, 12)
    bumps = ens.random_bumps(grid, 4, random.Random(3), width_range=(0.75, 2.0),
                             center_range=(-8.0, 8.0))
    want = max(measure(f)[0] for f in bumps)
    records = {r["name"]: r["value"] for r in cli.battery_stein_weiss(seed=3, bumps=4)}
    assert records["hls constant stability"] == want


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_map_reads_at_most_jobs_items_ahead(jobs):
    # a streamed input is drawn only as results finish: whenever the pool
    # asks for the next item, fewer than `jobs` drawn items are unfinished
    lock = threading.Lock()
    drawn, finished, ahead = [0], [0], []

    def stream():
        for i in range(24):
            with lock:
                ahead.append(drawn[0] - finished[0])
                drawn[0] += 1
            yield i

    def work(i):
        time.sleep(0.002 * (i % 3))
        with lock:
            finished[0] += 1
        return i * i

    assert _pool_map(work, stream(), jobs) == [i * i for i in range(24)]
    assert len(ahead) == 24
    assert max(ahead) <= jobs - 1


def test_pool_map_raises_a_worker_error():
    def work(i):
        if i == 3:
            raise ValueError("bad item")
        return i

    with pytest.raises(ValueError, match="bad item"):
        _pool_map(work, range(8), 2)


def test_reports_are_deterministic_across_workers(tmp_path):
    _, a = run(tmp_path, "--jobs", "1", "verify", "bessel", name="a")
    _, b = run(tmp_path, "--jobs", "4", "verify", "bessel", name="b")
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()


def test_verify_stein_weiss_is_worker_independent(tmp_path, monkeypatch):
    # the bump ensemble runs on worker threads that share one measurer
    outs = {}
    for jobs in (1, 2):
        code, outs[jobs] = run_at_jobs(tmp_path, monkeypatch, jobs, "verify", "stein-weiss",
                                       config="[stein-weiss]\nbumps = 8\n")
        assert code == 0
    assert (outs[1] / "report.json").read_bytes() == (outs[2] / "report.json").read_bytes()
    assert (outs[1] / "records.csv").read_bytes() == (outs[2] / "records.csv").read_bytes()


def test_stein_weiss_battery_builds_one_geometry_per_depth(monkeypatch):
    built, rows_built, alive = [], [], []
    geometry, rows = analysis._sw_geometry, analysis._sw_rows

    def counted(*rule):
        built.append(rule[1])
        return geometry(*rule)

    def counted_rows(geom, *args):
        # an earlier pass's rows are gone before the next pass is built
        assert [ref() for ref in alive] == [None] * len(alive)
        rows_built.append((geom[0].size, tuple(args[-1])))
        datas, cols, indptr = out = rows(geom, *args)
        alive.extend(weakref.ref(arr) for arr in (*datas, cols, indptr))
        return out

    monkeypatch.setattr(analysis, "_sw_geometry", counted)
    monkeypatch.setattr(analysis, "_sw_rows", counted_rows)
    records = {r["name"]: r["value"] for r in cli.battery_stein_weiss(seed=3, bumps=4)}
    # one measurer of the bumps' set at the default depth 12, and one of
    # the two ladder sets per depth: every (depth, exponent set) pair is
    # built exactly once
    assert sorted(built) == [8, 10, 12, 12, 14, 16, 18]
    assert len(rows_built) == 7
    assert sorted(len(keys) for _, keys in rows_built) == [1] + [2] * 6
    pairs = [(size, key) for size, keys in rows_built for key in keys]
    assert len(pairs) == 13 == len(set(pairs))
    # every ladder still reads the calls it names, in its own order
    grid = cw.Grid.default(1)
    inad = cw.SteinWeissParams(N=1, a=0.95, gamma_w=0.35, delta_w=0.2, p=10 / 7, q=10 / 3)
    adm = cw.sw_derived_params(0.4, 2)

    def ladder(params, probes):
        allowed = (params,) if params is inad else ()
        return [cw.stein_weiss_measure([params], grid, d, allow_inadmissible=allowed)(
            ens.gaussian(grid, w))[0] for w, d in probes]

    widths = (1.0, 2.0, 4.0, 8.0)
    conc = ((4.0, 10), (2.0, 12), (1.0, 14), (0.5, 16), (0.25, 18))
    sweep = [(2.0, d) for d in (8, 10, 12, 14)]
    width_in, width_ad = (ladder(p, [(w, 12) for w in widths]) for p in (inad, adm))
    conc_in, conc_ad = (ladder(p, conc) for p in (inad, adm))
    sweep_in, sweep_ad = (ladder(p, sweep) for p in (inad, adm))
    assert records["inadmissible width ladder"] == \
        cw.boundedness_verdict(widths, width_in).fitted_exponent
    assert records["admissible flat ladder"] == max(width_ad) / min(width_ad) - 1.0
    assert records["inadmissible concentration growth"] == \
        cw.boundedness_verdict([1.0 / w for w, _ in conc], conc_in).fitted_exponent
    assert records["admissible concentration stability"] == max(conc_ad) / min(conc_ad) - 1.0
    assert records["inadmissible depth divergence"] == sweep_in[-1] / sweep_in[0]
    assert records["admissible depth convergence"] == \
        max(abs(b - a) / a for a, b in zip(sweep_ad, sweep_ad[1:]))


def test_stein_weiss_battery_refuses_an_admissible_set_that_turns_inadmissible(monkeypatch):
    # adm is measured by one measurer with the deliberately inadmissible
    # inad, and is still refused the moment it is inadmissible itself
    derived = cli.sw_derived_params

    def broken(alpha, n):
        params = derived(alpha, n)
        if (alpha, n) == (0.4, 2):
            return cw.SteinWeissParams(N=1, a=params.a, gamma_w=1.0 / params.q + 0.1,
                                       delta_w=params.delta_w, p=params.p, q=params.q)
        return params

    monkeypatch.setattr(cli, "sw_derived_params", broken)
    with pytest.raises(cw.InadmissibleParamsError, match="gamma_w < N/q"):
        cli.battery_stein_weiss(seed=3, bumps=4)


def test_mixed_norm_battery_refines_on_the_base_nodes(monkeypatch):
    # the refinement doubles the node density of the base rule and
    # evaluates the profile on the 159 midpoints alone, for the width-1
    # input alone; its value is a direct one-field mixed_norms on the doubled rule
    rows = []
    profile = analysis.omega_hat

    def spy(x, *args):
        if np.ndim(x) == 2:
            rows.append(np.shape(x)[0])
        return profile(x, *args)

    monkeypatch.setattr(analysis, "omega_hat", spy)
    records = {r["name"]: r for r in cli.battery_mixed_norm()}
    assert sum(rows) == 160 + 159
    monkeypatch.setattr(analysis, "omega_hat", profile)
    g = cw.Grid.default(1)
    spec = cw.KernelSpec(0.4, 1)
    quad = cw.RadialQuadrature(g.spacing / 4.0, 16.0, 160)
    fine = cw.RadialQuadrature(quad.r_min, quad.r_max, 2 * quad.count - 1)
    f = ens.gaussian(g, 1.0)
    m1 = cw.mixed_norms([f], spec, cw.MixedNormSpec(10.0, 10.0, quad))[0]
    m2 = cw.mixed_norms([f], spec, cw.MixedNormSpec(10.0, 10.0, fine))[0]
    assert records["radial refinement"]["value"] == abs(m1 - m2) / m2
    assert records["radial refinement"]["passed"]


# ---------------------------------------------------------------------------
# scan-region


def test_scan_region_reproduces_the_window(tmp_path):
    cfg = (
        "[scan-region]\n"
        "alpha_min = 0.4\nalpha_max = 0.4\nalpha_step = 0.2\n"
        "inv_p_min = 0.45\ninv_p_max = 0.95\ninv_p_step = 0.05\n"
    )
    code, out = run(tmp_path, "scan-region", config=cfg)
    assert code == 0
    with open(out / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "inv_p",
        "inv_q",
        "alpha",
        "n",
        "region",
        "ratio_max",
        "ratio_spread",
        "verdict",
    ]
    by_ip = {round(float(r["inv_p"]), 6): r["region"] for r in rows}
    for ip, want in {
        0.45: "OpenGap",
        0.5: "Boundary",
        0.55: "RegionII",
        0.85: "RegionII",
        0.9: "Boundary",
        0.95: "OpenGap",
    }.items():
        assert by_ip[ip] == want, ip


@pytest.mark.parametrize("key, value", [
    ("alpha_min", "nan"), ("alpha_max", "inf"), ("alpha_step", "nan"), ("alpha_step", "inf"),
    ("inv_p_min", "-inf"), ("inv_p_max", "nan"), ("inv_p_step", "inf"),
])
def test_scan_region_refuses_a_non_finite_range(tmp_path, capsys, key, value):
    code, _ = run(tmp_path, "scan-region", config=f"[scan-region]\n{key} = {value}\n")
    assert code == 3
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("config, named", [
    ("alpha_step = 3e-7\n", "2000001 alpha x 17 inv_p = 34000017 points"),
    ("alpha_step = 1e-4\n", "6001 alpha x 17 inv_p = 102017 points"),
    ("inv_p_step = 5e-324\n", "too small to count"),
])
def test_scan_region_refuses_a_grid_past_the_cap(tmp_path, capsys, monkeypatch, config, named):
    # both ladder counts are taken before any list is built, and a grid of
    # more than 100 000 alpha x inv_p points exits 3 without a traceback

    def never(*args, **kwargs):
        raise AssertionError("built a grid point")

    monkeypatch.setattr(cli, "ExponentPoint", never)
    code, out = run(tmp_path, "scan-region", config="[scan-region]\n" + config)
    assert code == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (out / "report.json").exists()


_RATIO_SCAN = (
    "[scan-region]\n"
    "alpha_min = 0.2\nalpha_max = 0.8\nalpha_step = 0.2\n"
    "inv_p_min = 0.1\ninv_p_max = 0.9\ninv_p_step = 0.1\n"
    "with_ratios = true\nratio_points = 64\nratio_extent = 16.0\n"
    "ratio_deltas = 0.5 1.0 2.0\n"
)


def test_scan_region_ratios_are_shared_per_alpha_and_worker_independent(tmp_path, monkeypatch):
    built = []
    build = cli.symbol

    def counted(grid, spec, quad=None, path="multiplier"):
        built.append(spec.alpha)
        return build(grid, spec, quad, path)

    monkeypatch.setattr(cli, "symbol", counted)
    outs = {}
    for jobs in (1, 2):
        built.clear()
        code, outs[jobs] = run_at_jobs(tmp_path, monkeypatch, jobs, "scan-region",
                                       config=_RATIO_SCAN)
        assert code in (0, 2)
        with open(outs[jobs] / "scan.csv", newline="") as fh:
            probed = [r for r in csv.DictReader(fh) if r["ratio_max"]]
        # one symbol per distinct probed alpha, however many probes share it
        alphas = sorted({float(r["alpha"]) for r in probed})
        assert sorted(built) == alphas
        assert len(probed) > len(alphas) > 1
    for name in ("report.json", "records.csv", "scan.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    # every probe equals the one-probe-at-a-time ratio ladder exactly, and
    # the generic ratio of each member within the bound of the orthant
    # route that the even reference Gaussians take
    grid = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    quad = cw.RadialQuadrature.for_grid(grid)
    deltas = (0.5, 1.0, 2.0)
    family = [ens.separable_gaussian(grid, d) for d in deltas]
    for row in probed:
        m = cw.symbol(grid, cw.KernelSpec(float(row["alpha"]), 1), quad)
        inv_p, inv_q = float(row["inv_p"]), float(row["inv_q"])
        [stats] = cw.ratio_ladder(m, [(inv_p, inv_q)], family)
        ratios = stats.ratios
        generic = [lp_norm(cw.SpacetimeField(grid, cw.symbol_applier(f)(m)), 1.0 / inv_q)
                   / lp_norm(f, 1.0 / inv_p) for f in family]
        np.testing.assert_allclose(ratios, generic, rtol=4e-15, atol=0.0)
        assert row["ratio_max"] == repr(max(ratios))
        assert row["ratio_spread"] == repr(max(ratios) / min(ratios))


def test_scan_region_probes_at_two_dimensions_as_norm_test_does(tmp_path, monkeypatch):
    # an n = 2 scan on 32^3 is worker independent, and each probe's
    # ratio_max is the largest width record of an n = 2 norm-test at its
    # point on the same grid, bit for bit.  Its Region I/II probes read
    # "fail" at this box (the width-0.5 member is one cell wide), so the
    # scan may exit 2
    cfg = "[scan-region]\nn = 2\nwith_ratios = true\nratio_points = 32\nratio_extent = 16.0\n"
    outs = {}
    for jobs in (1, 2):
        code, outs[jobs] = run_at_jobs(tmp_path, monkeypatch, jobs, "scan-region", config=cfg)
        assert code in (0, 2)
    for name in ("report.json", "records.csv", "scan.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    with open(outs[1] / "scan.csv", newline="") as fh:
        probed = [r for r in csv.DictReader(fh) if r["ratio_max"]]
    assert len(probed) > 1 and all(r["n"] == "2" for r in probed)
    for i, row in enumerate(probed):
        code, out = run(tmp_path, "norm-test", name=f"norm-{i}", config=(
            f"[norm-test]\nn = 2\nalpha = {row['alpha']}\ninv_p = {row['inv_p']}\n"
            "deltas = 0.5 1.0 2.0\npoints = 32\nextent = 16.0\nt_points = 32\nt_extent = 16.0\n"))
        assert code in (0, 2)
        ratios = [r["value"] for r in read_report(out)["records"]
                  if r["name"].startswith("ratio at width")]
        assert len(ratios) == 3
        assert row["ratio_max"] == repr(max(ratios))


# ---------------------------------------------------------------------------
# op-apply


def test_op_apply_zero_in_zero_out(tmp_path):
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "zero.field"
    cw.save_field(cw.SpacetimeField(g, np.zeros(g.shape)), field_path)
    code, out = run(
        tmp_path,
        "op-apply",
        config=f"[op-apply]\ninput = {field_path}\ncount = 48\n",
    )
    assert code == 0
    result = cw.load_field(out / "result.field")
    assert np.all(result.samples == 0.0)


def test_op_apply_cross_check_and_sensitivity_are_reported(tmp_path):
    g = cw.SpacetimeGrid(cw.Grid(1, 128, 32.0), 128, 32.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.5), field_path)
    code, out = run(
        tmp_path,
        "op-apply",
        config=f"[op-apply]\ninput = {field_path}\npath = cone-direct\ncount = 64\n",
    )
    assert code == 0
    recs = {r["name"]: r for r in read_records(out)}
    gate = recs["cross-path agreement vs multiplier"]
    assert gate["passed"] == "true" and float(gate["value"]) < 1e-10
    assert float(gate["threshold"]) == 1e-3
    # sensitivity rows are advisory: present, unconditionally green
    for name in ("sensitivity r_min_halved", "sensitivity r_max_doubled", "sensitivity nodes_doubled"):
        assert recs[name]["passed"] == "true"
        assert recs[name]["threshold"] == ""


def test_op_apply_cross_checks_the_other_path_at_its_default_tolerance(tmp_path):
    # the multiplier path is gated against cone-direct at cross_tol's
    # default of 1e-3, and the config echo has no cross_check key
    g = cw.SpacetimeGrid(cw.Grid(1, 128, 32.0), 128, 32.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.5), field_path)
    code, out = run(tmp_path, "op-apply",
                    config=f"[op-apply]\ninput = {field_path}\ncount = 64\n")
    assert code == 0
    report = read_report(out)
    echo = report["config"]["op-apply"]
    assert echo["path"] == "multiplier"
    assert echo["cross_tol"] == "1e-3" and "cross_check" not in echo
    gate = [r for r in report["records"] if r["name"].startswith("cross-path agreement")]
    assert [r["name"] for r in gate] == ["cross-path agreement vs cone-direct"]
    assert gate[0]["passed"] and gate[0]["threshold"] == 1e-3 and gate[0]["value"] < 1e-10


def test_op_apply_rejects_removed_paths(tmp_path, capsys):
    g = cw.SpacetimeGrid(cw.Grid(1, 32, 16.0), 32, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    code, _ = run(tmp_path, "op-apply", name="path",
                  config=f"[op-apply]\ninput = {field_path}\npath = slices\n")
    assert code == 3
    err = capsys.readouterr().err
    assert "slices" in err and "'cone-direct', 'multiplier'" in err
    # the cross-check runs the other path, so a stale cross_check line is
    # an unknown key
    code, _ = run(tmp_path, "op-apply", name="cross_check",
                  config=f"[op-apply]\ninput = {field_path}\ncross_check = multiplier\n")
    assert code == 3
    assert "unknown key 'cross_check'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_op_apply_refuses_a_non_finite_input_before_any_work(tmp_path, monkeypatch, capsys,
                                                             bad):
    # one nan or inf sample spreads over the whole output through the
    # transform; the input is refused before the operator or any write
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    samples = ens.gaussian_spacetime(g, 1.0).samples.astype(np.complex128)
    samples[20, 30] = bad
    field_path = tmp_path / "g.field"
    cw.save_field(cw.SpacetimeField(g, samples), field_path)

    def never(*args, **kwargs):
        raise AssertionError("reached the operator")

    monkeypatch.setattr(cli, "symbol_applier", never)
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "result.field").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key", ["cross_tol", "convergence_tol"])
def test_op_apply_refuses_a_tolerance_that_is_not_finite_and_positive(tmp_path, monkeypatch,
                                                                     capsys, key):
    # nan fails every comparison and is no JSON number, inf passes every
    # one, and a tolerance <= 0 fails every nonzero difference; each is
    # refused before the input is loaded, so nothing is transformed or
    # written
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)

    def never(*args, **kwargs):
        raise AssertionError("loaded the input")

    monkeypatch.setattr(cli, "load_field", never)
    for bad in ("nan", "inf", "-inf", "-1", "0"):
        code, out = run(tmp_path, "op-apply", name=f"{key}{bad}",
                        config=f"[op-apply]\ninput = {field_path}\n{key} = {bad}\n")
        assert code == 3, bad
        assert f"{key} must be finite and > 0" in capsys.readouterr().err, bad
        assert not (out / "result.field").exists()
        assert not (out / "report.json").exists()


def test_op_apply_refuses_a_spectral_field_file(tmp_path, capsys):
    # the sidecar's domain tag travels with the file: spectral samples are
    # not an operator input
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    sidecar = tmp_path / "g.field.json"
    sidecar.write_text(sidecar.read_text().replace('"physical"', '"spectral"'))
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert "domain_tag must be 'physical', got 'spectral'" in capsys.readouterr().err
    assert not (out / "result.field").exists()


@pytest.mark.parametrize("fault", ["spatial-sidecar", "missing-blob", "directory-blob"])
def test_op_apply_refuses_a_field_file_it_cannot_read(tmp_path, monkeypatch, capsys, fault):
    # a sidecar that is not a spacetime field's, or a valid one next to
    # samples that cannot be read, is refused before any transform or write
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    if fault == "spatial-sidecar":
        sidecar = tmp_path / "g.field.json"
        sidecar.write_text(sidecar.read_text().replace('"spacetime"', '"field"'))
    else:
        field_path.unlink()
        if fault == "directory-blob":
            field_path.mkdir()

    def never(*args, **kwargs):
        raise AssertionError("reached the operator")

    monkeypatch.setattr(cli, "symbol_applier", never)
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert f"unreadable field file {field_path}" in capsys.readouterr().err
    assert not (out / "result.field").exists()
    assert not (out / "report.json").exists()


def test_op_apply_refuses_a_sidecar_size_that_is_not_an_integer(tmp_path, capsys):
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    sidecar = tmp_path / "g.field.json"
    sidecar.write_text(sidecar.read_text().replace('"N": 64', '"N": 64.9'))
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert "N must be an integer" in capsys.readouterr().err
    assert not (out / "result.field").exists()


def test_op_apply_refuses_a_sidecar_of_another_version(tmp_path, capsys):
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    sidecar = tmp_path / "g.field.json"
    sidecar.write_text(sidecar.read_text().replace('"version": 1', '"version": 2'))
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert "version must be 1, got 2" in capsys.readouterr().err
    assert not (out / "result.field").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("meta", ["[]", '"spacetime"', "64", "null"])
def test_op_apply_refuses_a_sidecar_that_is_not_an_object(tmp_path, capsys, meta):
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    (tmp_path / "g.field.json").write_text(meta)
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    assert "expected a JSON object" in capsys.readouterr().err
    assert not (out / "result.field").exists()


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
def test_op_apply_transforms_its_input_once(tmp_path, monkeypatch, path, kind):
    # the output's symbol, the three refinements' changes of it and the
    # cross-check's symbol share one forward transform of the input, and
    # only the output is transformed back: the rest are measured on the
    # spectrum
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    f = ens.gaussian_spacetime(g, 1.0) if kind == "real" else ens.wave_packet(g, 1.0, k_x=0.5)
    field_path = tmp_path / "g.field"
    cw.save_field(f, field_path)
    calls = []
    for name in ("rfftn", "fftn", "irfft", "irfftn", "ifftn"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    code, out = run(tmp_path, "op-apply",
                    config=f"[op-apply]\ninput = {field_path}\npath = {path}\ncount = 48\n")
    assert code == 0
    assert calls == (["rfftn", "irfft"] if kind == "real" else ["fftn", "ifftn"])
    recs = {r["name"] for r in read_records(out)}
    assert {"sensitivity r_max_doubled", "sensitivity nodes_doubled"} <= recs
    assert any(name.startswith("cross-path agreement") for name in recs)


def test_op_apply_evaluates_only_the_radial_rows_each_refinement_adds(tmp_path, monkeypatch):
    # on the benchmark's n = 1 box at its default window: the output's
    # 160 rows, then 21 for r_min halved and 21 for r_max doubled (20
    # added nodes and the moved end's base node each) and 159 midpoints,
    # all on the multiplier profile, and the cross-check's 160 on the
    # cone-direct one; a refinement built as a whole symbol would take 180,
    # 180 and 319 rows
    import conewave.conop as conop

    g = cw.SpacetimeGrid(cw.Grid(1, 256, 64.0), 256, 64.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.5), field_path)
    distinct = np.unique(g.space.freq_radius()).size
    rows = {"omega_hat": [], "omega_hat_jacobi": []}
    for name in rows:
        profile = getattr(conop, name)

        def counted(xi, spec, _profile=profile, _rows=rows[name]):
            _rows.append((np.size(xi) - 1) / distinct)
            return _profile(xi, spec)

        monkeypatch.setattr(conop, name, counted)
    code, out = run(tmp_path, "op-apply",
                    config=f"[kernel]\nalpha = 0.5\n[op-apply]\ninput = {field_path}\n")
    assert code == 0
    assert rows == {"omega_hat": [160, 21, 21, 159], "omega_hat_jacobi": [160]}
    notes = {r["name"]: r["note"] for r in read_report(out)["records"]}
    added = {"r_min_halved": ("0.03125", "16", 20), "r_max_doubled": ("0.0625", "32", 20),
             "nodes_doubled": ("0.0625", "16", 159)}
    for key, (lo, hi, count) in added.items():
        assert notes[f"sensitivity {key}"].startswith(
            f"relative L2 movement of the output on the radial window [{lo}, {hi}], "
            f"which keeps the 160 nodes and adds {count}"), key
        window = read_report(out)["diagnostics"]["windows"][key]
        assert (f"{window['r_min']:g}", f"{window['r_max']:g}", window["added_nodes"]) == (
            lo, hi, count)


def test_op_apply_reports_an_unrun_refinement_as_not_measured(tmp_path):
    # r_max at half the time extent leaves the r_max refinement no room
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)
    code, out = run(tmp_path, "op-apply",
                    config=f"[op-apply]\ninput = {field_path}\nr_min = 0.0625\n"
                           "r_max = 8.0\ncount = 48\n")
    assert code == 0
    report = read_report(out)
    assert report["diagnostics"]["r_max_doubled"] is None
    assert report["diagnostics"]["windows"]["r_max_doubled"] is None
    rec = {r["name"]: r for r in report["records"]}["sensitivity r_max_doubled"]
    assert rec["value"] is None and rec["passed"] is True
    assert rec["note"].startswith("not measured")
    row = {r["name"]: r for r in read_records(out)}["sensitivity r_max_doubled"]
    assert row["value"] == ""


def test_op_apply_refuses_r_max_above_half_the_time_extent(tmp_path, capsys, monkeypatch):
    # refused before any symbol is built: it used to run for seconds on a
    # cone-direct rule sized for r_max = 8000 and exit 0
    g = cw.SpacetimeGrid(cw.Grid(1, 64, 16.0), 64, 16.0)
    field_path = tmp_path / "g.field"
    cw.save_field(ens.gaussian_spacetime(g, 1.0), field_path)

    def no_symbol(*args, **kwargs):
        raise AssertionError("a symbol was built before the configuration was checked")

    monkeypatch.setattr(cli, "symbol", no_symbol)
    for r_max in ("8.001", "8000"):
        code, out = run(tmp_path, "op-apply", name=f"r{r_max}",
                        config=f"[op-apply]\ninput = {field_path}\nr_min = 0.0625\n"
                               f"r_max = {r_max}\ncount = 48\n")
        assert code == 3
        err = capsys.readouterr().err
        assert f"r_max = {float(r_max):g} exceeds half the time extent, 8" in err
        assert not (out / "result.field").exists()


# ---------------------------------------------------------------------------
# norm-test


def test_norm_test_verdict(tmp_path):
    cfg = (
        "[norm-test]\n"
        "points = 512\nt_points = 512\nextent = 64.0\nt_extent = 64.0\n"
        'deltas = 0.5 1.0 2.0\n'
    )
    code, out = run(tmp_path, "norm-test", config=cfg)
    assert code == 0
    report = read_report(out)
    assert report["region"] == "RegionII"
    assert report["verdict"]["verdict"] == "pass"
    assert report["verdict"]["spread"] < 2.0


_SMALL_NORM_TEST = (
    "[norm-test]\n"
    "points = 128\nt_points = 128\nextent = 32.0\nt_extent = 32.0\n"
    "deltas = 0.5 1.0 2.0 4.0\n"
)


@pytest.mark.parametrize("path", ["multiplier", "cone-direct"])
def test_norm_test_is_worker_independent_and_matches_width_by_width(tmp_path, monkeypatch,
                                                                   path):
    cfg = _SMALL_NORM_TEST + f"path = {path}\n"
    outs = {}
    for jobs in (1, 2):
        code, outs[jobs] = run_at_jobs(tmp_path, monkeypatch, jobs, "norm-test", config=cfg)
        assert code in (0, 2)
    for name in ("report.json", "records.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    grid = cw.SpacetimeGrid(cw.Grid(1, 128, 32.0), 128, 32.0)
    spec = cw.KernelSpec(0.4, 1)
    quad = cw.RadialQuadrature.for_grid(grid)
    m = cw.symbol(grid, spec, quad, path)
    got = {r["name"]: r["value"] for r in read_report(outs[1])["records"]}
    for d in (0.5, 1.0, 2.0, 4.0):
        # the library's ladder of this width alone exactly, and the generic
        # ratio within the bound of the orthant route the even member takes
        f = ens.separable_gaussian(grid, d)
        [stats] = cw.ratio_ladder(m, [(0.7, 0.7 - 0.4)], [f])
        want = stats.ratios[0]
        out = cw.SpacetimeField(grid, cw.symbol_applier(f)(m))
        generic = lp_norm(out, 1.0 / (0.7 - 0.4)) / lp_norm(f, 1.0 / 0.7)
        assert want == pytest.approx(generic, rel=4e-15, abs=0.0)
        assert got[f"ratio at width {d:g}"] == want


def _zero_member(grid, width):
    # a separable member whose time factor is zero, so its norm is zero
    return cw.SeparableField(grid, np.ones(grid.space.shape), np.zeros(grid.t_points))


def _spy_on_the_forward_transform(monkeypatch):
    # every transform of a ratio ladder member runs through fields._spectrum,
    # of its samples or of a separable member's factors, or through
    # fields._orthant_spectrum, of an even separable member's factors
    transformed = []
    for name in ("_spectrum", "_orthant_spectrum"):
        def spy(samples, transform=getattr(fields, name)):
            transformed.append(samples.shape)
            return transform(samples)
        monkeypatch.setattr(fields, name, spy)
    return transformed


@pytest.mark.parametrize("jobs", [1, 2])
def test_norm_test_refuses_a_zero_norm_member_before_applying(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(analysis, "separable_gaussian", _zero_member)
    transformed = _spy_on_the_forward_transform(monkeypatch)
    code, _ = run(tmp_path, "--jobs", str(jobs), "norm-test", config=_SMALL_NORM_TEST)
    assert code == 3
    assert transformed == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_region_refuses_a_zero_norm_member_before_applying(tmp_path, monkeypatch, capsys,
                                                                jobs):
    monkeypatch.setattr(analysis, "separable_gaussian", _zero_member)
    transformed = _spy_on_the_forward_transform(monkeypatch)
    code, _ = run(tmp_path, "--jobs", str(jobs), "scan-region", config=_RATIO_SCAN)
    assert code == 3
    assert "zero norm" in capsys.readouterr().err
    assert transformed == []


# a norm-test box, the size of one float64 field on it, the share of a
# field that its symbol's rows take, the share a member in flight takes
# (its orthant and its leaves), and the margin over the rows and one
# member per worker
_PEAK_BOXES = {
    "n1-512^2": ("points = 512\nt_points = 512\n", 512**2 * 8, 0.5, 0.75, 0.4),
    "n2-64^3": ("n = 2\npoints = 64\nt_points = 64\n", 64**3 * 8, 0.125, 0.75, 0.3),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("box", sorted(_PEAK_BOXES))
def test_norm_test_peak_is_the_rows_and_one_field_per_worker(tmp_path, box, jobs):
    # the default ladder of five widths, reference Gaussians even on every
    # axis: a member in flight holds the output's nonnegative orthant, a
    # quarter of a float64 field at n = 1 and about an eighth on 64^3,
    # and the leaves of its inverse as they are made and reduced, which
    # on these small boxes take about half a field more.  The symbol's
    # rows are half a field at n = 1 and an eighth of one on 64^3.  The
    # margin covers the symbol's build, which holds its rows once: 0.98
    # of a field on 512^2, under the ladder's 1.28 at --jobs 1, and 1.12
    # on 64^3, where its profile evaluation on a block of the (nodes x
    # distinct |xi|) table is the peak at --jobs 1.  A first run leaves
    # the imports out of the trace.  Measured: 1.28 and 1.80 fields on
    # 512^2 at --jobs 1 and 2, 1.12 and 1.12 to 1.49 on 64^3.  A member
    # that held its whole spectrum, with the profile evaluated in one
    # call, read 1.79 and 2.92 to 3.05 on 512^2, 2.15 and 2.72 on 64^3
    config, field, rows, worker, margin = _PEAK_BOXES[box]
    config = "[norm-test]\n" + config
    assert run(tmp_path, "--jobs", str(jobs), "norm-test", config=config, name="warm")[0] in (0, 2)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        code, _ = run(tmp_path, "--jobs", str(jobs), "norm-test", config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert code in (0, 2)
    assert peak <= (rows + jobs * worker + margin) * field, peak / field


@pytest.mark.parametrize("inv_q", ["1.5", "0.0"])
def test_norm_test_refuses_inv_q_out_of_range(tmp_path, inv_q):
    code, _ = run(tmp_path, "--jobs", "2", "norm-test",
                  config=_SMALL_NORM_TEST + f"inv_q = {inv_q}\n")
    assert code == 3


@pytest.mark.parametrize("n", ["0", "-1"])
def test_norm_test_refuses_a_dimension_below_one(tmp_path, capsys, n):
    # refused before the scaling-line partner inv_p - alpha / n is formed
    code, out = run(tmp_path, "norm-test", config=_SMALL_NORM_TEST + f"n = {n}\n")
    assert code == 3
    assert "n must be a positive integer" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_norm_test_rejects_too_few_widths(tmp_path):
    code, _ = run(tmp_path, "norm-test", config="[norm-test]\ndeltas = 1.0\n")
    assert code == 3


@pytest.mark.parametrize("command, config", [
    ("norm-test", _SMALL_NORM_TEST.replace("deltas = 0.5 1.0 2.0 4.0", "deltas = 1.0 1.0")),
    ("scan-region", _RATIO_SCAN.replace("ratio_deltas = 0.5 1.0 2.0",
                                        "ratio_deltas = 1.0 0.5 1")),
])
def test_ratio_ladders_refuse_repeated_widths_before_any_work(tmp_path, monkeypatch, capsys,
                                                              command, config):
    # a repeated width leaves the trend fit too few distinct scales; it is
    # refused at parse, before any symbol is built or applied
    def never(*args, **kwargs):
        raise AssertionError("reached the operator")

    monkeypatch.setattr(cli, "symbol", never)
    monkeypatch.setattr(analysis, "ratio_ladder", never)
    code, _ = run(tmp_path, command, config=config)
    assert code == 3
    assert "repeats a width" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("norm-test", _SMALL_NORM_TEST.replace("deltas = 0.5 1.0 2.0 4.0", "deltas = 0.5 inf")),
    ("norm-test", _SMALL_NORM_TEST.replace("deltas = 0.5 1.0 2.0 4.0", "deltas = 0.5 1e300")),
    ("scan-region", _RATIO_SCAN.replace("ratio_deltas = 0.5 1.0 2.0", "ratio_deltas = 1.0 inf")),
    ("scan-region", _RATIO_SCAN.replace("ratio_deltas = 0.5 1.0 2.0",
                                        "ratio_deltas = 1.0 1e300")),
], ids=["norm-test-inf", "norm-test-1e300", "scan-region-inf", "scan-region-1e300"])
def test_ratio_ladders_refuse_non_finite_widths_before_any_work(tmp_path, monkeypatch, capsys,
                                                                command, config):
    # an infinite width ended in a LinAlgError, and a width whose square
    # overflows in an OverflowError, after every apply had run
    def never(*args, **kwargs):
        raise AssertionError("reached the operator")

    monkeypatch.setattr(cli, "symbol", never)
    monkeypatch.setattr(analysis, "ratio_ladder", never)
    code, _ = run(tmp_path, command, config=config)
    assert code == 3
    assert "squares are finite" in capsys.readouterr().err


class _SymbolReached(Exception):
    pass


@pytest.mark.parametrize("command, config, refused", [
    ("norm-test", "[norm-test]\nn = 2\n", "grid 1024 x 1024 x 1024 = 1073741824 cells"),
    ("norm-test", "[norm-test]\nn = 2\npoints = 256\nt_points = 512\n",
     "grid 256 x 256 x 512 = 33554432 cells"),
    ("scan-region", "[scan-region]\nn = 3\nwith_ratios = true\n",
     "grid 256 x 256 x 256 x 256 = 4294967296 cells"),
    ("norm-test", "[norm-test]\npoints = 4096\nt_points = 4096\n", None),
    ("norm-test", "[norm-test]\nn = 2\npoints = 256\nt_points = 256\n", None),
], ids=["norm-test-n2-default", "norm-test-256x256x512", "scan-region-n3-default",
        "norm-test-4096^2", "norm-test-256^3"])
def test_ratio_probes_refuse_a_grid_past_the_cell_cap(tmp_path, monkeypatch, capsys,
                                                      command, config, refused):
    # a probe grid of more than 2^24 cells exits 3 naming its cell count,
    # before any symbol is built (the n = 2 default norm-test grid's symbol
    # alone is 8 GiB); 4096^2 and 256^3 reach the symbol
    def reached(*args, **kwargs):
        raise _SymbolReached

    monkeypatch.setattr(cli, "symbol", reached)
    if refused is None:
        with pytest.raises(_SymbolReached):
            run(tmp_path, command, config=config)
        return
    code, out = run(tmp_path, command, config=config)
    assert code == 3
    err = capsys.readouterr().err
    assert f"[{command}] {refused} exceeds the cap of 16777216" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, config, refused", [
    ("norm-test", "points = 64\nt_points = 64\nextent = 1e308\nt_extent = 16.0\n",
     "extent = 1e+308 is too large"),
    ("norm-test", "points = 64\nt_points = 64\nextent = 1e160\nt_extent = 16.0\n",
     "extent = 1e+160 is too large"),
    ("norm-test", "points = 64\nt_points = 64\nextent = 16.0\nt_extent = 1e160\n",
     "t_extent = 1e+160 is too large"),
    ("norm-test", "n = 2\npoints = 16\nt_points = 16\nextent = 1e154\nt_extent = 16.0\n",
     "box volume extent^2 * t_extent = 1e+154^2 * 16 overflows"),
    ("scan-region", _RATIO_SCAN.split("\n", 1)[1].replace("ratio_extent = 16.0",
                                                          "ratio_extent = 1e160"),
     "ratio_extent = 1e+160 is too large"),
], ids=["extent-1e308", "extent-1e160", "t_extent-1e160", "box-n2", "scan-region"])
def test_ratio_probes_refuse_an_extent_that_overflows_before_any_work(tmp_path, monkeypatch,
                                                                      capsys, command, config,
                                                                      refused):
    # the radii square the half-extents and the norms scale by the cell
    # volume: an extent near the float64 limit ran into numpy overflow
    # warnings, and then either into the non-finite norm guard or through
    # to a report
    def never(*args, **kwargs):
        raise AssertionError("reached the operator")

    monkeypatch.setattr(cli, "symbol", never)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, command, config=f"[{command}]\n{config}")
    assert code == 3
    err = capsys.readouterr().err
    assert f"[{command}] {refused}" in err
    assert "RuntimeWarning" not in err and not caught, [str(w.message) for w in caught]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, key, config", [
    ("norm-test", "t_extent", _SMALL_NORM_TEST.replace("t_extent = 32.0", "t_extent = 2.0")),
    ("scan-region", "ratio_extent",
     _RATIO_SCAN.replace("ratio_extent = 16.0", "ratio_extent = 2.0")),
], ids=["norm-test", "scan-region"])
def test_ratio_ladders_refuse_a_time_extent_without_a_radial_window(tmp_path, capsys,
                                                                     command, key, config):
    # the default radial window caps r at a quarter of the time extent and
    # needs that cap above 1, so an extent of 4 or less is a config error
    # that names its setting and the rule
    code, out = run(tmp_path, command, config=config)
    assert code == 3
    err = capsys.readouterr().err
    assert f"[{command}] {key} = 2 leaves no radial window" in err
    assert f"r_max = {key} / 4 = 0.5 must exceed 1" in err
    assert not (out / "report.json").exists()


def test_op_apply_refuses_a_time_extent_without_a_radial_window(tmp_path, capsys):
    # with the default window the time extent comes from the input file
    g = cw.SpacetimeGrid(cw.Grid(1, 16, 2.0), 16, 2.0)
    field_path = tmp_path / "short.field"
    cw.save_field(ens.gaussian_spacetime(g, 0.25), field_path)
    code, out = run(tmp_path, "op-apply", config=f"[op-apply]\ninput = {field_path}\n")
    assert code == 3
    err = capsys.readouterr().err
    assert f"the time extent L_t of {field_path} = 2 leaves no radial window" in err
    assert "r_max = L_t / 4 = 0.5 must exceed 1" in err
    assert not (out / "result.field").exists()


# ---------------------------------------------------------------------------
# console entry point


def test_main_calls_in_one_process_behave_as_fresh_processes(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; a usage error in one main()
    # call leaves the next one as a fresh process would run it, and back
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cw.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    bad = ["--seed", "many", "verify", "bessel"]
    good = ["--seed", "5", "--out", "out", "verify", "bessel"]
    fresh = {}
    for name, argv in (("bad", bad), ("good", good)):
        where = tmp_path / f"fresh-{name}"
        where.mkdir()
        fresh[name] = subprocess.run([sys.executable, "-m", "conewave.cli"] + argv,
                                     cwd=where, capture_output=True, text=True)
    assert fresh["bad"].returncode == 3 and fresh["good"].returncode == 0
    want = {name: (tmp_path / "fresh-good" / "out" / name).read_bytes()
            for name in ("report.json", "records.csv")}
    for i in range(2):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 3
        assert capsys.readouterr().err == fresh["bad"].stderr
        where = tmp_path / f"here-{i}"
        where.mkdir()
        monkeypatch.chdir(where)
        assert main(good) == 0
        assert capsys.readouterr().err.startswith("conewave verify: exit 0,")
        for name, data in want.items():
            assert (where / "out" / name).read_bytes() == data, name




def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kernel-table" in proc.stdout
