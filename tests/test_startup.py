"""Start-up cost and footprint: the library neither imports nor needs
scipy, and its commands load no numpy submodule they do not compute with."""

import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import conewave
import conewave.cli as cli

_SRC = str(Path(conewave.__file__).resolve().parents[1])


def _python(code, cwd, *flags):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy_module(tmp_path):
    proc = _python("import conewave.cli", tmp_path, "-X", "importtime")
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "conewave.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    # the worker pool is imported only by a run with --jobs above 1
    assert [m for m in modules if m.split(".")[0] == "concurrent"] == []


_FOOTPRINT = """
import json, sys
from conewave import cli, ensembles, fields

g = fields.SpacetimeGrid(fields.Grid(1, 64, 16.0), 64, 16.0)
fields.save_field(ensembles.gaussian_spacetime(g, 1.5), "g.field")
with open("sw.ini", "w") as fh:
    fh.write("[stein-weiss]\\nbumps = 2\\n")
with open("op.ini", "w") as fh:
    fh.write("[op-apply]\\ninput = g.field\\ncount = 48\\n")
with open("kt.ini", "w") as fh:
    fh.write("[kernel-table]\\nxi_count = 9\\nx_count = 9\\n")
with open("nt.ini", "w") as fh:
    fh.write("[norm-test]\\nalpha = 0.4\\nn = 1\\ninv_p = 0.6\\n")
codes = [
    cli.main(["--out", "sw", "--config", "sw.ini", "verify", "stein-weiss"]),
    cli.main(["--out", "mn", "verify", "mixed-norm"]),
    cli.main(["--out", "op", "--config", "op.ini", "op-apply"]),
    cli.main(["--out", "kt", "--config", "kt.ini", "kernel-table"]),
    cli.main(["--out", "nt", "--config", "nt.ini", "norm-test"]),
]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_commands_load_no_numpy_random_polynomial_or_masked_arrays(tmp_path):
    # the bumps come from random.Random, the panel rule from the library's
    # Jacobi rules, and medians (of the bumps and of norm-test's ratio
    # ladder) and distinct scales are taken without the numpy calls that
    # import numpy.ma: together these trees cost about 6 MB of resident
    # memory that no computation here uses
    proc = _python(_FOOTPRINT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"][:2] == [0, 0]
    assert out["codes"][2] in (0, 2)
    assert out["codes"][3] == 0
    assert out["codes"][4] in (0, 2)
    loaded = [m for m in out["modules"]
              if m.split(".")[:2] in (["numpy", "random"], ["numpy", "polynomial"], ["numpy", "ma"])]
    assert loaded == []


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
from conewave import cli, ensembles, fields

g = fields.SpacetimeGrid(fields.Grid(1, 64, 16.0), 64, 16.0)
fields.save_field(ensembles.gaussian_spacetime(g, 1.5), "g.field")
with open("op.ini", "w") as fh:
    fh.write("[op-apply]\\ninput = g.field\\ncount = 48\\n")
with open("kt.ini", "w") as fh:
    fh.write("[kernel-table]\\nxi_count = 9\\nx_count = 9\\n")
codes = {
    "ft-identity": cli.main(["--out", "ft", "verify", "ft-identity"]),
    "op-apply": cli.main(["--out", "op", "--config", "op.ini", "op-apply"]),
    "kernel-table": cli.main(["--out", "kt", "--config", "kt.ini", "kernel-table"]),
}
print(json.dumps({"codes": codes,
                  "scipy_loaded": [m for m in sys.modules if m.startswith("scipy.")]}))
"""


def test_commands_run_with_scipy_unimportable(tmp_path):
    proc = _python(_WITHOUT_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"]["ft-identity"] in (0, 2)
    assert out["codes"]["op-apply"] in (0, 2)
    # the physical table evaluates the density constant's 1/Gamma
    assert out["codes"]["kernel-table"] == 0
    assert "Traceback" not in proc.stderr
    assert out["scipy_loaded"] == []
    for name in ("ft", "op", "kt"):
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["versions"]["scipy"] == cli._scipy_version()


def test_scipy_version_is_null_when_scipy_is_not_installed(monkeypatch):
    def missing(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", missing)
    cli._scipy_version.cache_clear()
    try:
        assert cli._versions()["scipy"] is None
    finally:
        monkeypatch.undo()
        cli._scipy_version.cache_clear()
    assert cli._versions()["scipy"] == metadata.version("scipy")
