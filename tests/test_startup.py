"""Start-up cost: the library neither imports nor needs scipy."""

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
