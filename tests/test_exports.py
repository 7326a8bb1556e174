"""Every exported name resolves."""

import importlib

import conewave


def test_all_names_resolve():
    modules = [conewave] + [
        importlib.import_module(f"conewave.{name}")
        for name in ("specialfn", "kernel", "fields", "conop", "analysis", "ensembles")
    ]
    missing = [
        f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
        if not hasattr(mod, name)
    ]
    assert not missing
