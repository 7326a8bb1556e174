"""Every exported name resolves, and every public library name has a caller."""

import ast
import importlib
from pathlib import Path

import conewave

_ROOT = Path(__file__).resolve().parent.parent
_LIBRARY = ("specialfn", "kernel", "fields", "conop", "analysis", "ensembles")

# public names kept without a caller, each with its reason
_NO_CALLER_YET = {
    # the cone-adapted probe family for the n >= 2 boundedness probes of
    # ROADMAP item 5, built to load the light-cone singularity
    "ensembles.cone_plate",
    # the public mixed norm of one or more fields, and the direct route the
    # mixed-norm tests compare against; the verify battery measures its
    # widths and its refinement together through mixed_norms_refined
    "analysis.mixed_norms",
}


def test_all_names_resolve():
    modules = [conewave] + [importlib.import_module(f"conewave.{name}") for name in _LIBRARY]
    missing = [
        f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
        if not hasattr(mod, name)
    ]
    assert not missing


def _references(stmt: ast.stmt) -> set:
    # names a top-level statement loads, by bare name or as an attribute;
    # a definition's references to its own name do not count
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found.discard(stmt.name)
    return found


def _library_names() -> tuple:
    # (the public names the library defines, as module.name, and every
    # name its callers load): callers are the library's own modules (not
    # the package's re-exports) and the benchmark scripts; tests do not
    # count
    sources = [p for p in sorted((_ROOT / "src" / "conewave").glob("*.py"))
               if p.name != "__init__.py"]
    sources += sorted((_ROOT / "bench").glob("*.py"))
    referenced, defined = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            referenced |= _references(stmt)
            if (path.stem in _LIBRARY and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append(f"{path.stem}.{stmt.name}")
    return defined, referenced


def test_every_public_library_name_has_a_caller():
    defined, referenced = _library_names()
    dead = [name for name in defined
            if name.split(".")[1] not in referenced and name not in _NO_CALLER_YET]
    assert not dead, f"public names nothing calls: {dead}"


def test_the_no_caller_list_names_only_defined_names_without_a_caller():
    # a listed name that was deleted, or that has gained a library caller,
    # no longer belongs on the list
    defined, referenced = _library_names()
    stale = sorted(name for name in _NO_CALLER_YET
                   if name not in defined or name.split(".")[1] in referenced)
    assert not stale, f"stale entries of _NO_CALLER_YET: {stale}"
