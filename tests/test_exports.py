"""Every exported name resolves, and every public library name, method and
property has a caller."""

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


def _loads(tree: ast.AST) -> set:
    # the names a tree loads, by bare name or as an attribute
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def _references(stmt: ast.stmt) -> set:
    # names a statement loads; a definition's references to its own name
    # do not count, and a class's body is taken a statement at a time, so
    # neither do a method's to its own
    if isinstance(stmt, ast.ClassDef):
        heads = stmt.bases + stmt.keywords + stmt.decorator_list
        found = set().union(*map(_loads, heads), *map(_references, stmt.body))
    else:
        found = _loads(stmt)
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        found.discard(stmt.name)
    return found


def _public(stmts, kinds) -> list:
    return [s.name for s in stmts if isinstance(s, kinds) and not s.name.startswith("_")]


def _sources() -> list:
    # the files whose calls count: the library's own modules (not the
    # package's re-exports) and the benchmark scripts; tests do not count
    sources = [p for p in sorted((_ROOT / "src" / "conewave").glob("*.py"))
               if p.name != "__init__.py"]
    return sources + sorted((_ROOT / "bench").glob("*.py"))


def _library_names() -> tuple:
    # (the public names the library defines, as module.name, and the
    # public methods and properties of its public classes, as
    # module.Class.name, and every name its callers load)
    referenced, defined = set(), []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            referenced |= _references(stmt)
        if path.stem not in _LIBRARY:
            continue
        defined += [f"{path.stem}.{name}"
                    for name in _public(tree.body, (ast.FunctionDef, ast.ClassDef))]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defined += [f"{path.stem}.{cls.name}.{name}"
                            for name in _public(cls.body, ast.FunctionDef)]
    return defined, referenced


def test_every_public_library_name_has_a_caller():
    defined, referenced = _library_names()
    dead = [name for name in defined
            if name.rsplit(".", 1)[1] not in referenced and name not in _NO_CALLER_YET]
    assert not dead, f"public names nothing calls: {dead}"


def test_the_caller_scan_reaches_methods_and_properties_of_public_classes():
    # public methods, properties and classmethods of public classes are
    # listed; private names, dunders and private classes' methods are not
    defined, _ = _library_names()
    assert {"fields.Grid.spacing", "fields.Grid.freq_radius", "conop.RadialQuadrature.nodes",
            "conop.RadialQuadrature.for_grid"} <= set(defined)
    assert not [name for name in defined if any(part.startswith("_") for part in name.split("."))]
    assert "fields.Grid.__post_init__" not in defined


def test_the_no_caller_list_names_only_defined_names_without_a_caller():
    # a listed name that was deleted, or that has gained a library caller,
    # no longer belongs on the list
    defined, referenced = _library_names()
    stale = sorted(name for name in _NO_CALLER_YET
                   if name not in defined or name.rsplit(".", 1)[1] in referenced)
    assert not stale, f"stale entries of _NO_CALLER_YET: {stale}"


def test_every_public_classmethod_has_a_caller_that_names_its_class():
    # a classmethod is called through its class, Class.name(...): a bare
    # attribute match would let Grid.default stand in for another class's
    # default
    defined, called = [], set()
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                called.add((node.value.id, node.attr))
        if path.stem not in _LIBRARY:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defined += [(path.stem, cls.name, fn.name) for fn in cls.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                            and any(isinstance(d, ast.Name) and d.id == "classmethod"
                                    for d in fn.decorator_list)]
    assert ("fields", "Grid", "default") in defined
    dead = [".".join(name) for name in defined if name[1:] not in called]
    assert not dead, f"public classmethods nothing calls through their class: {dead}"
