"""Every public function and class of the package must be reached, and
every defaulted parameter of a public function must be set by a caller.

A top-level public name counts as reached when some other package module
(``__init__.py`` aside, since re-exporting is not use) or some test names
it.  Anything else is dead API: wire it into a command or a test of a
paper claim, make it private, or delete it.

A defaulted parameter counts as set when some call in the package, in a
test or in the benchmark (``bench/*.py``) passes it, by keyword or by
position.
"""

import ast
from pathlib import Path

import rwre

PACKAGE = Path(rwre.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


def _names_used(path: Path) -> set:
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _public_definitions(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_is_reached():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    uses = {p: _names_used(p) for p in modules}
    in_tests = set().union(*(_names_used(p) for p in TESTS.glob("test_*.py")))
    unreached = []
    for path in modules:
        elsewhere = in_tests.union(*(u for p, u in uses.items() if p != path))
        unreached += [f"{path.stem}.{name}" for name in _public_definitions(path)
                      if name not in elsewhere]
    assert not unreached, f"public but unreached: {unreached}"


def _optional_parameters(node: ast.FunctionDef) -> tuple:
    """(positional parameter names, defaulted parameter names)."""
    a = node.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    optional = positional[len(positional) - len(a.defaults):]
    optional += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                 if d is not None]
    return positional, optional


def _calls_by_name(paths) -> dict:
    """Callee name -> list of (positional argument count, keyword names)."""
    calls: dict = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_optional_parameter_is_set():
    # A default that no caller overrides is a constant with a name in the
    # signature: write its value where it is used instead.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    calls = _calls_by_name(modules + sorted(TESTS.glob("test_*.py"))
                           + sorted(BENCH.glob("*.py")))
    unset = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            positional, optional = _optional_parameters(node)
            passed = set()
            for n_args, keywords in calls.get(node.name, ()):
                passed.update(positional[:n_args])
                passed.update(keywords)
            unset += [f"{path.stem}.{node.name}({name})" for name in optional
                      if name not in passed]
    assert not unset, f"defaulted parameters that no caller sets: {unset}"
