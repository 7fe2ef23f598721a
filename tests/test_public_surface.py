"""Every public function, class, method and property of the package must
be reached by the program, and every defaulted parameter of a public
function must be set by a caller.

A public definition counts as reached when one of these holds:

* another package module (``__init__.py`` aside, since re-exporting is
  not use) imports it with ``from .m import name``, reads it off its
  module (``m.name``) or, for a method or property, reads it as an
  attribute of anything;
* its own module names it outside its definition;
* a benchmark file (``bench/*.py``) reaches it in one of those ways.

A test naming a definition does not reach it, and neither does a local
variable that shares its name.  Anything else is dead API: wire it into a
command or the benchmark, make it private, or delete it.

A defaulted parameter counts as set when some call in the package, in a
test or in the benchmark passes it, by keyword or by position.
"""

import ast
from pathlib import Path

import rwre

PACKAGE = Path(rwre.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"


def _identifiers(tree: ast.AST):
    """(node, name) for every identifier ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


def _reach(tree: ast.AST) -> tuple:
    """What a file reaches in the package: (names it imports from package
    modules, (module, name) pairs it reads off package modules, every
    attribute name it reads)."""
    imported, module_attrs, attrs = set(), set(), set()
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rwre"):
            if node.module in (None, "rwre"):
                modules.update((a.asname or a.name, a.name) for a in node.names)
            else:
                imported.update(a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                module_attrs.add((modules[node.value.id], node.attr))
    return imported, module_attrs, attrs


def _public_definitions(tree: ast.Module):
    """(qualified name, node, is a member) of each public top-level
    function and class and each public method and property of a top-level
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item, True


def test_every_public_name_is_reached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    reach = {p: _reach(t) for p, t in trees.items()}
    bench = [_reach(ast.parse(p.read_text())) for p in sorted(BENCH.glob("*.py"))]
    unreached = []
    for path, tree in trees.items():
        named = list(_identifiers(tree))
        others = [r for p, r in reach.items() if p != path] + bench
        for qualname, node, member in _public_definitions(tree):
            name = node.name
            inside = {id(n) for n in ast.walk(node)}
            if any(n == name and id(x) not in inside for x, n in named):
                continue
            if member:
                if any(name in attrs for _, _, attrs in others):
                    continue
            elif any(name in imported or (path.stem, name) in module_attrs
                     for imported, module_attrs, _ in others):
                continue
            unreached.append(f"{path.stem}.{qualname}")
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
