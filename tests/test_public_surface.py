"""Every public function and class of the package must be reached.

A top-level public name counts as reached when some other package module
(``__init__.py`` aside, since re-exporting is not use) or some test names
it.  Anything else is dead API: wire it into a command or a test of a
paper claim, make it private, or delete it.
"""

import ast
from pathlib import Path

import rwre

PACKAGE = Path(rwre.__file__).parent
TESTS = Path(__file__).parent


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
