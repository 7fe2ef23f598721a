"""Every public function, class, method, property and record field of the
package must be reached by the program, and every defaulted parameter of a
public function must be both set and left at its default by the program.

A public definition counts as reached when one of these holds:

* another package module imports it with ``from .m import name``, reads
  it off its module (``m.name``) or, for a method or property, reads it as
  an attribute of anything;
* its own module names it outside its definition;
* a benchmark file (``bench/*.py``) reaches it in one of those ways.

``__init__.py`` holds only ``__version__``, so nothing is reached through a
re-export.

A field of a public dataclass (a record) counts as reached when a package
module or a benchmark file reads it as an attribute.  The test follows
types far enough to tell which record a read is on: through parameter and
return annotations, record constructors, record fields, and ``for`` and
comprehension targets over sequences of records.  A read on a value it
cannot type reaches the field only when no other record has a field of
that name.  A read off ``self`` in a method does not reach a field: a
record's own methods do not use it, and another class's attributes are
not record fields.  Neither does a read inside a keyword of the record's
own constructor (``walks=sum(h.walks for h in parts)``).

A test naming a definition does not reach it, and neither does a local
variable that shares its name.  Anything else is dead API: wire it into a
command or the benchmark, make it private, or delete it.

A defaulted parameter counts as set when some call in the package or in
the benchmark passes it, by keyword or by position.  A test passing it
does not count: a value that only a test chooses selects a path the
program never runs.  A test that needs another value calls a private
function or shrinks a module-level constant.  The default itself counts as
used when some call in the package or the benchmark omits the parameter;
a default that every such call overrides is read only by tests, so the
parameter should have none.

No package module imports scipy, at module level or inside a function.

No package module but ``clocks`` touches a ``Trajectory``'s storage lists
(``ids``, ``par``, ``dig``, ``dep``, ``dgs``): the rest of the package
reads a walk through its properties and methods, so the storage can change
without them.

No package module imports from the package inside a function body: such
an import hides a cycle between modules, which their imports at the top
would show.
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


SEQUENCES = ("Tuple", "List", "Sequence", "tuple", "list")


def _records(trees: dict) -> dict:
    """Record name -> (module stem, base names, field names) for each public
    top-level dataclass."""
    records = {}
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any(getattr(d.func if isinstance(d, ast.Call) else d,
                                    "id", None) == "dataclass"
                            for d in node.decorator_list)):
                fields = {s.target.id: s.annotation for s in node.body
                          if isinstance(s, ast.AnnAssign)}
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                records[node.name] = (path.stem, bases, fields)
    return records


def _annotation_kind(ann, records: dict):
    """(record, is a sequence of it) that an annotation names, or None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.Name):
        return (ann.id, False) if ann.id in records else None
    if isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name):
        inner = ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
        kinds = {_annotation_kind(x, records) for x in inner
                 if not (isinstance(x, ast.Constant) and x.value is Ellipsis)}
        if ann.value.id in SEQUENCES and len(kinds) == 1:
            (kind,) = kinds
            if kind and not kind[1]:
                return kind[0], True
    return None


def _scopes(tree: ast.Module):
    """(nodes, whether a method) for the module-level code, each top-level
    function and each method of a top-level class."""
    yield [s for s in tree.body
           if not isinstance(s, (ast.FunctionDef, ast.ClassDef))], False
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield [node], False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield [item], True


def _fields_read(trees, records: dict) -> set:
    """(record, field) pairs that ``trees`` read as attributes."""
    def owner(rec, attr):
        while rec in records:
            _, bases, fields = records[rec]
            if attr in fields:
                return rec
            rec = bases[0] if bases else None
        return None

    def element(kind):
        return (kind[0], False) if kind and kind[1] else None

    returns: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                kind = _annotation_kind(node.returns, records)
                returns[node.name] = (kind if returns.get(node.name, kind) == kind
                                      else None)
    defining: dict = {}
    for rec, (_, _, fields) in records.items():
        for f in fields:
            defining.setdefault(f, set()).add(rec)

    def kind_of(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            kind = kind_of(node.value, env)
            rec = kind and not kind[1] and owner(kind[0], node.attr)
            return _annotation_kind(records[rec][2][node.attr], records) if rec else None
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            return (name, False) if name in records else returns.get(name)
        if isinstance(node, ast.Subscript):
            return element(kind_of(node.value, env))
        return None

    def bound_kind(how, node, env):
        if how == "annotation":
            return _annotation_kind(node, records)
        kind = kind_of(node, env)
        return element(kind) if how == "element" else kind

    reached = set()
    for tree in trees:
        for roots, in_method in _scopes(tree):
            nodes = [n for r in roots for n in ast.walk(r)]
            # (name, how its kind follows from node, node)
            bindings = []
            for n in nodes:
                if isinstance(n, ast.arg) and n.annotation is not None:
                    bindings.append((n.arg, "annotation", n.annotation))
                elif isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                    bindings.append((n.target.id, "annotation", n.annotation))
                elif (isinstance(n, ast.Assign) and len(n.targets) == 1
                      and isinstance(n.targets[0], ast.Name)):
                    bindings.append((n.targets[0].id, "value", n.value))
                elif (isinstance(n, (ast.For, ast.comprehension))
                      and isinstance(n.target, ast.Name)):
                    bindings.append((n.target.id, "element", n.iter))
            env: dict = {}
            for _ in range(3):  # a binding may use a name bound after it
                kinds: dict = {}
                for name, how, node in bindings:
                    kind = bound_kind(how, node, env)
                    if kind is not None:
                        kinds.setdefault(name, set()).add(kind)
                # a name bound to two kinds of record gets none
                env = {n: ks.pop() for n, ks in kinds.items() if len(ks) == 1}
            # A read inside a record constructor's keyword of the same field
            # feeds the field only to itself.
            own_keyword = set()
            for n in nodes:
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) in records:
                    for k in n.keywords:
                        if owner(n.func.id, k.arg):
                            own_keyword.update(
                                id(x) for x in ast.walk(k.value)
                                if isinstance(x, ast.Attribute) and x.attr == k.arg)
            for n in nodes:
                if (not isinstance(n, ast.Attribute) or not isinstance(n.ctx, ast.Load)
                        or id(n) in own_keyword):
                    continue
                if in_method and getattr(n.value, "id", None) == "self":
                    continue
                kind = kind_of(n.value, env)
                if kind is None:
                    if len(defining.get(n.attr, ())) == 1:
                        reached.add((next(iter(defining[n.attr])), n.attr))
                elif not kind[1] and owner(kind[0], n.attr):
                    reached.add((owner(kind[0], n.attr), n.attr))
    return reached


def test_every_public_name_is_reached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    reach = {p: _reach(t) for p, t in trees.items()}
    bench_trees = [ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))]
    bench = [_reach(t) for t in bench_trees]
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
    records = _records(trees)
    read = _fields_read(list(trees.values()) + bench_trees, records)
    unreached += [f"{module}.{rec}.{f}"
                  for rec, (module, _, fields) in records.items()
                  for f in fields if (rec, f) not in read]
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
    # A default that the program never overrides is a constant with a name
    # in the signature: write its value where it is used instead.  One that
    # the program always overrides is never read: delete it.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    calls = _calls_by_name(modules + sorted(BENCH.glob("*.py")))
    unset, overridden = [], []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            positional, optional = _optional_parameters(node)
            for name in optional:
                passes = [name in positional[:n_args] or name in keywords
                          for n_args, keywords in calls.get(node.name, ())]
                if not any(passes):
                    unset.append(f"{path.stem}.{node.name}({name})")
                elif all(passes):
                    overridden.append(f"{path.stem}.{node.name}({name})")
    assert not unset, f"defaulted parameters that no caller sets: {unset}"
    assert not overridden, \
        f"defaulted parameters that every caller sets: {overridden}"


def test_no_module_imports_scipy():
    # The package needs only numpy at run time; scipy is a test oracle.
    # The scan also sees an import on a branch that no test run reaches.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert not found, f"scipy imports in the package: {found}"


TRAJECTORY_STORAGE = {"ids", "par", "dig", "dep", "dgs"}


def test_only_clocks_touches_trajectory_storage():
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "clocks"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in TRAJECTORY_STORAGE]
    assert not found, f"Trajectory storage read outside clocks: {found}"


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or (node.module or "").split(".")[0] == "rwre"
    return isinstance(node, ast.Import) and any(
        a.name.split(".")[0] == "rwre" for a in node.names)


def test_no_module_imports_the_package_inside_a_function():
    found = sorted({f"{path.name}:{node.lineno}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text()))
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn) if _imports_the_package(node)})
    assert not found, f"package imports inside functions: {found}"
