"""Every public function, class and method of cablefield has a caller, and
every defaulted parameter of one is set by some caller.

A public name that only tests reach is API without a user: reference
operators and checks that exist for the tests belong in tests/oracles.py.
The check is syntactic: a definition counts as used when its name appears
as a name, an attribute or an imported name in any module of the package
or in any demo.  The re-exports of ``__init__`` do not count: a name that
only ``__init__`` imports has no caller.  Dunders and underscore names are
exempt.

A defaulted parameter that no caller sets is a knob without a user: a
value only a test changes is a module constant the test can patch.  A
parameter counts as set when some call of the function's name (of the
class, for ``__init__``) in the package, a demo or perfbench (whose op
calls ``cli.main(argv)``) passes it by keyword or by position, or passes
``*args`` or ``**kwargs``.

An annotated field that nothing reads is state without a user: every
annotated field of a class of the package must appear as an attribute in
some module of the package or in some demo (``__init__`` again does not
count), so an object keeps no data that only tests look at.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cablefield").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree):
    """(qualified name, name) of the module's public functions, classes and
    the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + DEMOS}
    used = {name for path, tree in trees.items() if path.name != "__init__.py"
            for name in referenced_names(tree)}
    unused = [f"{path.stem}.{qualified}"
              for path in SOURCES
              for qualified, name in public_definitions(trees[path])
              if name not in used]
    assert not unused, f"public names that nothing in src/ or demos/ uses: {unused}"


def public_callables(tree):
    """(qualified name, called name, definition, is a method) of the
    module's public functions and of its public classes' ``__init__``
    (called by the class name) and public methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, node.name, item, True
                elif not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def defaulted_parameters(tree):
    """(qualified name, called name, parameter, position) of every defaulted
    parameter of a public callable.  The position counts the arguments of a
    call, so a method's skips ``self``; a keyword-only parameter has none."""
    for qualified, called, fn, method in public_callables(tree):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield qualified, called, arg.arg, i - 1 if method else i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def sets_parameter(call, name, position):
    """Whether the call passes the parameter, or may through *args/**kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_caller_outside_the_tests():
    calls = {}
    for path in SOURCES + DEMOS + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [f"{path.stem}.{qualified}({param})"
             for path in SOURCES
             for qualified, called, param, position in
             defaulted_parameters(ast.parse(path.read_text(), filename=str(path)))
             if not any(sets_parameter(call, param, position)
                        for call in calls.get(called, []))]
    assert not unset, f"defaulted parameters that no caller in src/, demos/ or perfbench/ sets: {unset}"


def annotated_fields(tree):
    """(qualified name, name) of the annotated fields of the module's classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def test_every_field_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + DEMOS}
    read = {node.attr for path, tree in trees.items() if path.name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f"{path.stem}.{qualified}"
              for path in SOURCES
              for qualified, name in annotated_fields(trees[path])
              if name not in read]
    assert not unread, f"fields that nothing in src/ or demos/ reads: {unread}"
