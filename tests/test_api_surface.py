"""Every public function, class and method of cablefield has a caller.

A public name that only tests reach is API without a user: reference
operators and checks that exist for the tests belong in tests/oracles.py.
The check is syntactic: a definition counts as used when its name appears
as a name, an attribute or an imported name in any module of the package
or in any demo.  The re-exports of ``__init__`` do not count: a name that
only ``__init__`` imports has no caller.  Dunders and underscore names are
exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cablefield").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
