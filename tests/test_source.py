"""Static checks on the package source."""

import ast
import pathlib

import affineplane
from affineplane import cli

PACKAGE = pathlib.Path(affineplane.__file__).parent


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements: every check must be an if/raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert found == []


# names of the size-bound policy: the default, the listing cap, the error, the parameter
BOUND_NAMES = {"DEFAULT_MAX_ORDER", "MAX_DUMP_ENTRIES", "OrderTooLarge", "max_order"}


def test_size_bounds_are_defined_in_cli_only():
    # library calls take no bound: only cli assigns a default, raises
    # OrderTooLarge or has a max_order parameter
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                names = [getattr(node.exc.func, "id", None)]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            else:
                continue
            found |= {(path.name, name) for name in names if name in BOUND_NAMES}
    assert found == {("cli.py", name) for name in BOUND_NAMES}
    assert cli.DEFAULT_MAX_ORDER == 13


def test_no_module_reads_the_environment():
    # --max-order is the one bound, and only the command line sets it
    names = {"environ", "environb", "getenv"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert found == []


def test_gc_is_named_only_in_cli_run():
    # the process entry turns the collector off and leaves by os._exit;
    # main() and the library leave both to their caller, and nothing
    # registers atexit work, which os._exit would skip.  `python -m
    # affineplane` turns the collector off before it imports cli too
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope_of = {}
        for node in ast.walk(tree):  # outer scopes first, so the innermost wins
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope_of.update((child, node.name) for child in ast.walk(node))
        for node in ast.walk(tree):
            for name in ("gc", "_exit", "atexit"):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and node.name == name
                        or isinstance(node, ast.ImportFrom) and node.module == name):
                    found.add((path.name, scope_of.get(node, "<module>"), name))
    assert found == {("cli.py", "run", "gc"), ("cli.py", "run", "_exit"),
                     ("__main__.py", "<module>", "gc")}


def test_package_has_no_annotation():
    # no command compiles annotation text: the package declares types in
    # its docstrings, and so has nothing for `from __future__ import
    # annotations` to defer
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.arg) and node.annotation is not None:
                found.append(f"{path.name}:{node.lineno}: {node.arg}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                found.append(f"{path.name}:{node.lineno}: {node.name} ->")
            elif isinstance(node, ast.AnnAssign):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.target)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
                found.append(f"{path.name}:{node.lineno}: __future__")
    assert found == []
