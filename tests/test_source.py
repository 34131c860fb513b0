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


# names of the size-bound policy: the defaults, the error, the parameters
BOUND_NAMES = {"DEFAULT_MAX_ORDER", "DEFAULT_MAX_GROUP", "OrderTooLarge", "max_order", "max_group"}


def test_size_bounds_are_defined_in_cli_only():
    # library calls take no bound: only cli assigns a default, raises
    # OrderTooLarge or has a max_order or max_group parameter
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
    assert (cli.DEFAULT_MAX_ORDER, cli.DEFAULT_MAX_GROUP) == (13, 49)
