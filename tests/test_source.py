"""Static checks on the package source."""

import ast
import pathlib

import affineplane

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
