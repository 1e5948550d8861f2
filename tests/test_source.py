import ast
import pathlib

import monolab


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
