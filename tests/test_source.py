import ast
import importlib
import pathlib

import monolab

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _monolab_imports(tree):
    """(module, name) for every `from monolab... import name`, and (module, None) for `import monolab...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "monolab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "monolab")


def test_benchmark_imports_resolve():
    # the benchmark imports these names from the package; a deletion that
    # removed one would otherwise show only as failed benchmark operations
    found, missing = [], []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sources = [tree] + [
            ast.parse(ast.literal_eval(node.value))
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets)
        ]
        for source in sources:
            for module, name in _monolab_imports(source):
                found.append((module, name))
                mod = importlib.import_module(module)
                if name is not None and not hasattr(mod, name):
                    try:
                        importlib.import_module(f"{module}.{name}")
                    except ModuleNotFoundError:
                        missing.append(f"{path.name}: from {module} import {name}")
    assert ("monolab.cli", None) in found and ("monolab.group_cohomology", "h1_trivial_module_rank") in found
    assert not missing, missing
