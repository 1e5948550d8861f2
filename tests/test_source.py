import ast
import contextlib
import importlib
import inspect
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
from collections import Counter, defaultdict

import numpy as np

import monolab
from monolab import cli
from monolab.chevalley import ChevalleyAlgebra
from monolab.rootsys import build_root_datum

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Method names that two or more classes define, with the package function that
# reads each owner's method.  A count of reads by bare name cannot tell the
# owners apart, so every owner of a shared name is listed here.
SHARED_METHOD_READERS = {
    "to_json_dict": {
        "RootDatum": "_cmd_roots",
        "KostantDecomposition": "_cmd_kostant",
        "PrimeScanReport": "_cmd_primescan",
        "CohomologyReport": "_cmd_cohomology",
        "PrimeBounds": "_cmd_bounds",
    },
}


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_sets_no_process_wide_state():
    # ctypes reaches into a linked library's settings and threading guards
    # shared ones; the package has neither, so it imports neither
    found = []
    for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in ("ctypes", "threading")]
    assert not found, found


def test_criterion_results_are_built_only_by_verify_paper():
    # a criterion yields (ok, detail) pairs; verify_paper alone turns them into a verdict
    builders = []
    for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> innermost enclosing function; ast.walk meets outer functions first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        builders += [
            f"{path.name}:{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CriterionResult"
        ]
    assert builders == ["verify.py:verify_paper"], builders


def test_a_built_algebra_keeps_its_table_only_in_arrays():
    # `entries` is the one store and `starts`, an int32 pointer, its one index;
    # a per-entry dict or list beside them would be a second copy of the table
    alg = ChevalleyAlgebra(build_root_datum("E8"))
    view = alg.mod(7)
    for obj in (alg, view):
        for name, value in vars(obj).items():
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                assert len(value) < alg.dim, name
            elif isinstance(value, np.ndarray):
                want = {"entries": np.int64, "starts": np.int32}[name]
                assert value.dtype == want and not value.flags.writeable, name
    assert view.entries is alg.entries and view.starts is alg.starts


def test_the_lie_path_leaves_numpy_random_unimported():
    # numpy.random is several MB of modules: imported, it would raise lie-scan's
    # peak RSS by about 2.7 MB, so seeded draws come from the random module
    code = (
        "import sys\n"
        "import monolab.cli\n"
        "from monolab.chevalley import build_chevalley_algebra, jacobi_sweep\n"
        "from monolab.principal_sl2 import principal_kostant\n"
        "jacobi_sweep(build_chevalley_algebra('E8'), samples=4000, seed=301)\n"
        "principal_kostant('E8')\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(monolab.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def _monolab_imports(tree):
    """(module, name) for every `from monolab... import name`, and (module, None) for `import monolab...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "monolab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "monolab")


def _benchmark_sources():
    """(file name, syntax tree) for each perfbench module and each SETUP_CODE string in it."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield path.name, tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets):
                yield path.name, ast.parse(ast.literal_eval(node.value))


def test_benchmark_imports_resolve():
    # the benchmark imports these names from the package; a deletion that
    # removed one would otherwise show only as failed benchmark operations
    found, missing = [], []
    for name_of_file, source in _benchmark_sources():
        for module, name in _monolab_imports(source):
            found.append((module, name))
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                try:
                    importlib.import_module(f"{module}.{name}")
                except ModuleNotFoundError:
                    missing.append(f"{name_of_file}: from {module} import {name}")
    assert ("monolab.cli", None) in found and ("monolab.group_cohomology", "h1_trivial_module_rank") in found
    assert not missing, missing


def _resolve(node, names):
    """The package object a call's function expression names (`fn` or `module.fn`), else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    obj = names[node.id]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_call_shapes_bind():
    # every call the benchmark makes to a package function, directly or as
    # ctx.call(span, fn, *args), must bind to that function's signature, so a
    # removed parameter fails here rather than as failed benchmark operations
    checked, unbound = set(), []
    for name_of_file, source in _benchmark_sources():
        names = {}
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "monolab":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    obj = getattr(mod, alias.name, None)
                    names[alias.asname or alias.name] = obj or importlib.import_module(f"{node.module}.{alias.name}")
        for node in ast.walk(source):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and getattr(func.value, "id", None) == "ctx":
                func, args = args[1], args[2:]
            fn = _resolve(func, names)
            if fn is None or not callable(fn) or inspect.isbuiltin(fn):  # e.g. an lru_cache's cache_clear
                continue
            if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
                raise AssertionError(f"{name_of_file}:{node.lineno}: a call with *args or **kwargs cannot be checked")
            try:
                inspect.signature(fn).bind(*args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{name_of_file}:{node.lineno}: {ast.unparse(node)}: {exc}")
            checked.add(getattr(fn, "__name__", repr(fn)))
    required = {
        "h1", "sym_module", "jacobi_sweep", "close_group", "memory_budget", "factor", "det_mod", "sl2_string_family_rows"
    }
    assert required <= checked, checked
    assert not unbound, unbound


def _names_read(tree):
    """Every identifier a syntax tree reads: variable names and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_has_a_reader():
    # a function, method or class that nothing in the package or the benchmark
    # names outside its own body is code only the tests need
    paths = sorted(pathlib.Path(monolab.__file__).parent.glob("*.py"))
    package = {path.name: ast.parse(path.read_text()) for path in paths}
    named = Counter(name for tree in package.values() for name in _names_read(tree))
    for _, source in _benchmark_sources():
        named.update(_names_read(source))
        named.update(alias.name for node in ast.walk(source) if isinstance(node, ast.ImportFrom) for alias in node.names)
    unread = [
        f"{file_name}:{node.lineno}: {node.name}"
        for file_name, tree in package.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and named[node.name] == Counter(_names_read(node))[node.name]
    ]
    assert not unread, unread
    # a method name on two or more classes needs a named reader for each owner
    owners, functions = defaultdict(set), {}
    for tree in package.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                        owners[method.name].add(node.name)
            elif isinstance(node, ast.FunctionDef):
                functions[node.name] = node
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert shared == {name: set(readers) for name, readers in SHARED_METHOD_READERS.items()}
    for name, readers in SHARED_METHOD_READERS.items():
        for owner, reader in readers.items():
            calls = [
                node
                for node in ast.walk(functions[reader])
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
            ]
            assert calls, f"{reader} does not call .{name}() on {owner}"


def test_each_cohomology_job_has_one_home():
    # the module check, factorisation and primality are each written once; the
    # Borel solver factors ell - 1 with `factor`, not by its own trial division
    sources = {path.name: path.read_text() for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py"))}
    assert sum(text.count("not a module: rho(g) M_j != rho(g s_j)") for text in sources.values()) == 1
    homes = defaultdict(list)
    for file_name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name in {"factor", "is_prime"}:
                homes[node.name].append(file_name)
    assert homes == {"factor": ["exact.py"], "is_prime": ["exact.py"]}
    assert not re.search(r"% *\w+ *== *0", sources["group_cohomology.py"])


def test_integer_elimination_has_one_home():
    # every unimodular reduction over ZZ is `exact._column_reduce`, called by the integer
    # kernel and the diagonal form alone; in group_cohomology only the trivial-module
    # oracle reads either, so no H^1 solver reaches the loop or its `_xgcd` step
    files = [*pathlib.Path(monolab.__file__).parent.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    trees = {f.name: ast.parse(f.read_text()) for f in files}
    defs = sorted((name, n.name) for name, t in trees.items() for n in ast.walk(t) if isinstance(n, ast.FunctionDef))
    assert [d for d in defs if d[1] in {"_column_reduce", "_xgcd", "_smith_divisors"}] == [
        ("exact.py", "_column_reduce"),
        ("exact.py", "_xgcd"),
    ]

    def readers(tree, names):
        return {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and names & set(_names_read(fn))
        }

    assert set().union(*(readers(t, {"_column_reduce"}) for t in trees.values())) == {"integer_kernel", "diagonal_divisors"}
    assert readers(trees["group_cohomology.py"], {"_column_reduce", "_xgcd", "integer_kernel", "diagonal_divisors"}) == {
        "h1_trivial_module_rank"
    }
    # no identifier, import or attribute anywhere names the deleted second elimination
    imported = {alias.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert "_smith_divisors" not in imported | {name for t in trees.values() for name in _names_read(t)}


def test_solver_cross_checks_have_one_home():
    # the CLI runs no oracle solver; in the cohomology tests only the cross-check table
    # and the error-path, layout and peak tests named here read h1_naive
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "h1_naive" not in imported | set(_names_read(tree))
    body = ast.parse((ROOT / "tests" / "test_group_cohomology.py").read_text()).body
    readers = {
        node.name if hasattr(node, "name") else node.targets[0].id
        for node in body
        if any(isinstance(n, ast.Name) and n.id == "h1_naive" for n in ast.walk(node))
    }
    assert readers == {
        "SOLVERS",  # the table runner's solvers
        "test_cross_check_fails_on_a_disagreement_or_a_missed_value",
        "test_module_group_mismatch_rejected",
        "test_non_modules_rejected_off_sl2",
        "test_naive_columns_newest_element_first",
        "test_naive_peak_on_sl2_7_sym3",
    }


def test_each_root_fact_has_one_home():
    # the root-string walk is `RootDatum.string_depth`, run on the pairs asked, and the
    # center order is read off the highest root: CENTER_ORDERS is a table of the tests alone
    sources = {path.name: path.read_text() for path in sorted(pathlib.Path(monolab.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items() if "string_depths" in text] == []
    homes = [
        file_name
        for file_name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "string_depth"
    ]
    assert homes == ["rootsys.py"]
    assert [name for name, text in sources.items() if "CENTER_ORDERS" in text] == []
    # the node numbering is written only in `cartan_matrix`: -w0 is read off `RootDatum.diagram_symmetries`
    defs = {name: [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)] for name, text in sources.items()}
    assert [name for name, nodes in defs.items() for node in nodes if node.name == "diagram_symmetries"] == ["rootsys.py"]
    (opposition,) = [node for node in defs["chevalley.py"] if node.name == "_opposition"]
    assert not [node for node in ast.walk(opposition) if isinstance(node, (ast.List, ast.Dict))]
    # the root lengths are the symmetrizer read off `integer_kernel`, so `diagram_symmetries` is the one diagram walk
    (lengths,) = [node for node in defs["rootsys.py"] if node.name == "_root_lengths"]
    assert not [node for node in ast.walk(lengths) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert "integer_kernel" in set(_names_read(lengths))


def test_reference_lists_have_one_copy():
    # fixtures reads the paper's lists from data/reference_lists.json: no list, tuple, dict or set
    # display in the module spells a number, so the data file is their one copy
    tree = ast.parse((pathlib.Path(monolab.__file__).parent / "fixtures.py").read_text())
    displays = [node for node in ast.walk(tree) if isinstance(node, (ast.List, ast.Tuple, ast.Dict, ast.Set))]
    assert not [
        ast.unparse(node)
        for display in displays
        for node in ast.walk(display)
        if isinstance(node, ast.Constant) and type(node.value) is int
    ]


def _reached(graph, start):
    """The modules that importing start loads: start and, transitively, every package module it imports."""
    seen, todo = set(), [start]
    while todo:
        if (name := todo.pop()) not in seen:
            seen.add(name)
            todo += graph[name]
    return seen


def test_lower_layers_leave_group_cohomology_unloaded():
    # the memory budget lives in exact, so the root, table, scan and reference layers load no cohomology code
    graph = {
        path.stem: {
            node.module or alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for path in pathlib.Path(monolab.__file__).parent.glob("*.py")
    }
    lower = ("exact", "rootsys", "chevalley", "principal_sl2", "prime_scan", "fixtures", "selmer_arith")
    assert {name: "group_cohomology" in _reached(graph, name) for name in lower} == dict.fromkeys(lower, False)
    assert "group_cohomology" in _reached(graph, "verify")  # a control: the walk sees an import that exists


def test_signed_maps_have_one_builder():
    # sigma and the Frenkel-Kac certificate share `chevalley._signed_map`: no copy of it or of its old check remains
    files = [*pathlib.Path(monolab.__file__).parent.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    defs = [(f.name, n.name) for f in files for n in ast.walk(ast.parse(f.read_text())) if isinstance(n, ast.FunctionDef)]
    assert [d for d in defs if d[1] in {"_signed_map", "frenkel_kac_signs", "_check_involution"}] == [("chevalley.py", "_signed_map")]


def _readme_block(heading, language=""):
    """The first fenced block under a README heading."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    # each print with a trailing comment prints that comment's text
    code = _readme_block("Library", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = dict(zip((line for line in code.splitlines() if line.startswith("print(")), out.getvalue().splitlines()))
    expected = {line: line.rpartition("# ")[2] for line in printed if "# " in line}
    assert set(expected.values()) == {"(1, 4, 5, 7, 8, 11)", "(2, 3, 5, 7, 11)"}
    assert {line: printed[line] for line in expected} == expected


def test_readme_command_lines_parse():
    # parsed only: every documented command line is accepted by the CLI's parser
    lines = [line.split("#")[0] for line in _readme_block("Command line").splitlines() if line.startswith("monolab ")]
    assert len(lines) == 9
    for line in lines:
        ns = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert ns.subcommand == shlex.split(line)[1], line
