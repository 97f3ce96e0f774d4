"""Every top-level function and class in the package, and every public method
of its classes, has a caller outside tests.

Code that only tests call belongs in tests/oracles.py, or nowhere.  A name
counts as used when package code other than its own definition, or a bench
script, refers to it: as a name, an attribute, an import, or (in bench,
whose tracer patches call sites by name) a dotted string constant.  A method
counts as used only through an attribute (``obj.method``), since a local
variable may share its name.

Every parameter default in the package is overridden by some call in the
package or in bench; a default that no call overrides is a constant.

Every module-level import in the package and in the tests is read by its
module, too, and the third-party modules the package imports are exactly
the dependencies that pyproject.toml declares.  An import kept unread on
purpose must be a call site that bench/tracer.py patches.

Every local name a package function assigns, and every parameter it takes,
is read by that function or a function nested in it; a name starting with
``_`` is exempt.

Every signature that README.md quotes in backticks, such as
``fit_dag_ml(dag, cov, n)``, lists the package function's parameters in
order, and README.md's "Library use" example runs.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from stablesearch.export import dataset_csv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stablesearch"

# imports their module never reads, each kept on purpose
KEPT_IMPORTS = {
    # bench/tracer.py wraps stablesearch.longitudinal.sample_covariance by name
    "longitudinal.sample_covariance",
    # bench/tracer.py wraps stablesearch.search.fit_dag_ml by name
    "search.fit_dag_ml",
    # bench/tracer.py wraps stablesearch.stability.evolve by name; the
    # subsets' searches run through search.pareto_fronts
    "stability.evolve",
}


def referenced_names(tree: ast.AST, strings: bool) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"[\w.]+", node.value)
        ):
            out.update(node.value.split("."))
    return out


def test_every_top_level_name_has_a_caller_outside_tests():
    defined = []
    uses = []  # (defining top-level name or None, names referenced there)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                defined.append((path.name, owner))
            uses.append((owner, referenced_names(node, strings=False)))
    for path in sorted((ROOT / "bench").glob("*.py")):
        uses.append((None, referenced_names(ast.parse(path.read_text()), strings=True)))
    assert len(defined) > 100  # the scan found the package

    def has_caller(name):
        return any(name in names for owner, names in uses if owner != name)

    unused = [f"{module}:{name}" for module, name in defined if not has_caller(name)]
    assert unused == []


def test_every_public_method_has_a_caller_outside_tests():
    defined = []
    uses = []  # (defining (class, method) or None, attribute names read there)
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            parts = [(None, node)]
            if path.parent == PACKAGE and isinstance(node, ast.ClassDef):
                parts = [
                    ((node.name, item.name) if isinstance(item, ast.FunctionDef) else None, item)
                    for item in node.body
                ]
                defined += [
                    (path.name, owner) for owner, _ in parts
                    if owner and not owner[1].startswith("_")
                ]
            for owner, part in parts:
                attrs = {n.attr for n in ast.walk(part) if isinstance(n, ast.Attribute)}
                uses.append((owner, attrs))
    assert len(defined) > 10  # the scan found the methods

    def has_caller(owner):
        return any(owner[1] in attrs for user, attrs in uses if user != owner)

    unused = [
        f"{module}:{cls}.{name}" for module, (cls, name) in defined
        if not has_caller((cls, name))
    ]
    assert unused == []


def defaulted_parameters(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position or None if keyword-only) for every
    parameter with a default.  A method's positions skip self or cls, and
    __init__ is called by its class's name."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            continue
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = scope.name if fn.name == "__init__" else fn.name
            bound = isinstance(scope, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
            )
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            out += [(name, a.arg, i - bound) for i, a in enumerate(args) if i >= first]
            out += [
                (name, a.arg, None)
                for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
    return out


def test_every_defaulted_parameter_is_passed_by_some_call():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        defined += [(path.name, *d) for d in defaulted_parameters(ast.parse(path.read_text()))]
    calls = [
        node
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    assert len(defined) > 20  # the scan found the defaults

    def passes(call, name, param, position):
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != name:
            return False
        if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
        )

    unpassed = [
        f"{module}:{name}({param}=...)"
        for module, name, param, position in defined
        if not any(passes(call, name, param, position) for call in calls)
    ]
    assert unpassed == []


def test_every_module_level_import_is_read():
    unread = []
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.stem}.{name}" for name in bound
            if name not in read and f"{path.stem}.{name}" not in KEPT_IMPORTS
        ]
    assert len(paths) > 20  # the scan found the package and the tests
    assert unread == []


def test_kept_imports_are_tracer_call_sites():
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    sites = next(
        ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CALL_SITES"]
    )
    patched = {f"{module.removeprefix('stablesearch.')}.{attr}" for module, attr, _ in sites}
    assert KEPT_IMPORTS <= patched


def outermost_functions(node: ast.AST):
    """The functions and lambdas under node that no other function encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
        else:
            yield from outermost_functions(child)


def test_every_assigned_local_is_read():
    unread = []
    functions = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in outermost_functions(ast.parse(path.read_text())):
            functions += 1
            # nested functions are walked with their encloser: a closure reads its names
            names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
            read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
            unread += sorted({
                f"{path.stem}.{getattr(fn, 'name', 'lambda')}:{node.id}" for node in names
                if isinstance(node.ctx, ast.Store) and node.id not in read
                and not node.id.startswith("_")
            })
    assert functions > 100  # the scan found the package's functions
    assert unread == []


def test_every_parameter_is_read():
    unread = []
    functions = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in outermost_functions(ast.parse(path.read_text())):
            functions += 1
            # nested functions and lambdas are walked with their encloser
            read = {
                node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            params = [node.arg for node in ast.walk(fn) if isinstance(node, ast.arg)]
            unread += sorted({
                f"{path.stem}.{getattr(fn, 'name', 'lambda')}:{name}" for name in params
                if name not in read and not name.startswith("_")
            })
    assert functions > 100  # the scan found the package's functions
    assert unread == []


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[\w-]+", dep).group().replace("-", "_") for dep in declared}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):  # inside functions too
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"stablesearch"}
    assert third_party == names


def package_objects(dotted: str) -> list:
    """The package functions and classes ``dotted`` names, each defined in its module."""
    parts = dotted.removeprefix("stablesearch.").split(".")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"stablesearch.{path.stem}")
        obj = module
        for part in parts[1:] if parts[0] == path.stem else parts:
            obj = getattr(obj, part, None)
        if obj is not None and getattr(obj, "__module__", None) == module.__name__:
            found.append(obj)
    return found


def test_readme_signatures_match_the_package():
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    quoted = re.findall(r"`([\w.]+)\(([\w\s,]*)\)`", readme)
    names = {dotted.rsplit(".", 1)[-1] for dotted, _ in quoted}
    assert {"run_pipeline", "run_longitudinal", "sample_sem", "_meek_closure",
            "fit_dag_ml", "require"} <= names
    for dotted, params in quoted:
        (obj,) = package_objects(dotted)
        actual = [name for name in inspect.signature(obj).parameters if name != "self"]
        assert re.findall(r"\w+", params) == actual, dotted


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S)
    # the data.csv it reads: a three-variable chain
    rng = np.random.default_rng(0)
    values = rng.standard_normal((200, 3))
    values[:, 1] += 0.8 * values[:, 0]
    values[:, 2] += 0.7 * values[:, 1]
    (tmp_path / "data.csv").write_text(dataset_csv(("A", "B", "C"), values))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    pi_bic, relevant = capsys.readouterr().out.split(" ", 1)
    assert 0 <= int(pi_bic) <= 3 and relevant.startswith("[")
