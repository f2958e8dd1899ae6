import ast
import glob
import os
import re
from collections import Counter

from pcsgd.sgd import CV_ORDERS, HESSIAN_MODES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pcsgd")

# Public names that only callers outside the package use: the coefficient-dump reader is
# user API.
CALLED_FROM_OUTSIDE = {"load_coefficients"}
# The modules above the kernel: the SGD loop and the analysis layer are siblings, and only
# the experiments and the package's re-exports import either.
TOP_LAYER = {"sgd", "evaluation"}
IMPORTS_TOP_LAYER = {"experiments", "__init__"}
# `import pcsgd` loads the solver and the evaluation: neither the experiment runner and the
# command line nor, until a pooled pass or an experiment needs them, these packages.
NOT_ON_IMPORT = {"experiments", "cli"}
NOT_AT_LOAD = {"configparser", "hashlib", "concurrent"}


def test_no_source_line_is_over_100_characters():
    long_lines = [
        f"{os.path.basename(path)}:{number}"
        for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
        for number, line in enumerate(open(path, encoding="utf-8"), 1)
        if len(line.rstrip("\n")) > 100
    ]
    assert long_lines == []


def _relative_imports(tree):
    """Modules that a tree imports with `from .x import ...` or `from . import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else [alias.name for alias in node.names]


def test_only_the_experiments_import_the_sgd_loop_or_the_evaluation():
    edges = {
        (os.path.basename(path)[:-3], module)
        for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
        for module in _relative_imports(ast.parse(open(path, encoding="utf-8").read()))
        if module in TOP_LAYER
    }
    assert {edge for edge in edges if edge[0] not in IMPORTS_TOP_LAYER} == set()
    assert ("experiments", "sgd") in edges  # the scan sees the edges it allows


def _imports_run_at_load(node):
    """Absolute imports that run when the module loads: those outside any function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_run_at_load(child)


def test_importing_the_package_loads_no_experiment_layer():
    """`__init__` and every module it imports, followed through relative imports."""
    seen, todo, found = set(), ["__init__"], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(open(os.path.join(SRC, f"{name}.py"), encoding="utf-8").read())
        relative = set(_relative_imports(tree))
        found += [f"{name} imports .{module}" for module in relative & NOT_ON_IMPORT]
        found += [
            f"{name} imports {module} at load"
            for module in _imports_run_at_load(tree)
            if module.split(".")[0] in NOT_AT_LOAD
        ]
        todo += relative - NOT_ON_IMPORT
    assert found == []
    assert {"sgd", "evaluation", "random_field"} <= seen  # the scan follows the imports


def test_no_mode_string_below_the_sgd_loop():
    """`run` turns `cv_mode` and `hessian_mode` into an order and a flag.

    The kernel and the evaluation below it hold no string of either vocabulary.
    """
    vocabulary = {*CV_ORDERS, *HESSIAN_MODES}
    found = [
        f"{name}:{node.lineno} {node.value!r}"
        for name in ("estimators.py", "evaluation.py")
        for node in ast.walk(ast.parse(open(os.path.join(SRC, name), encoding="utf-8").read()))
        if isinstance(node, ast.Constant) and node.value in vocabulary
    ]
    assert found == []


def _definitions(tree):
    """Module-level functions and classes, and the classes' methods."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for definition in [node, *members]:
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                yield definition


def _names(node) -> Counter:
    """Identifiers and attribute names read or written anywhere in `node`."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _source_trees():
    """The package's modules but `__init__`, whose re-exports use nothing."""
    return [
        ast.parse(open(path, encoding="utf-8").read())
        for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
        if os.path.basename(path) != "__init__.py"
    ]


def _unused_outside_itself(definition, used: Counter) -> bool:
    return used[definition.name] == _names(definition)[definition.name]


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    """A public function, class or method that only tests call is a test-only layer.

    A use inside the name's own definition or a re-export in `__init__` does
    not count; `perfbench` counts by any mention, since it wraps methods by name.
    """
    trees = _source_trees()
    used = sum((_names(tree) for tree in trees), Counter())
    bench = "\n".join(
        open(path, encoding="utf-8").read()
        for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    )
    unused = {
        definition.name
        for tree in trees
        for definition in _definitions(tree)
        if not definition.name.startswith("_")
        and _unused_outside_itself(definition, used)
        and not re.search(rf"\b{definition.name}\b", bench)
    }
    assert unused == CALLED_FROM_OUTSIDE


def test_every_private_function_is_used_by_the_package():
    """A private function or method that nothing in the package calls is dead code.

    Tests and `perfbench` do not count: they may not reach into private helpers.
    A use inside the function's own definition does not count either.
    """
    trees = _source_trees()
    used = sum((_names(tree) for tree in trees), Counter())
    unused = {
        definition.name
        for tree in trees
        for definition in _definitions(tree)
        if isinstance(definition, ast.FunctionDef)
        and definition.name.startswith("_")
        and not (definition.name.startswith("__") and definition.name.endswith("__"))
        and _unused_outside_itself(definition, used)
    }
    assert unused == set()


def _run_calls(node) -> int:
    """Calls of `run` or `<module>.run` anywhere in `node`."""
    return sum(
        isinstance(sub, ast.Call)
        and getattr(sub.func, "id" if isinstance(sub.func, ast.Name) else "attr", None) == "run"
        for sub in ast.walk(node)
    )


def test_only_the_one_solve_function_runs_sgd_in_the_experiments():
    """Every SGD solve of a study goes through `_solve(config)`, which builds its own problem."""
    tree = ast.parse(open(os.path.join(SRC, "experiments.py"), encoding="utf-8").read())
    [solve] = [definition for definition in _definitions(tree) if definition.name == "_solve"]
    assert _run_calls(tree) == _run_calls(solve) == 1


def _is_call(node, module: str, attr: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    )


def test_the_one_fork_ends_its_child_in_os_exit():
    """`os.fork(` has one call site, and its child branch is a `try` ending in `os._exit`.

    So the child, whatever it raises, never returns into its caller's stack: a test
    runner or the command line would otherwise run on in two processes.
    """
    trees = _source_trees()
    forks = [
        (tree, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_call(node.value, "os", "fork")
    ]
    calls = sum(_is_call(node, "os", "fork") for tree in trees for node in ast.walk(tree))
    assert len(forks) == calls == 1
    tree, assign = forks[0]
    [pid] = assign.targets
    [child] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == pid.id
        and isinstance(node.test.ops[0], ast.Eq)
        and getattr(node.test.comparators[0], "value", None) == 0
    ]
    last = child.body[-1]
    assert isinstance(last, ast.Try) and last.finalbody, "the child branch does not end in a try"
    exit_call = last.finalbody[-1]
    assert isinstance(exit_call, ast.Expr) and _is_call(exit_call.value, "os", "_exit")
