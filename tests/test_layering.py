"""Inference, evaluation and the graph code must not need the training
module: walking the package imports of ``evaluate.py``, ``model.py`` and
``graph.py``, and of every package module they import, finds no ``train``.
``metrics`` imports no package module at all: a ranking is a plain int.
Only ``grad.fused`` builds a tape Node with parents."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypersess"


def package_imports(module):
    """The package modules that ``hypersess/<module>.py`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                yield from (a.name for a in node.names)
            elif node.level == 1:  # from .a import b
                yield node.module.split(".")[0]
            elif (node.module or "").startswith("hypersess."):
                yield node.module.split(".")[1]
            elif node.module == "hypersess":
                yield from (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("hypersess."))


def reached_from(roots):
    seen, stack = set(), list(roots)
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(package_imports(module))
    return seen


def test_evaluation_and_model_do_not_import_train():
    reached = reached_from(["evaluate", "model", "graph"])
    assert {"evaluate", "model", "graph", "grad", "manifold", "metrics"} <= reached
    assert "train" not in reached
    assert "train" in reached_from(["cli"])  # the walk does see an import of train


def test_metrics_imports_no_package_module():
    assert list(package_imports("metrics")) == []
    assert "model" in package_imports("evaluate")  # the walk does see an import of model


def parent_node_calls(tree, where=()):
    """The enclosing function names of each ``Node(...)`` call that passes
    parents (leaf Nodes, with a value alone, may be made anywhere)."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        where = where + (getattr(tree, "name", "<lambda>"),)
    if isinstance(tree, ast.Call):
        func = tree.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Node" and (len(tree.args) > 1
                               or any(isinstance(a, ast.Starred) for a in tree.args)
                               or any(k.arg in ("parents", None) for k in tree.keywords)):
            yield where
    for child in ast.iter_child_nodes(tree):
        yield from parent_node_calls(child, where)


def test_only_fused_builds_nodes_with_parents():
    found = {(path.stem,) + where for path in sorted(PACKAGE.glob("*.py"))
             for where in parent_node_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("grad", "fused")}
