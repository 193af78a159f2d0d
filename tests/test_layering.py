"""Inference, evaluation and the graph code must not need the training
module: walking the package imports of ``evaluate.py``, ``model.py`` and
``graph.py``, and of every package module they import, finds no ``train``.
``metrics`` imports no package module at all: a ranking is a plain int."""

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
