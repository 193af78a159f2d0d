"""Inference, evaluation and the graph code must not need the training
module: walking the package imports of ``evaluate.py``, ``model.py`` and
``graph.py``, and of every package module they import, finds no ``train``.
``metrics`` imports no package module at all: a ranking is a plain int.
Only ``grad.fused`` builds a tape Node with parents, only
``graph.batch_events`` numbers nodes and hands transitions to
``graph._merge``, the one merge of repeated transitions, every batch is a
session store's, evaluation builds no per-session graph, and training takes
its minibatches from its store."""

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


def calls(tree, where=()):
    """Each call in ``tree`` as (enclosing function names, called name, call);
    the called name is ``f`` of ``f(...)`` and of ``x.f(...)``."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        where = where + (getattr(tree, "name", "<lambda>"),)
    if isinstance(tree, ast.Call):
        func = tree.func
        yield where, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), tree
    for child in ast.iter_child_nodes(tree):
        yield from calls(child, where)


def parent_node_calls(tree):
    """The enclosing function names of each ``Node(...)`` call that passes
    parents (leaf Nodes, with a value alone, may be made anywhere)."""
    for where, name, call in calls(tree):
        if name == "Node" and (len(call.args) > 1
                               or any(isinstance(a, ast.Starred) for a in call.args)
                               or any(k.arg in ("parents", None) for k in call.keywords)):
            yield where


def test_only_fused_builds_nodes_with_parents():
    found = {(path.stem,) + where for path in sorted(PACKAGE.glob("*.py"))
             for where in parent_node_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("grad", "fused")}


SORTS = ("sorted", "sort", "lexsort", "argsort")


def package_calls(called):
    """(module, enclosing function names) of each call of ``called`` in the package."""
    return {(path.stem,) + where for path in sorted(PACKAGE.glob("*.py"))
            for where, name, _ in calls(ast.parse(path.read_text(encoding="utf-8")))
            if name == called}


def test_one_builder_numbers_nodes_and_merges_transitions():
    """A session graph is its events; ``graph.batch_events`` alone numbers
    the nodes (its stable argsort by (session, code)) and hands the
    transitions to ``graph._merge``, whose one lexsort is the one place a
    pair clicked more than once keeps its smallest interval.  So the only
    functions of ``graph.py`` that sort are those two, ``_merge`` has one
    caller, and ``SessionGraph`` is made only from events, in
    ``build_session_graph`` and ``examples_from_records``."""
    graph = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))
    assert {where for where, name, _ in calls(graph) if name in SORTS} == {
        ("_merge",), ("batch_events",)}
    assert {where for where, name, _ in calls(graph) if name == "_merge"} == {("batch_events",)}
    assert package_calls("SessionGraph") == {("graph", "build_session_graph"),
                                             ("graph", "examples_from_records")}
    # every GraphBatch is the builder's, called by the session store alone
    assert package_calls("GraphBatch") == {("graph", "batch_events")}
    assert package_calls("batch_events") == {("graph", "graph_batch")}
    # evaluation fills a store from records, training, forward_session and
    # batch_graphs from session graphs
    assert package_calls("SessionBatch") == {
        ("graph", "take"), ("graph", "graph_sessions"), ("graph", "batch_sessions")}
    assert package_calls("graph_sessions") == {("graph", "batch_graphs"), ("model", "forward_session"),
                                               ("train", "session_store")}
    assert package_calls("graph_batch") == {("graph", "batch_graphs"), ("model", "forward_session"),
                                            ("train", "batch_losses"), ("evaluate", "_rank_block")}
    seen = ast.parse("def f(r):\n    return sorted(r.items())\n"
                     "def g(a, b):\n    a.sort()\n    return np.lexsort((a, b)), np.argsort(b)\n"
                     "h = lambda x: x.sorted_keys()\n")
    assert [(where, name) for where, name, _ in calls(seen) if name in SORTS] == [
        (("f",), "sorted"), (("g",), "sort"), (("g",), "lexsort"), (("g",), "argsort")]


def test_minibatches_are_taken_from_the_store():
    """``fit`` takes each minibatch from its session store: ``train.py``
    makes no ``ModelParams`` but the one ``load_checkpoint`` reads, binds no
    sub-catalog with ``replace(..., items=...)``, and neither ``fit`` nor
    ``batch_losses`` builds graphs or examples from objects."""
    tree = ast.parse((PACKAGE / "train.py").read_text(encoding="utf-8"))
    found = list(calls(tree))
    assert {where for where, name, _ in found if name == "ModelParams"} == {("load_checkpoint",)}
    assert not [where for where, name, call in found
                if name == "replace" and any(k.arg == "items" for k in call.keywords)]
    objects = {"batch_graphs", "graph_columns", "examples_from_records"}
    assert not {(where, name) for where, name, _ in found
                if where[:1] in (("fit",), ("batch_losses",)) and name in objects}
    seen = ast.parse("def f(p, ex):\n    q = replace(p, items=[], x=1)\n    return batch_graphs(ex)\n")
    assert [(where, name, [k.arg for k in call.keywords]) for where, name, call in calls(seen)] == [
        (("f",), "replace", ["items", "x"]), (("f",), "batch_graphs", [])]


def test_evaluation_builds_no_session_graphs():
    """``evaluate`` reads test sessions through ``graph.batch_sessions``
    alone: it calls none of the per-session graph and example builders."""
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    called = {name for _, name, _ in calls(tree)}
    assert "batch_sessions" in called  # the walk does see the calls of evaluate
    assert called.isdisjoint({"examples_from_records", "build_session_graph",
                              "batch_graphs", "forward_graphs"})

def row_sum_calls(tree):
    """The line of each ``sum`` or ``add.reduce`` call over the last axis of
    a matrix (``np.sum(x, axis=-1)``, ``x.sum(1)``, ``np.add.reduce(x, 1)``,
    ...): axis -1 or 1, by keyword or by position."""
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "reduce" and getattr(func.value, "attr", None) == "add":
            position = 1  # np.add.reduce(x, axis)
        elif func.attr == "sum":
            # np.sum(x, axis) against x.sum(axis)
            position = 1 if getattr(func.value, "id", None) in ("np", "numpy") else 0
        else:
            continue
        axes = [k.value for k in node.keywords if k.arg == "axis"] + node.args[position:position + 1]
        for axis in axes:
            try:
                if ast.literal_eval(axis) in (-1, 1):
                    yield node.lineno
            except ValueError:  # an axis held in a variable
                pass


def test_row_products_go_through_rowdot():
    """A last-axis sum of products runs numpy's short inner loop per row;
    ``grad.rowdot`` (``np.vecdot``) is one BLAS dot per row and the package's
    one row-product kernel, so ``src/`` makes no row sum at all."""
    found = {(path.stem, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in row_sum_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == set()
    seen = ast.parse("np.sum(a * b, axis=-1)\nnp.add.reduce(a * b, axis=1, keepdims=True)\n"
                     "(a * b).sum(-1)\nnp.sum(a, 1)\nnumpy.add.reduce(a, -1)\n"
                     "np.sum(a, axis=0)\nx.sum(axis=ax)\nnp.sum(a)\nsum(a, 1)\nx.sum(0)\n")
    assert list(row_sum_calls(seen)) == [1, 2, 3, 4, 5]


def sqrt_of_rowdot(tree):
    """(function, line) of each ``sqrt`` of a ``rowdot`` in a module-level
    function: a ``rowdot`` call inside the argument, or a name the function
    assigns from an expression that calls ``rowdot``."""
    def calls_rowdot(expr):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
                   == "rowdot" for n in ast.walk(expr))

    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and calls_rowdot(node.value)
                 for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sqrt"
                    and any(calls_rowdot(a) or any(isinstance(n, ast.Name) and n.id in names
                                                   for n in ast.walk(a)) for a in node.args)):
                yield fn.name, node.lineno


def test_row_norms_go_through_norm():
    """The zero-row rule lives in ``manifold._norm``, whose divisor reads
    infinity on a zero row; a ball operation that took its own row norm
    would need a rule of its own.  Only ``_norm`` and the shell projection
    take the square root of a ``rowdot``."""
    tree = ast.parse((PACKAGE / "manifold.py").read_text(encoding="utf-8"))
    assert {fn for fn, _ in sqrt_of_rowdot(tree)} == {"_norm", "_shell"}
    seen = ast.parse("def f(v, w):\n"
                     "    n = np.sqrt(rowdot(v, v))\n"
                     "    n2 = grad.rowdot(v, v)\n"
                     "    m = np.sqrt(n2 + 1.0)\n"
                     "    return np.sqrt(v), sqrt(grad.rowdot(w, w))\n"
                     "def g(v):\n"
                     "    return np.sqrt(np.dot(v, v)), np.sqrt(rowdot(v, v))\n")
    assert list(sqrt_of_rowdot(seen)) == [("f", 2), ("f", 4), ("f", 5), ("g", 7)]
