"""The benchmark wraps package functions by name (``perfbench/tracer.py``)
and calls others directly; deleting or renaming one of them must fail here,
not only in a benchmark run."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import hypersess
import hypersess.cli  # TRACED names cli.main, which the package does not import
from hypersess import grad as G

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_traced_name():
    tracer_mod = load_tracer()
    originals = {(mod, fn): getattr(getattr(hypersess, mod), fn)
                 for mod, names in tracer_mod.TRACED.items() for fn in names}
    tracer = tracer_mod.Tracer(hypersess)
    tracer.install()
    try:
        assert tracer.names == [f"{mod}.{fn}" for mod, fn in originals]
        for (mod, fn), original in originals.items():
            assert getattr(getattr(hypersess, mod), fn) is not original
    finally:
        tracer.uninstall()
    for (mod, fn), original in originals.items():
        assert getattr(getattr(hypersess, mod), fn) is original


def package_reads(tree):
    """(module, name) of every ``<module>.<name>`` read, ``hypersess.<module>.<name>``
    read and ``from hypersess.<module> import <name>`` in a perfbench file."""
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hypersess"
               for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypersess."):
            yield from ((node.module.split(".")[1], a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                yield owner.id, node.attr
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and owner.value.id == "hypersess"):
                yield owner.attr, node.attr


def test_every_package_name_the_benchmark_reads_exists():
    reads = {read for path in sorted(PERFBENCH.glob("*.py"))
             for read in package_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert reads
    missing = sorted(f"{mod}.{name}" for mod, name in reads
                     if not hasattr(importlib.import_module(f"hypersess.{mod}"), name))
    assert missing == []


def test_count_tape_nodes_walks_node_parents():
    # the benchmark counts tape nodes through Node.parents
    x, y = G.Node(np.ones(3)), G.Node(np.arange(3.0))
    shared = G.mul(x, y)
    root = G.dot(G.add(shared, x), G.fused(shared.value, (2.0, shared, shared), lambda g: (None, g, g)))
    # root, add, the fused node, shared, x and y; each counted once
    count_tape_nodes = load_tracer().count_tape_nodes
    assert count_tape_nodes(root) == 6
    assert count_tape_nodes(x) == 1
