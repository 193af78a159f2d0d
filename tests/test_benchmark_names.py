"""The benchmark wraps package functions by name (``perfbench/tracer.py``);
deleting or renaming one of them must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

import hypersess
import hypersess.cli  # TRACED names cli.main, which the package does not import

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
