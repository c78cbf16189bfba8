"""Every name the benchmark tracer wraps exists in cablefield.

perfbench/tracing.py wraps functions and methods by name; a rename in the
package would silently drop a span from the traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for mod_name, attr in tracing.FUNCTIONS:
        mod = importlib.import_module(f"cablefield.{mod_name}")
        if not callable(getattr(mod, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"cablefield.{mod_name}"), cls_name, None)
        if not callable(getattr(cls, meth, None)):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert not missing, f"traced names missing from cablefield: {missing}"
