"""Every function the benchmark's traced run wraps exists in blockcomm.

bench/layers.py lists the (module, function) pairs a traced run wraps. A
name that no longer resolves is only counted in `trace.phases_absent` and
its per-layer metrics read 0, so a rename would otherwise pass unnoticed.
The file is loaded by path and not edited here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_resolves():
    targets = load_targets()
    assert targets
    missing = [f"{mod}.{name}" for mod, name, _, _ in targets
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []
