"""Every function the benchmark's traced run wraps exists in blockcomm.

bench/layers.py lists the (module, function) pairs a traced run wraps. A
name that no longer resolves is only counted in `trace.phases_absent` and
its per-layer metrics read 0, so a rename would otherwise pass unnoticed.
Its hooks read fields of the returned values, so those are checked too.
The file is loaded by path and not edited here.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from blockcomm.dcbm import DcbmPriors, adcbm_local_fit
from blockcomm.graph import CommunityStats

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_hook_reads_the_local_fit():
    # The hook counts solved and degenerate fits, root steps and
    # unconverged fits from the LocalDcbmState fields it names.
    hook = load_layers()._fit_hook
    tracer = SimpleNamespace(counters=Counter())
    solved = adcbm_local_fit(CommunityStats(20, 50, 120, 20 * 7.0**2), 2000.0, 6000.0,
                             DcbmPriors())
    degenerate = adcbm_local_fit(CommunityStats(1, 0, 0, 1.0), 2000.0, 6000.0, DcbmPriors())
    assert not solved.degenerate and degenerate.degenerate
    hook(tracer, solved)
    hook(tracer, degenerate)
    assert tracer.counters == Counter(fit_solved=1, fit_degenerate=1,
                                      fit_iterations=solved.iterations,
                                      fit_unconverged=0)
    assert solved.iterations >= 1 and solved.converged


def test_every_traced_function_resolves():
    targets = load_layers().TARGETS
    assert targets
    missing = [f"{mod}.{name}" for mod, name, _, _ in targets
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []
