"""Every function the benchmark's traced run wraps exists in blockcomm.

bench/layers.py lists the (module, function) pairs a traced run wraps. A
name that no longer resolves is only counted in `trace.phases_absent` and
its per-layer metrics read 0, so a rename would otherwise pass unnoticed.
Its hooks read fields of the returned values, so those are checked too.
A traced detect checks that the wrappers see the local search's calls, a
traced gSBM Louvain those of its global phases, and a traced gDCBM Louvain
those of the global phases and VB sweeps.
bench/layers.py and bench/tracing.py are loaded by path and not edited
here.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from blockcomm.dcbm import DcbmPriors, adcbm_local_fit
from blockcomm.generators import PlantedSpec, sample_sbm
from blockcomm.global_search import louvain
from blockcomm.graph import CommunityStats
from blockcomm.local_search import SearchConfig, detect
from blockcomm.rng import make_rng
from blockcomm.sbm import SbmPriors

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_hook_reads_the_local_fit():
    # The hook counts solved and degenerate fits, root steps and
    # unconverged fits from the LocalDcbmState fields it names.
    hook = load_bench("layers")._fit_hook
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
    targets = load_bench("layers").TARGETS
    assert targets
    missing = [f"{mod}.{name}" for mod, name, _, _ in targets
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert missing == []


@pytest.mark.parametrize("method", ["asbm", "adcbm"])
def test_traced_detect_counts_the_local_layers(method):
    # The tracer patches module attributes, so the search must reach the
    # growth step, the score and the fit through them, once per candidate.
    tracing, layers = load_bench("tracing"), load_bench("layers")
    spec = PlantedSpec(communities=4, size=15, lambda_in=0.5, lambda_out=0.03)
    graph, _ = sample_sbm(spec, make_rng(4))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, layers.TARGETS) as absent:
        detect(graph, 0, SearchConfig(method=method, restarts=3, rng_seed=1))
    assert absent == []
    calls = {key: stats.calls for key, stats in tracer.stats.items()}
    score = f"{'sbm' if method == 'asbm' else 'dcbm'}.{method}_log_score"
    assert calls["graph.add_node_delta"] > 0
    assert calls[score] > 0
    if method == "adcbm":
        assert calls["dcbm.adcbm_local_fit"] == calls[score]


def test_traced_gsbm_louvain_counts_the_global_phases():
    # A traced gSBM Louvain reaches its moving phase, and at the level that
    # stalls the merge bootstrap and its scan, through the module attributes.
    tracing, layers = load_bench("tracing"), load_bench("layers")
    spec = PlantedSpec(communities=4, size=10, lambda_in=0.5, lambda_out=0.05)
    graph, _ = sample_sbm(spec, make_rng(2))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, layers.TARGETS) as absent:
        louvain(graph, "gsbm", SbmPriors(), make_rng(0))
    assert absent == []
    calls = {key: stats.calls for key, stats in tracer.stats.items()}
    for phase in ("move_phase_gsbm", "merge_bootstrap", "scan_merges"):
        assert calls[f"global_search.{phase}"] > 0


def test_traced_gdcbm_louvain_counts_the_global_vb_layers():
    # A traced gDCBM Louvain reaches every global phase through the
    # module attributes, and each fit makes one vb_bound call at its start
    # plus one per vb_update sweep.
    tracing, layers = load_bench("tracing"), load_bench("layers")
    spec = PlantedSpec(communities=4, size=10, lambda_in=0.5, lambda_out=0.05)
    graph, _ = sample_sbm(spec, make_rng(2))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, layers.TARGETS) as absent:
        louvain(graph, "gdcbm", DcbmPriors(), make_rng(0))
    assert absent == []
    calls = {key: stats.calls for key, stats in tracer.stats.items()}
    assert calls["global_search.move_phase_gdcbm"] > 0
    assert calls["global_search.move_phase_gsbm"] > 0
    fits, sweeps = calls["global_search.converge_vb"], calls["dcbm.vb_update"]
    assert fits > 0 and sweeps > fits
    assert calls["dcbm.vb_bound"] == sweeps + fits
