"""The blockcomm functions a traced run wraps, and its per-layer metrics.

Layers are the package's modules. Each entry of TARGETS wraps one function;
the private phases of global_search are wrapped when present and reported
in `trace.phases_absent` when a refactor has removed them.
"""


def _fit_hook(tracer, state):
    c = tracer.counters
    if state.degenerate:
        c["fit_degenerate"] += 1
    else:
        c["fit_solved"] += 1
        c["fit_iterations"] += state.iterations
        c["fit_unconverged"] += not state.converged


def _asbm_hook(tracer, score):
    tracer.counters["asbm_neg_inf"] += score == float("-inf")


def _expand_hook(tracer, result):
    tracer.counters["expand_passes"] += result.passes
    tracer.counters["expand_added"] += len(result.members) - 1


def _louvain_hook(tracer, partition):
    tracer.counters["communities"] += len(partition.sizes)


def _bootstrap_hook(tracer, merged):
    tracer.counters["bootstrap_adopted"] += merged is not None


# (module, function, trace key, hook run on each return value)
TARGETS = [
    ("blockcomm.graph", "load_edge_list", "graph.load_edge_list", None),
    ("blockcomm.graph", "add_node_delta", "graph.add_node_delta", None),
    ("blockcomm.distributions", "log_gamma", "distributions.log_gamma", None),
    ("blockcomm.distributions", "digamma", "distributions.digamma", None),
    ("blockcomm.distributions", "gamma_kl", "distributions.gamma_kl", None),
    ("blockcomm.sbm", "asbm_log_score", "sbm.asbm_log_score", _asbm_hook),
    ("blockcomm.sbm", "exact_edge_counts", "sbm.exact_edge_counts", None),
    ("blockcomm.dcbm", "adcbm_local_fit", "dcbm.adcbm_local_fit", _fit_hook),
    ("blockcomm.dcbm", "adcbm_log_score", "dcbm.adcbm_log_score", None),
    ("blockcomm.dcbm", "vb_update", "dcbm.vb_update", None),
    ("blockcomm.dcbm", "vb_bound", "dcbm.vb_bound", None),
    ("blockcomm.local_search", "greedy_expand", "local_search.greedy_expand", _expand_hook),
    ("blockcomm.global_search", "louvain", "global_search.louvain", _louvain_hook),
    ("blockcomm.global_search", "objective_value", "global_search.objective_value", None),
    ("blockcomm.global_search", "_aggregate", "global_search.aggregate", None),
    ("blockcomm.global_search", "_move_phase_gsbm", "global_search.move_phase_gsbm", None),
    ("blockcomm.global_search", "_move_phase_gdcbm", "global_search.move_phase_gdcbm", None),
    ("blockcomm.global_search", "_merge_bootstrap", "global_search.merge_bootstrap",
     _bootstrap_hook),
    ("blockcomm.global_search", "_scan_merges", "global_search.scan_merges", None),
    ("blockcomm.global_search", "_converge_vb", "global_search.converge_vb", None),
]

# key -> fields reported per operation: calls (count), s (outermost-call
# seconds), self_s (seconds outside other traced calls).
CALL_METRICS = {
    "graph.add_node_delta": ("calls", "s", "self_s"),
    "distributions.log_gamma": ("calls", "self_s"),
    "distributions.digamma": ("calls", "self_s"),
    "distributions.gamma_kl": ("calls", "self_s"),
    "sbm.asbm_log_score": ("calls", "self_s"),
    "sbm.exact_edge_counts": ("calls", "s"),
    "dcbm.adcbm_local_fit": ("calls", "self_s"),
    "dcbm.vb_update": ("calls", "s"),
    "dcbm.vb_bound": ("calls", "s"),
    "local_search.greedy_expand": ("calls", "self_s"),
    "global_search.louvain": ("s",),
    "global_search.objective_value": ("calls", "s"),
    "global_search.merge_bootstrap": ("calls", "s"),
    "global_search.scan_merges": ("self_s",),
    "global_search.converge_vb": ("calls", "s"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, absent, untraced_p50, traced_p50):
    """Per-layer metrics of a traced run over `ops` operations.

    Counts and times are per operation, except graph.load_edge_list.s,
    which is per load. Ratios are over the calls they name.
    """
    st, c = tracer.stats, tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    loads = st["graph.load_edge_list"]
    put("graph.load_edge_list.s", _ratio(loads.total_s, loads.calls), "s")
    for key, fields in CALL_METRICS.items():
        s = st[key]
        values = {"calls": (s.calls, "count"), "s": (s.total_s, "s"),
                  "self_s": (s.self_s, "s")}
        for field in fields:
            value, unit = values[field]
            put(f"{key}.{field}", value / ops, unit)

    fits, solved = st["dcbm.adcbm_local_fit"].calls, c["fit_solved"]
    put("dcbm.adcbm_local_fit.iterations_mean", _ratio(c["fit_iterations"], solved), "count")
    put("dcbm.adcbm_local_fit.unconverged_frac", _ratio(c["fit_unconverged"], solved), "ratio")
    put("dcbm.adcbm_local_fit.degenerate_frac", _ratio(c["fit_degenerate"], fits), "ratio")
    asbm = st["sbm.asbm_log_score"].calls
    put("sbm.asbm_log_score.neg_inf_frac", _ratio(c["asbm_neg_inf"], asbm), "ratio")

    evals = asbm + st["dcbm.adcbm_log_score"].calls
    expands = st["local_search.greedy_expand"].calls
    put("local_search.greedy_expand.passes_mean", _ratio(c["expand_passes"], expands), "count")
    put("local_search.score_evals", evals / ops, "count")
    put("local_search.accept_ratio", _ratio(c["expand_added"], evals), "ratio")

    louvains = st["global_search.louvain"].calls
    put("global_search.levels", st["global_search.aggregate"].calls / ops, "count")
    put("global_search.communities", _ratio(c["communities"], louvains), "count")
    moves = (st["global_search.move_phase_gsbm"].self_s
             + st["global_search.move_phase_gdcbm"].self_s)
    put("global_search.move_phase.self_s", moves / ops, "s")
    boots = st["global_search.merge_bootstrap"].calls
    put("global_search.merge_bootstrap.adopted_frac", _ratio(c["bootstrap_adopted"], boots),
        "ratio")

    put("trace.untraced_op_p50_s", untraced_p50, "s")
    put("trace.op_p50_s", traced_p50, "s")
    put("trace.overhead_s", traced_p50 - untraced_p50, "s")
    put("trace.phases_absent", len(absent), "count")
    return out
