"""Spans around calls into the package's layers, recorded from outside.

A span is wrapped around a public function at the name its calling module
looks it up by, so the package itself is not edited.  Spans are kept in
memory with their parent and request; `layer_metrics` turns them into the
per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc


def _lp_size(model):
    return (len(model.constraints), len(model.variables),
            sum(len(c.coeffs) for c in model.constraints))


# (owner, attribute, span name, what to keep from the return value).  Each
# entry is the name the calling module looks the function up by, so every
# call site of a layer goes through exactly one wrapper.
WRAPPED = [
    ("circlecolor.cli", "load_instance", "intervals.load_instance", None),
    ("circlecolor.cli", "build_graph", "intervals.build_graph", None),
    ("circlecolor.cli", "solve_chromatic", "bnb.solve_chromatic", None),
    ("circlecolor.cli", "solve_stacks", "bnb.solve_stacks", None),
    ("circlecolor.cli", "solve_mwis", "mwis.solve_mwis", None),
    ("circlecolor.instances", "max_clique_exact", "oracle.max_clique", None),
    ("circlecolor.bnb", "build_graph", "intervals.build_graph", None),
    ("circlecolor.bnb", "build_dag", "intervals.build_dag", None),
    ("circlecolor.bnb", "build_clique_matrix", "intervals.build_clique_matrix", None),
    ("circlecolor.bnb", "validate_coloring", "intervals.validate_coloring", None),
    ("circlecolor.bnb", "build_cg", "lpmodels.build_cg", _lp_size),
    ("circlecolor.bnb", "solve_lp", "simplex.solve_lp", lambda sol: sol.iterations),
    ("circlecolor.bnb", "solve_ip", "bnb.solve_ip", lambda res: res[2]),
    ("circlecolor.bnb", "first_fit", "bnb.first_fit", None),
    ("circlecolor.bnb", "decode_arborescence", "mwis.decode_arborescence", None),
    ("circlecolor.bnb", "arborescence_of_coloring", "mwis.arborescence_of_coloring", None),
    ("circlecolor.bnb", "effective_height", "stowage.effective_height", None),
    ("circlecolor.bnb", "build_cgh", "stowage.build_cgh", _lp_size),
    ("circlecolor.bnb", "greedy_stack_plan", "stowage.greedy_stack_plan", None),
    ("circlecolor.bnb", "decode_plan", "stowage.decode_plan", None),
    ("circlecolor.stowage", "max_antichain", "intervals.max_antichain", None),
    ("circlecolor.stowage", "decode_arborescence", "mwis.decode_arborescence", None),
    ("circlecolor.mwis", "max_antichain", "intervals.max_antichain", None),
    ("circlecolor.mwis", "max_weight_chain", "mwis.max_weight_chain", None),
    ("circlecolor.lpmodels:LpModel", "relaxed", "lpmodels.relaxed", None),
]

REQUEST = "cli.main"


def _resolve(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Tracer:
    """Records [name, start, end, parent index, request, kept value] spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = -1

    def span(self, name, fn, keep=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                record[5] = keep(result)
            return result

        return wrapper

    def install(self, patches: Patches):
        for path, attr, name, keep in WRAPPED:
            patches.replace(_resolve(path), attr, lambda fn, n=name, k=keep: self.span(n, fn, k))


def install_alloc_probe(patches: Patches, peaks: list):
    """Append the tracemalloc peak (bytes above the level at entry) of every
    solve_lp call to `peaks`; tracemalloc must be running."""
    import circlecolor.bnb

    def make(fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    patches.replace(circlecolor.bnb, "solve_lp", make)


def _ancestors(spans, k):
    parent = spans[k][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, requests: int, scale: float) -> dict:
    """Per-request times and counts for each layer, plus ratios.  Times are
    multiplied by `scale`, reference seconds per second (hostspeed.py)."""
    total = {}
    calls = {}
    self_time = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child[parent] += dur
    for k, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[k]

    root_lp_s = node_lp_s = 0.0
    pivots = 0
    nodes = 0
    sizes = {"lpmodels.build_cg": [], "stowage.build_cgh": []}
    drivers = {}
    for k, (name, start, end, _, req, kept) in enumerate(spans):
        if name == "simplex.solve_lp":
            pivots += kept
            if "bnb.solve_ip" in _ancestors(spans, k):
                node_lp_s += end - start
            else:
                root_lp_s += end - start
        elif name == "bnb.solve_ip":
            nodes += kept
        elif name in sizes:
            sizes[name].append(kept)
        if name in ("bnb.solve_chromatic", "bnb.solve_stacks"):
            drivers.setdefault(req, True)
        elif name == "bnb.solve_ip":
            drivers[req] = False

    per = max(requests, 1)

    def s(name):
        return total.get(name, 0.0) * scale / per

    def c(name):
        return calls.get(name, 0) / per

    def size(name, axis):
        got = sizes[name]
        return sum(g[axis] for g in got) / len(got) if got else 0.0

    lp_time = total.get("simplex.solve_lp", 0.0)
    return {
        "simplex.root_lp_s": root_lp_s * scale / per,
        "simplex.node_lp_s": node_lp_s * scale / per,
        "simplex.pivots": pivots / per,
        "simplex.s_per_pivot": lp_time * scale / pivots if pivots else 0.0,
        "simplex.solve_lp_calls": c("simplex.solve_lp"),
        "bnb.solve_ip_calls": c("bnb.solve_ip"),
        "bnb.solve_ip_s": s("bnb.solve_ip"),
        "bnb.nodes": nodes / per,
        "bnb.root_integral_frac": sum(drivers.values()) / len(drivers) if drivers else 0.0,
        "bnb.first_fit_s": s("bnb.first_fit"),
        "bnb.driver_self_s": (self_time.get("bnb.solve_chromatic", 0.0)
                              + self_time.get("bnb.solve_stacks", 0.0)) * scale / per,
        "lpmodels.build_cg_s": s("lpmodels.build_cg"),
        "lpmodels.relaxed_s": s("lpmodels.relaxed"),
        "lpmodels.cg_rows": size("lpmodels.build_cg", 0),
        "lpmodels.cg_cols": size("lpmodels.build_cg", 1),
        "lpmodels.cg_nnz": size("lpmodels.build_cg", 2),
        "stowage.effective_height_s": s("stowage.effective_height"),
        "stowage.build_cgh_s": s("stowage.build_cgh"),
        "stowage.cgh_rows": size("stowage.build_cgh", 0),
        "stowage.cgh_cols": size("stowage.build_cgh", 1),
        "stowage.cgh_nnz": size("stowage.build_cgh", 2),
        "stowage.greedy_stack_plan_s": s("stowage.greedy_stack_plan"),
        "stowage.decode_plan_s": s("stowage.decode_plan"),
        "intervals.load_instance_s": s("intervals.load_instance"),
        "intervals.build_graph_s": s("intervals.build_graph"),
        "intervals.build_graph_calls": c("intervals.build_graph"),
        "intervals.build_dag_s": s("intervals.build_dag"),
        "intervals.build_clique_matrix_s": s("intervals.build_clique_matrix"),
        "intervals.validate_coloring_s": s("intervals.validate_coloring"),
        "intervals.max_antichain_calls": c("intervals.max_antichain"),
        "intervals.max_antichain_s": s("intervals.max_antichain"),
        "mwis.solve_mwis_s": s("mwis.solve_mwis"),
        "mwis.max_weight_chain_calls": c("mwis.max_weight_chain"),
        "mwis.max_weight_chain_s": s("mwis.max_weight_chain"),
        "mwis.decode_arborescence_s": s("mwis.decode_arborescence"),
        "mwis.arborescence_of_coloring_s": s("mwis.arborescence_of_coloring"),
        "oracle.max_clique_s": s("oracle.max_clique"),
        "cli.self_s": self_time.get(REQUEST, 0.0) * scale / per,
    }
