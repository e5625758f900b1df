"""Out-of-program tracer for the sixvertex layers.

The tracer wraps the public functions of every package module (the names in
each module's ``__all__``), a few public methods, and the entries of
``cli.CHECKS``.  Each wrapped call records one span: name, parent span,
start and end.  Spans stay in memory and are written out once, at the end of
the traced command; ``summarize`` turns them into per-layer metrics.

Modules bind each other's functions by ``from .model import transfer``, so a
wrapper is installed under every name, in every ``sixvertex.*`` namespace,
that refers to the original function.  Otherwise calls made through those
aliases would escape the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings

LAYERS = ("model", "spectrum", "functional", "bethe", "odes", "reports", "cli")

# public methods traced besides the module-level functions
METHODS = {
    "spectrum": {"EigenSystem": ("eigenvalue", "eigenvalues_at")},
    "reports": {"ResultCache": ("load_sector", "store_sector")},
}

# functions whose spans make up reports.write_s
WRITERS = ("reports.atomic_write_text", "reports.write_csv",
           "reports.write_svg_line", "reports.ResultCache.store_sector")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index, start, end]
        self.stack = []
        self.counts = {}
        self.warning_samples = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i][3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out

        return traced

    def on_warning(self, message, category, filename, lineno, file=None,
                   line=None):
        """showwarning replacement: count each RuntimeWarning against the
        layer of the innermost open span instead of printing it."""
        layer = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "none"
        if issubclass(category, RuntimeWarning):
            self.count(f"{layer}.runtime_warnings")
            key = f"{layer}: {message}"
            self.warning_samples[key] = self.warning_samples.get(key, 0) + 1

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "warning_samples": self.warning_samples}, f)


def _observe_seeds(tr, out):
    tr.count("bethe.seeds", len(out))


def _observe_solutions(tr, out):
    tr.count("bethe.solutions", len(out))


def _observe_value(tr, out):
    tr.count("spectrum.values", 1)


def _observe_values(tr, out):
    tr.count("spectrum.values", len(out))


def _observe_cache(tr, out):
    tr.count("reports.cache_misses" if out is None else "reports.cache_hits")


OBSERVERS = {
    "bethe.default_seeds": _observe_seeds,
    "bethe.solve_bae": _observe_solutions,
    "spectrum.EigenSystem.eigenvalue": _observe_value,
    "spectrum.EigenSystem.eigenvalues_at": _observe_values,
    "reports.ResultCache.load_sector": _observe_cache,
}


def install(tracer):
    """Wrap the package's public functions and rebind every alias to them.

    Counts every RuntimeWarning (filter "always") through the tracer.
    """
    mods = {layer: importlib.import_module(f"sixvertex.{layer}") for layer in LAYERS}
    wrapped = {}   # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = tracer.wrap(name, fn, OBSERVERS.get(name))
        for cls_name, meths in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in meths:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth),
                                               OBSERVERS.get(name)))
    cli = mods["cli"]
    wrapped[id(cli.main)] = tracer.wrap("cli.main", cli.main)
    for check, fn in list(cli.CHECKS.items()):
        cli.CHECKS[check] = tracer.wrap(f"cli.check.{check}", fn)

    for modname, mod in list(sys.modules.items()):
        if modname != "sixvertex" and not modname.startswith("sixvertex."):
            continue
        for attr, val in list(vars(mod).items()):
            w = wrapped.get(id(val))
            if w is not None:
                setattr(mod, attr, w)

    warnings.simplefilter("always", RuntimeWarning)
    warnings.showwarning = tracer.on_warning
    return cli.main


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process, from the dumped spans)

def _outermost_time(spans, names):
    """Time covered by spans named in `names` that have no ancestor in
    `names`, so nested or recursive calls are not counted twice."""
    names = set(names)
    total = 0.0
    for name, parent, t0, t1 in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][1]
        if p < 0:
            total += t1 - t0
    return total


def self_times(spans):
    """Self time per span name: duration minus the time of direct children."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, parent, t0, t1) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def summarize(trace, check_names, kernel):
    """Per-layer metrics of one traced command.

    `kernel` holds the computed per-build figures of model.monodromy_blocks
    (flop, bytes moved, working set); totals scale them by the build count.
    """
    spans, counts = trace["spans"], trace["counts"]
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    selft = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in selft.items():
        layer_self[name.split(".")[0]] += s

    builds = calls.get("model.monodromy_blocks", 0)
    transfers = calls.get("model.transfer", 0)
    seeds = counts.get("bethe.seeds", 0)
    m = {
        "model.transfer.calls": transfers,
        "model.monodromy_blocks.calls": builds,
        "model.monodromy_blocks.self_s": selft.get("model.monodromy_blocks", 0.0),
        "model.monodromy_blocks.flop_computed": builds * kernel["flop_per_build"],
        "model.monodromy_blocks.bytes_computed": builds * kernel["bytes_per_build"],
        "model.monodromy_blocks.working_set_bytes_computed": kernel["working_set_bytes"],
        "model.self_s": layer_self["model"],
        "spectrum.diagonalize_sector.self_s": selft.get("spectrum.diagonalize_sector", 0.0),
        "spectrum.polynomiality_check.calls": calls.get("spectrum.polynomiality_check", 0),
        "spectrum.eigenvalue.calls": calls.get("spectrum.EigenSystem.eigenvalue", 0),
        "spectrum.eigenvalues_at.calls": calls.get("spectrum.EigenSystem.eigenvalues_at", 0),
        "spectrum.values_per_build": (counts.get("spectrum.values", 0) / transfers
                                      if transfers else 0.0),
        "spectrum.self_s": layer_self["spectrum"],
        "bethe.solve_bae.s": _outermost_time(spans, ["bethe.solve_bae"]),
        "bethe.bae_residual.calls": calls.get("bethe.bae_residual", 0),
        "bethe.bae_residual.self_s": selft.get("bethe.bae_residual", 0.0),
        "bethe.seeds": seeds,
        "bethe.solutions_per_seed": (counts.get("bethe.solutions", 0) / seeds
                                     if seeds else 0.0),
        "bethe.match_spectrum.s": _outermost_time(spans, ["bethe.match_spectrum"]),
        "bethe.self_s": layer_self["bethe"],
        "functional.self_s": layer_self["functional"],
        "odes.self_s": layer_self["odes"],
        "odes.pde_convergence.s": _outermost_time(spans, ["odes.pde_convergence"]),
        "odes.schrodinger_map_residual.s": _outermost_time(
            spans, ["odes.schrodinger_map_residual"]),
        "odes.u_equation_residual.s": _outermost_time(spans, ["odes.u_equation_residual"]),
        "reports.cache_hits": counts.get("reports.cache_hits", 0),
        "reports.cache_misses": counts.get("reports.cache_misses", 0),
        "reports.write_s": _outermost_time(spans, WRITERS),
        "reports.self_s": layer_self["reports"],
        "cli.self_s": layer_self["cli"],
        "trace.spans": len(spans),
    }
    for check in check_names:
        m[f"cli.check.{check}.s"] = _outermost_time(spans, [f"cli.check.{check}"])
    for layer in LAYERS:
        m[f"{layer}.runtime_warnings"] = counts.get(f"{layer}.runtime_warnings", 0)
    return m
