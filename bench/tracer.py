"""Span recorder that wraps knightian's public functions from outside.

`Tracer.install()` wraps every function listed in a knightian module's
`__all__` and rebinds it in every knightian namespace that holds it, so calls
made through names imported by other modules (``equilibrium`` calling
``solve_terminal_values``, ``cli`` calling ``expectation``) are recorded too.
`GridFunction.at` is patched on its class.  Nothing under ``src/`` changes.

Each span records its function, its parent span, its start and end, and its
self time (duration minus the time covered by its direct child spans; the
program is single-threaded, so spans nest strictly).  Spans stay in memory
until `write` is called at the end of a run.
"""

import functools
import importlib
import inspect
import json
import math
import time
import types

MODULES = ("dsl", "config", "gexp", "equilibrium", "implementability", "replication", "cli")

# per-layer metric prefix -> recorded span name
LAYER_SPANS = {
    "gexp.march": "gexp.solve_terminal_values",
    "gexp.tree": "gexp.tree_expectation",
    "equilibrium.solve": "equilibrium.solve_equilibrium",
    "equilibrium.inverse_marginal": "equilibrium.inverse_marginal",
    "equilibrium.budget_excess": "equilibrium.budget_excess",
    "implementability.check": "implementability.check_implementability",
    "implementability.probe": "implementability.genericity_probe",
    "replication.hedge_field": "replication.hedge_field",
    "replication.simulate": "replication.simulate_paths",
    "replication.replicate": "replication.replicate",
    "replication.interp": "replication.GridFunction.at",
    "dsl.parse": "dsl.parse",
    "dsl.evaluate": "dsl.evaluate",
    "config.load": "config.load_config",
    "cli.main": "cli.main",
}


def _substeps(bounds, grid) -> int:
    # the march's sub-step rule: enough sub-steps to keep sigma_hi^2 dtau <= dx^2
    dt = bounds.horizon / grid.nt
    return max(1, math.ceil(bounds.sigma_hi**2 * dt / grid.dx**2 - 1e-12))


class Tracer:
    """In-memory span recorder plus the work counters the spans cannot give."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, parent span index or -1, start, end, self seconds)
        self._stack = []  # [span index, name index, start, child seconds]
        self.counters = {
            "march.node_updates": 0,
            "march.bytes_stored": 0,
            "replicate.path_steps": 0,
            "replicate.paths": 0,
            "replicate.excluded": 0,
            "simulate.bytes_materialised": 0,
            "probe.samples": 0,
            "probe.solved": 0,
        }

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, name_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                parent = -1
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][0]
                spans[idx] = (name_id, parent, frame[2], end, dur - frame[3])
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _count_march(self, args, kwargs, field):
        # computed from the arguments, so a march that stores less or takes a
        # stack of terminal columns is still counted right
        arguments = self._march_signature.bind(*args, **kwargs).arguments
        grid, bounds = arguments["grid"], arguments["bounds"]
        columns = max(1, getattr(arguments["terminal"], "size", grid.nx) // grid.nx)
        m = _substeps(bounds, grid)
        self.counters["march.node_updates"] += columns * grid.nt * m * (grid.nx - 2)
        self.counters["march.bytes_stored"] += getattr(getattr(field, "values", None), "nbytes", 0)

    def _count_simulate(self, args, kwargs, batch):
        arrays = [v for v in vars(batch).values() if hasattr(v, "nbytes")]
        self.counters["simulate.bytes_materialised"] += sum(a.nbytes for a in arrays)

    def _count_replicate(self, args, kwargs, report):
        self.counters["replicate.path_steps"] += report.n_paths * report.n_steps
        self.counters["replicate.paths"] += report.n_paths
        self.counters["replicate.excluded"] += report.n_excluded

    def _count_probe(self, args, kwargs, result):
        self.counters["probe.samples"] += result.n_samples
        self.counters["probe.solved"] += result.n_solved

    def install(self):
        """Wrap the public functions of every knightian module, everywhere bound."""
        package = importlib.import_module("knightian")
        modules = [importlib.import_module(f"knightian.{m}") for m in MODULES]
        hooks = {
            "gexp.solve_terminal_values": self._count_march,
            "replication.simulate_paths": self._count_simulate,
            "replication.replicate": self._count_replicate,
            "implementability.genericity_probe": self._count_probe,
        }
        gexp = importlib.import_module("knightian.gexp")
        self._march_signature = inspect.signature(gexp.solve_terminal_values)
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[fn] = self._wrap(fn, name, hooks.get(name))
        for ns in [package, *modules]:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(ns, attr, wrappers[value])

        grid_function = importlib.import_module("knightian.replication").GridFunction
        grid_function.at = self._wrap(grid_function.at, "replication.GridFunction.at")

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for name_id, _parent, start, end, self_s in self.spans:
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics, each as (value, unit)."""
        t = self.totals()
        for span in LAYER_SPANS.values():
            t.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        c = self.counters
        metrics = {}
        for prefix, span in LAYER_SPANS.items():
            metrics[f"{prefix}.calls"] = (t[span]["calls"], "count")
            metrics[f"{prefix}.self_s"] = (t[span]["self_s"], "s")
        march = t[LAYER_SPANS["gexp.march"]]
        metrics["gexp.march.ms_per_call"] = (
            1e3 * march["self_s"] / march["calls"] if march["calls"] else 0.0,
            "ms",
        )
        metrics["gexp.march.node_updates"] = (c["march.node_updates"], "count")
        metrics["gexp.march.bytes_stored"] = (c["march.bytes_stored"], "B")
        metrics["gexp.march.ns_per_node_update"] = (
            1e9 * march["self_s"] / c["march.node_updates"] if c["march.node_updates"] else 0.0,
            "ns",
        )
        metrics["implementability.probe.solved_frac"] = (
            c["probe.solved"] / c["probe.samples"] if c["probe.samples"] else 0.0,
            "ratio",
        )
        mc_s = (
            t[LAYER_SPANS["replication.simulate"]]["total_s"]
            + t[LAYER_SPANS["replication.replicate"]]["total_s"]
        )
        steps = c["replicate.path_steps"]
        metrics["replication.path_steps"] = (steps, "count")
        metrics["replication.ns_per_path_step"] = (1e9 * mc_s / steps if steps else 0.0, "ns")
        metrics["replication.bytes_materialised"] = (c["simulate.bytes_materialised"], "B")
        metrics["replication.excluded_frac"] = (
            c["replicate.excluded"] / c["replicate.paths"] if c["replicate.paths"] else 0.0,
            "ratio",
        )
        return metrics

    def write(self, path):
        """Write every span plus per-name totals and counters as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "span_fields": ["name", "parent", "start", "end", "self_s"],
                    "spans": self.spans,
                    "totals": self.totals(),
                    "counters": self.counters,
                },
                fh,
            )
