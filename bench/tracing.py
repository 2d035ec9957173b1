"""Span tracing of the spurmin layers, installed from outside the package.

`install` replaces the public functions of every spurmin module with
wrappers that record a span (name, start and end from `perf_counter_ns`,
parent span, op id) and, for a few functions, counts computed from the
call's shapes or result.  Every module namespace that re-imports a wrapped
function (for example `construction.separate` or
`cli.perturbation_local_min_test`) is patched too, so calls across modules
are seen.  Spans stay in memory until `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

# The layers are the package modules, in pipeline order.
LAYERS = (
    "activations",
    "network",
    "linear_fit",
    "separation",
    "construction",
    "verification",
    "cells",
    "io",
    "cli",
)

# Recursive helpers: one span per list element would swamp the trace.
UNTRACED = {"io.to_jsonable", "io.validate_against_schema"}

# Leaf builders; each return is one constructed parameter point.
POINT_BUILDERS = {
    "construction.build_shallow_minimum",
    "construction.build_deep_minimum",
    "construction.build_general_minimum",
    "construction.build_shallow_descent",
    "construction.build_deep_descent",
    "construction.build_general_descent",
    "construction.build_balanced_descent",
}


def _count_forward(counts, args, kwargs, result):
    net, X = args[0], args[1]
    n = X.shape[1]
    counts["network.forward_calls"] += 1
    counts["network.matmul_flops"] += 2 * n * sum(
        a * b for a, b in zip(net.dims[1:], net.dims[:-1])
    )


def _count_eval(counts, args, kwargs, result):
    counts["activations.eval_elements"] += getattr(result, "size", 1)


def _count_separate(counts, args, kwargs, result):
    n = len(result.perm)
    counts["separation.cross_pairs"] += result.l_prime * (n - result.l_prime)


def _count_probe(counts, args, kwargs, result):
    counts["verification.draws"] += sum(c.samples or 0 for c in result.checks)


def _count_lift(counts, args, kwargs, result):
    counts["cells.lifted_bytes"] += result.x_hat.nbytes


def _count_file(counts, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(args[1])


def _counter(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1

    return count


COUNTERS = {
    "network.forward": _count_forward,
    "activations.eval": _count_eval,
    "separation.separate": _count_separate,
    "separation.descent_constants_at": _counter("separation.constants_evals"),
    "verification.perturbation_local_min_test": _count_probe,
    "cells.lift_data": _count_lift,
    "io.dump_json": _count_file,
    "io.save_dataset_csv": _count_file,
    "linear_fit.fit_linear": _counter("linear_fit.fit_calls"),
    "construction.build_descent": _counter("construction.witnesses"),
    **{name: _counter("construction.points") for name in POINT_BUILDERS},
}


class Tracer:
    """In-memory span recorder.  A span is [name, start_ns, end_ns, parent
    index or -1, op id]; `op` is set by the caller around each operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records a span and then runs `count`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, perf_counter_ns(), 0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children.
        Spans come from one thread, so children never overlap."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def install(tracer: Tracer):
    """Patch every spurmin layer with tracing wrappers; returns a function
    that restores the originals."""
    package = sys.modules["spurmin"]
    modules = [importlib.import_module(f"spurmin.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrapped[obj] = tracer.span(name, obj, COUNTERS.get(name))

    undo = []
    for mod in (package, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
                undo.append((mod, attr, obj))

    act_cls = modules[0].PiecewiseLinear
    mlp_cls = modules[1].Mlp
    call, post_init = act_cls.__call__, mlp_cls.__post_init__
    act_cls.__call__ = tracer.span("activations.eval", call, COUNTERS["activations.eval"])

    def counted_post_init(self):
        tracer.counts["network.mlp_inits"] += 1
        post_init(self)

    mlp_cls.__post_init__ = counted_post_init
    undo += [(act_cls, "__call__", call), (mlp_cls, "__post_init__", post_init)]

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# per-layer time metric -> which spans' self times it sums.  Every per-layer
# value is divided by the number of op cycles the traced run completed.
SELF_TIME = {
    "activations.eval_s": lambda n: n == "activations.eval",
    "network.forward_s": lambda n: n == "network.forward",
    "network.loss_s": lambda n: n in {
        "network.empirical_risk", "network.risk_of_outputs",
        "network.per_sample_loss", "network.loss_gradient",
    },
    "verification.probe_self_s": lambda n: n == "verification.perturbation_local_min_test",
    "separation.separate_s": lambda n: n == "separation.separate",
    "separation.sizing_s": lambda n: n.startswith("separation.") and n != "separation.separate",
    "construction.self_s": lambda n: n.startswith("construction."),
    "cells.pattern_s": lambda n: n in {"cells.activation_pattern", "cells.signatures_equal"},
    "cells.lift_s": lambda n: n == "cells.lift_data",
    "cells.optimum_s": lambda n: n in {
        "cells.net_cell_inputs", "cells.quotient_map", "cells.reformulated_risk",
        "cells.quotient_gradient_residual", "cells.solve_cell_optimum",
    },
    "cells.path_s": lambda n: n in {"cells.build_valley_path", "cells.equivalence_check"},
    "io.dump_s": lambda n: n in {"io.dump_json", "io.save_dataset_csv", "io.save_mlp"},
    "io.load_s": lambda n: n in {
        "io.load_json", "io.load_dataset_csv", "io.load_mlp", "io.mlp_from_dict",
    },
    "linear_fit.fit_s": lambda n: n.startswith("linear_fit."),
    "cli.demo_self_s": lambda n: n == "cli.run_demo",
}

COUNT_UNITS = {
    "activations.eval_elements": "element/cycle",
    "network.matmul_flops": "flop/cycle",
    "network.forward_calls": "count/cycle",
    "network.mlp_inits": "count/cycle",
    "verification.draws": "count/cycle",
    "separation.cross_pairs": "pair/cycle",
    "separation.constants_evals": "count/cycle",
    "cells.lifted_bytes": "B/cycle",
    "io.bytes_written": "B/cycle",
    "linear_fit.fit_calls": "count/cycle",
}


def _forwards_in_construction(tracer: Tracer) -> int:
    """Forward calls with a construction span among their ancestors."""
    spans = tracer.spans
    found = 0
    for name, _, _, parent, _ in spans:
        if name != "network.forward":
            continue
        while parent >= 0 and not spans[parent][0].startswith("construction."):
            parent = spans[parent][3]
        found += parent >= 0
    return found


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, dict]:
    """Reduce the trace to per-layer metrics, each per op cycle."""
    own = tracer.self_times()
    metrics = {}
    for key, selects in SELF_TIME.items():
        total = sum(t for span, t in zip(tracer.spans, own) if selects(span[0]))
        metrics[key] = {"value": total / 1e9 / cycles, "unit": "s/cycle"}
    for key, unit in COUNT_UNITS.items():
        metrics[key] = {"value": tracer.counts[key] / cycles, "unit": unit}
    c = tracer.counts
    evals = c["separation.constants_evals"]
    metrics["construction.witness_yield"] = {
        "value": c["construction.witnesses"] / evals if evals else 0.0,
        "unit": "witness/eval",
    }
    points = c["construction.points"]
    metrics["construction.forwards_per_point"] = {
        "value": _forwards_in_construction(tracer) / points if points else 0.0,
        "unit": "forward/point",
    }
    return metrics
