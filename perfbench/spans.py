"""Spans around the program's public functions, recorded from outside it.

:func:`install` replaces every public module-level function of the traced
modules with a wrapper that opens a span.  Callers inside the package look
the function up in the module namespace at call time, so their calls pass
through the wrapper too.  Spans are timed in CPU seconds
(``time.process_time``), unscaled.  Spans nest on a stack; when one
closes, its duration is charged to its parent, and its self time
(duration minus the time its child spans cover) and a call are added to
its name.

Nothing is wrapped unless :func:`install` is called: the untraced runs
measure the program as it ships.
"""

import functools
import time

MODULES = ("lie", "casimir", "decompose", "cosets", "deform", "clifford",
           "ratlinalg", "cli")
MARK = "__perfbench_span__"

# Per-layer metrics read off one span: <span>.self_s (seconds) or
# <span>.calls.
SPAN_METRICS = (
    "lie.weight_multiplicities.self_s",
    "lie.weight_multiplicities.calls",
    "lie.dimension.self_s",
    "lie.dimension.calls",
    "decompose.tensor_decompose.self_s",
    "decompose.tensor_decompose.calls",
    "decompose.branch.self_s",
    "decompose.branch.calls",
    "decompose.peel_off.self_s",
    "casimir.irreps_with_casimir.self_s",
    "casimir.irreps_with_casimir.calls",
    "casimir.casimir_eigenvalue.calls",
    "deform.deformation_space.self_s",
    "deform.curvature_spectrum.self_s",
    "cosets.coset.self_s",
    "cosets.gauge_rep.self_s",
    "cosets.load_fixtures.self_s",
    "clifford.build_rep.self_s",
    "clifford.verify_identity_suite.self_s",
    "clifford.complex_structure.self_s",
    "clifford.q_contraction_spectrum.self_s",
    "clifford.extract_PQ.calls",
    "ratlinalg.mat_mul.calls",
)
# Counters kept beside the spans.
COUNTERS = ("lie.weights_out", "lie.requests", "lie.repeats",
            "decompose.peel_off.irreps_out", "cli.import_s")


class Tracer:
    """Span totals {name: [self_s, calls]} and counters, for one process."""

    def __init__(self):
        self.totals = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._requested = set()

    def wrap(self, name, fn):
        stack = self._stack
        totals = self.totals
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.process_time() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0.0, 0]
                entry[0] += duration - frame[0]
                entry[1] += 1
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(span, fn)
        setattr(span, MARK, name)
        return span

    def _after_lie_weight_multiplicities(self, args, result):
        key = (args[0].factors, tuple(args[1]))
        self.counts["lie.requests"] += 1
        self.counts["lie.repeats"] += key in self._requested
        self._requested.add(key)
        self.counts["lie.weights_out"] += len(result.weights)

    def _after_decompose_peel_off(self, args, result):
        self.counts["decompose.peel_off.irreps_out"] += len(result.entries)

    def snapshot(self):
        """Totals and counters as plain data, for adding up or for JSON."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts)}

    def reset(self):
        """Forget totals and counters, but not which weights were requested."""
        self.totals.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)


def public_functions(module):
    """(name, function) for the module's own public module-level functions."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def _modules(package):
    return [(layer, getattr(package, layer))
            for layer in MODULES if hasattr(package, layer)]


def install(tracer, package):
    for layer, module in _modules(package):
        for attr, fn in public_functions(module):
            setattr(module, attr, tracer.wrap(layer + "." + attr, fn))


def installed(package):
    """Names of the package's functions that carry a span wrapper."""
    return [getattr(fn, MARK)
            for _, module in _modules(package)
            for _, fn in public_functions(module)
            if hasattr(fn, MARK)]


def add(into, snap, weight=1.0):
    """into += weight * snap, both in :meth:`Tracer.snapshot` form."""
    for name, (self_s, calls) in snap["totals"].items():
        entry = into["totals"].setdefault(name, [0.0, 0])
        entry[0] += weight * self_s
        entry[1] += weight * calls
    for name, value in snap["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + weight * value
    return into


def empty():
    return {"totals": {}, "counts": dict.fromkeys(COUNTERS, 0)}


def layer_metrics(snap):
    """The per-layer metrics of BENCHMARK.json from one combined snapshot."""
    totals, counts = snap["totals"], snap["counts"]
    out = {}
    for metric in SPAN_METRICS:
        name, _, kind = metric.rpartition(".")
        self_s, calls = totals.get(name, (0.0, 0))
        out[metric] = (self_s, "s") if kind == "self_s" else (calls, "count")
    out["lie.weights_out"] = (counts["lie.weights_out"], "count")
    requests = counts["lie.requests"]
    out["lie.repeat_share"] = (
        counts["lie.repeats"] / requests if requests else 0.0, "ratio")
    out["decompose.peel_off.irreps_out"] = (
        counts["decompose.peel_off.irreps_out"], "count")
    for layer in ("ratlinalg", "cli"):
        out[layer + ".self_s"] = (
            sum(v[0] for k, v in totals.items() if k.startswith(layer + ".")), "s")
    out["cli.import_s"] = (counts["cli.import_s"], "s")
    return out
