"""Run one rieszmin CLI command in-process with a span around every call into
its layers, and write the per-layer summary as JSON.

    python3 perfbench/tracer.py SUMMARY.json <rieszmin cli arguments>

Spans are recorded from the benchmark's side: after `import rieszmin.cli`,
each public function and method defined in the traced modules is replaced,
in every loaded rieszmin module that refers to it, by a wrapper that times
the call.  Nothing in the package is edited.  A span's self time is its
duration minus the time covered by its direct child spans.  Counts derived
from argument shapes (kernel evaluations, pairs) are computed here, not
reported by the program.  Peak allocations (tracemalloc) are taken by
replaying the calls after the command ends, so no span is timed under
tracemalloc; the summary's `untimed_s` is the time that replay took.

Spans are kept per thread; a call made on a worker thread starts a root
span there, so self times stay exact only for single-threaded runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("kernels", "energy", "measures", "quantizer", "minimizer", "diagnostics", "io", "cli")

# the CSV round trip of configurations lives in energy but is file I/O
ALIASES = {
    "energy.save_configuration_csv": "io.configuration_csv",
    "energy.load_configuration_csv": "io.configuration_csv",
}


def _size(r) -> int:
    return int(getattr(r, "size", 1))


def _ordered_pairs(points) -> int:
    return len(points) * (len(points) - 1)


# counts computed from each call's positional arguments and result:
# span -> (counter, increment)
COUNTS = {
    "kernels.radial": ("kernels.radial.evals", lambda a, r: _size(a[1])),
    "kernels.radial_prime": ("kernels.radial_prime.evals", lambda a, r: _size(a[1])),
    "energy.pair_interaction_sum": ("energy.pair_interaction_sum.pairs",
                                    lambda a, r: _ordered_pairs(a[0])),
    "energy.gradient_of_points": ("energy.gradient_of_points.pairs",
                                  lambda a, r: _ordered_pairs(a[0])),
    "energy.pair_distance_stats": ("energy.pair_distance_stats.pairs",
                                   lambda a, r: _ordered_pairs(a[0])),
    "energy.potential_grid": ("energy.potential_grid.pairs", lambda a, r: len(a[0]) * len(a[3])),
    "energy.cross_energy": ("energy.cross_energy.pairs", lambda a, r: a[0].n1 * a[1].n1),
    "quantizer.select_representatives": ("quantizer.greedy_improvements",
                                         lambda a, r: r.selection.greedy_improvements),
}

# the energy layer's passes over point pairs
PAIR_PASSES = tuple(span for span, (counter, _) in COUNTS.items() if counter.endswith(".pairs"))

# functions whose peak traced allocation is recorded: their calls are
# replayed under tracemalloc after the command ends, so that the timed
# calls run without it
PEAK_MEMORY = ("diagnostics.cluster_classify",)

# private minimizer helpers counted (not timed) to read iterations and
# repair outcomes; absent probes are reported as missing
PROBES = ("minimizer._descend", "minimizer._repair_points")


def _positional(fn, args, kwargs):
    """Positional view of a call, with keyword arguments bound in."""
    if not kwargs:
        return args
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return tuple(bound.arguments.values())


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.nested_calls = Counter()     # (ancestor span, span) -> calls
        self.pair_sum_s_by_n = defaultdict(list)
        self.peak_mb = Counter()
        self.peak_calls = []              # (span, fn, args, kwargs) to replay
        self.missing_probes = []
        self.active = True
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTS.get(name)
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._close(name, duration, frame[1], stack)
            if peak:
                self.peak_calls.append((name, fn, args, kwargs))
            if counter is not None:
                positional = _positional(fn, args, kwargs)
                self.counts[counter[0]] += counter[1](positional, result)
                if name == "energy.pair_interaction_sum":
                    self.pair_sum_s_by_n[len(positional[0])].append(duration)
            return result

        return traced

    def _close(self, name, duration, child_s, stack):
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if stack:
            stack[-1][1] += duration
        for ancestor in {frame[0] for frame in stack}:
            self.nested_calls[ancestor, name] += 1

    def replay_peak_calls(self) -> float:
        """Call each PEAK_MEMORY call again under tracemalloc, untraced, and
        record its peak allocation; returns the seconds this took."""
        start = time.perf_counter()
        self.active = False
        for name, fn, args, kwargs in self.peak_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peak_mb[name] = max(self.peak_mb[name],
                                         tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        self.peak_calls.clear()
        return time.perf_counter() - start

    def probe(self, name: str, fn):
        """Count-only wrapper for a private helper (no span)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self.active:
                return result
            if name == "minimizer._descend":
                if result is not None:
                    self.counts["minimizer.iterations"] += result[3]
            else:
                self.counts["minimizer.repair.attempts"] += 1
                self.counts["minimizer.repair.accepted"] += result is not None
            return result

        return counted


def _method_base(cls, name):
    """The topmost class of cls's module in its MRO that defines name."""
    return [c for c in cls.__mro__
            if c.__module__ == cls.__module__ and name in vars(c)][-1]


def install(tracer: Tracer) -> None:
    """Replace the traced functions everywhere rieszmin refers to them."""
    modules = {name: sys.modules[f"rieszmin.{name}"] for name in LAYERS}
    functions = {}
    methods = defaultdict(list)   # (layer, method) -> [(class, base, fn)]
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{layer}.{attr}"
                functions[obj] = tracer.wrap(ALIASES.get(span, span), obj)
            elif inspect.isclass(obj):
                for mname, fn in vars(obj).items():
                    if mname.startswith("_") or not inspect.isfunction(fn) \
                            or getattr(fn, "__isabstractmethod__", False):
                        continue
                    methods[layer, mname].append((obj, _method_base(obj, mname), fn))
    for (layer, mname), defs in methods.items():
        qualify = len({base for _, base, _ in defs}) > 1
        for cls, base, fn in defs:
            span = f"{layer}.{base.__name__}.{mname}" if qualify else f"{layer}.{mname}"
            setattr(cls, mname, tracer.wrap(span, fn))
    for probe in PROBES:
        layer, attr = probe.split(".")
        fn = getattr(modules[layer], attr, None)
        if fn is None:
            tracer.missing_probes.append(probe)
        else:
            functions[fn] = tracer.probe(probe, fn)
    for name, mod in list(sys.modules.items()):
        if name != "rieszmin" and not name.startswith("rieszmin."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in functions:
                setattr(mod, attr, functions[obj])


def summary(tracer: Tracer) -> dict:
    spans = {
        name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
               "self_s": tracer.self_s[name]}
        for name in sorted(tracer.calls)
    }
    nested = defaultdict(dict)
    for (ancestor, name), calls in tracer.nested_calls.items():
        nested[ancestor][name] = calls
    return {
        "spans": spans,
        "counts": dict(tracer.counts),
        "nested_calls": nested,
        "pair_sum_s_by_n": {str(n): v for n, v in sorted(tracer.pair_sum_s_by_n.items())},
        "peak_mb": dict(tracer.peak_mb),
        "missing_probes": tracer.missing_probes,
    }


def main(argv) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import rieszmin.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = rieszmin.cli.main(cli_argv)
    untimed_s = tracer.replay_peak_calls()
    doc = summary(tracer)
    doc["import_s"] = import_s
    doc["untimed_s"] = untimed_s
    doc["exit_code"] = code
    with open(summary_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
