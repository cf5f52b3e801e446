"""Outside-in tracing of the locstat package.

The tracer never edits the library.  It finds, by introspection, every public
function and every public method (plus ``__init__`` and ``__call__``) defined
in each ``locstat.*`` module and replaces it, in every imported namespace that
holds it, with a wrapper that records a span.  Functions added to the package
later are therefore traced without changes here.  The layer of a span is the
module that defines the function (``locstat.process`` -> ``process``).

Spans are kept in memory as ``[name_id, parent_index, start, end]`` and
reduced at the end: a layer's self time is the duration of its spans minus
the part covered by their direct children.  Work counts are derived from the
arguments or results of a few named functions (``HOOKS``), at the boundary.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

PACKAGE = "locstat"
WRAPPED_DUNDERS = ("__init__", "__call__")
# Pre-periodogram memory is the quantity of interest.  With ``measure_memory``
# on, tracemalloc runs inside the outermost span of this layer only.  It slows
# every small allocation, so times are taken from passes with it off.
PEAK_LAYER = "spectral"
# File I/O of the package, measured inclusively as harness.io_s (none of
# these calls another).
IO_SPANS = (
    "harness.write_rows_csv",
    "harness.read_rows_csv",
    "harness.write_metadata",
    "process.TimeSeries.to_csv",
    "process.TimeSeries.from_csv",
)


def _density_points(bound, result):
    return {"process.density_points": int(np.prod(np.broadcast_shapes(np.shape(bound["u"]), np.shape(bound["lam"]))))}


def _sim_steps(bound, result):
    n = int(bound["n"])
    burn_in = bound.get("burn_in")
    burn_in = bound["model"].burn_in if burn_in is None else int(burn_in)
    return {"process.sim_steps": burn_in + n, "process.sim_useful_steps": n}


def _grid_rows(bound, result):
    times = bound.get("times")
    rows = bound["self"].n if times is None else len(times)
    return {"spectral.grid_rows_computed": rows}


def _normals(bound, result):
    spec = bound["spec"]
    return {"espec.normals_drawn": int(spec.replications) * int(spec.n)}


def _monotone_fit(bound, result):
    return {"estimator.fits": 1, "estimator.fit_iterations": int(result.iterations)}


HOOKS = {
    "process.spectral_density": _density_points,
    "process.simulate_tvar": _sim_steps,
    "spectral.PrePeriodogram.evaluate_grid": _grid_rows,
    "espec.chi2_tail_study": _normals,
    "estimator.fit_monotone_tvar": _monotone_fit,
}


class Tracer:
    """Span recorder for the functions of one package.

    Wrappers record only while ``active`` is true, so checks and bookkeeping
    between timed passes leave no spans.
    """

    def __init__(self):
        self.active = False
        self.measure_memory = False
        self.names = []
        self.layers = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.peak_bytes = 0
        self._peak_depth = 0

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        name_id = self._name_id(name, layer)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        measures_peak = layer == PEAK_LAYER
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            outermost_peak = measures_peak and tracer.measure_memory and tracer._peak_depth == 0
            if measures_peak:
                tracer._peak_depth += 1
            if outermost_peak:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if measures_peak:
                    tracer._peak_depth -= 1
                if outermost_peak:
                    tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts.update(hook(bound.arguments, result))
            return result

        return wrapper

    def install(self):
        """Wrap every public function and method of the package's modules."""
        replacements = {}
        modules = [m for key, m in list(sys.modules.items()) if key.startswith(PACKAGE + ".") and m is not None]
        for module in modules:
            layer = module.__name__.split(".")[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind in every namespace that imported one of the wrapped functions
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                if id(obj) in replacements:
                    namespace[attr] = replacements[id(obj)]

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name, layer)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name, layer))

    def clear(self):
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def reduce(self):
        """Per-layer calls and self seconds, per-name calls, inclusive I/O
        seconds and the seconds covered by root spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name_id, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self = Counter()
        layer_calls = Counter()
        name_calls = Counter()
        root_s = 0.0
        io_s = 0.0
        io_ids = {i for i, name in enumerate(self.names) if name in IO_SPANS}
        for index, (name_id, parent, start, end) in enumerate(spans):
            layer = self.layers[name_id]
            layer_self[layer] += (end - start) - child_time[index]
            layer_calls[layer] += 1
            name_calls[self.names[name_id]] += 1
            if parent < 0:
                root_s += end - start
            if name_id in io_ids:
                io_s += end - start
        return {
            "layer_self_s": dict(layer_self),
            "layer_calls": dict(layer_calls),
            "name_calls": dict(name_calls),
            "root_s": root_s,
            "io_s": io_s,
        }

    def dump(self):
        """Spans in a JSON-friendly form: the name table and the span rows."""
        return {"names": self.names, "spans": self.spans}
