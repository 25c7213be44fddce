"""Runtime wrappers that time the calls into each zonalg module.

``Tracer.install()`` replaces every public function and public method of
the nine library modules (the layers) with a wrapper that records a span
(name, layer, start, end, parent) in memory.  A function is patched in
every namespace that binds the same object, so ``spectra.eulerian_A`` and
``gfseries.eulerian_A`` are the same traced callable.  Methods are patched on
the class, which every namespace shares.

Left unwrapped, so that their time is the caller's self time:

* every method of ``RatPoly`` and the per-coefficient ``TruncSeries``
  operators, whose calls are cheaper than a wrapper;
* constructors, properties, ``__call__`` and the comparison and hashing
  dunders, which run inside dict lookups.

A layer's self time is the sum over its spans of the span duration minus
the time covered by the span's direct children.  Counters that need the
arguments or the result (elements enumerated, matrix cells, input points)
are kept by small hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array

LAYERS = (
    "arrangement",
    "permstat",
    "gfseries",
    "titsalgebra",
    "linalg",
    "polyclass",
    "spectra",
    "hopfgp",
    "cli",
)

OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__")

SKIP = {
    "gfseries.RatPoly": None,  # None: the whole class
    "gfseries.TruncSeries": frozenset(
        OPERATORS + ("scale", "coeff", "from_coeffs", "zero", "one", "x")
    ),
}

# Layers whose functools caches are reported, with their hit ratio.
CACHED_LAYERS = ("arrangement", "spectra", "gfseries")

# Counted calls, by traced name -> per-layer metric.
CALL_COUNTERS = {
    "linalg.solve_unique": "linalg.solves",
    "arrangement.tits_product": "arrangement.tits_products",
    "titsalgebra.TitsElement.__mul__": "titsalgebra.products",
    "polyclass.VPolytope.minkowski": "polyclass.minkowski_calls",
    "polyclass.VPolytope.face_max": "polyclass.face_max_calls",
    "polyclass.psi1": "polyclass.cone_weight_calls",
    "polyclass.polytope_cone_weights": "polyclass.cone_weight_calls",
    "polyclass.VPolytope.cone_weight": "polyclass.cone_weight_calls",
}

COUNTERS = (
    "permstat.elements",
    "linalg.cells",
    "linalg.solves",
    "arrangement.tits_products",
    "titsalgebra.products",
    "polyclass.minkowski_calls",
    "polyclass.face_max_calls",
    "polyclass.cone_weight_calls",
    "polyclass.input_points",
)


def _matrix_cells(args, kwargs):
    """Rows x columns of the matrix argument.  The rows are materialized
    first, so that a generator can be measured and still be passed on."""
    rows = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
    args = (rows,) + tuple(args[1:])
    width = args[1] if len(args) > 1 else kwargs.get("width")
    if not isinstance(width, int):  # solve_unique's rhs, or rank without width
        width = len(rows[0]) if rows else 0
    return len(rows) * width, args


# traced name -> (counter, pre, post), either hook None:
# pre(args, kwargs) -> (amount, args), post(result) -> amount
HOOKS = {
    "permstat.symmetric_group": ("permstat.elements", None, len),
    "permstat.hyperoctahedral_group": ("permstat.elements", None, len),
    "permstat.enumerate_group": ("permstat.elements", None, len),
    "linalg.rank": ("linalg.cells", _matrix_cells, None),
    "linalg.nullspace": ("linalg.cells", _matrix_cells, None),
    "linalg.solve_unique": ("linalg.cells", _matrix_cells, None),
    "linalg.integer_kernel": ("linalg.cells", _matrix_cells, None),
    "linalg.det": ("linalg.cells", _matrix_cells, None),
    "linalg.IncrementalRank.add": (
        "linalg.cells",
        lambda args, kwargs: (args[0].width, args),
        None,
    ),
    "polyclass.polytope_from_json": (
        "polyclass.input_points",
        lambda args, kwargs: (len(args[0]["points"]), args),
        None,
    ),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []  # span name table; spans store an index into it
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack = []  # [span index, time covered by direct children]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._caches = {layer: [] for layer in CACHED_LAYERS}
        self._installed = []  # (owner, attribute, original) to undo

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        calls, self_s, counters = self.calls, self.self_s, self.counters
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent
        counted = CALL_COUNTERS.get(name)
        counter, pre, post = HOOKS.get(name, (None, None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                amount, args = pre(args, kwargs)
                counters[counter] += amount
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            start.append(0.0)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                start[idx] = t0
                end[idx] = t1
                calls[layer] += 1
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counted is not None:
                counters[counted] += 1
            if post is not None:
                counters[counter] += post(result)
            return result

        return traced

    def install(self):
        """Wrap the public API of every layer module; returns self."""
        modules = {layer: importlib.import_module("zonalg." + layer) for layer in LAYERS}
        package = importlib.import_module("zonalg")
        replacement = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if layer in CACHED_LAYERS and hasattr(value, "cache_info"):
                    self._caches[layer].append(value)
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        self._wrap_class(layer, value)
                elif inspect.isfunction(value) or hasattr(value, "cache_info"):
                    replacement[id(value)] = self._wrap(layer, f"{layer}.{attr}", value)
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, layer, cls):
        qual = f"{layer}.{cls.__name__}"
        skip = SKIP.get(qual, frozenset())
        if skip is None:
            return
        for attr, value in list(vars(cls).items()):
            if attr in skip or (attr.startswith("_") and attr not in OPERATORS):
                continue
            name = f"{qual}.{attr}"
            if inspect.isfunction(value):
                new = self._wrap(layer, name, value)
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(layer, name, value.__func__))
            elif isinstance(value, staticmethod):
                new = staticmethod(self._wrap(layer, name, value.__func__))
            else:
                continue
            self._installed.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def cache_stats(self):
        """(hits, lookups) per cached layer, from functools ``cache_info()``."""
        out = {}
        for layer, fns in self._caches.items():
            hits = misses = 0
            for fn in fns:
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            out[layer] = (hits, hits + misses)
        return out

    def metrics(self):
        """Per-layer metrics of everything traced so far, as plain numbers."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counters)
        for layer, (hits, lookups) in self.cache_stats().items():
            out[f"{layer}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{layer}.cache_lookups"] = lookups
        return out

    def write_spans(self, path):
        """Write the spans: a JSON header line, then the raw arrays.

        The header gives the span count, the name table and the array order;
        the arrays follow as native doubles (start, end, in perf_counter
        seconds) and native ints (name index, parent span index or -1).
        """
        header = {
            "spans": len(self.start),
            "names": self.names,
            "arrays": ["start:d", "end:d", "name_id:i", "parent:i"],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name_id, self.parent):
                arr.tofile(fh)
