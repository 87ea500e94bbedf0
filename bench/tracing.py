"""Per-layer tracing of the library, from the benchmark's side.

`Tracer.install` wraps public functions of a freshly imported `mucone`
(module attributes, in every module that imported them, and class
attributes), so the library itself is untouched.  Wrapped calls record a
span (name, start, end, parent) in memory; some calls are only counted,
where a span per call would cost more than the work it times.  A layer's
self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name, whether to record spans or only count calls).
# The names are the per-layer metric stems.  Products and mu calls are only
# counted: there are too many of them for a span each.
FUNCTIONS = [
    ("geometry", "normal_cone", "geometry.normal_cone", True),
    ("geometry", "subdivide_to_basic", "geometry.subdivide", True),
    ("geometry", "normalized_volume", "geometry.normalized_volume", True),
    ("linalg", "solve_linear", "linalg.solve_linear", True),
    ("interp", "mu_on_line", "interp.mu_on_line", True),
    ("interp", "mu_basic", "interp.mu_basic", True),
    ("interp", "mu_explicit", "interp.mu_explicit", True),
    ("interp", "mu", "interp.mu", False),
    ("series", "combine_over_common_denominator", "series.combine", True),
    ("series", "divide_by_linear_form", "series.divide", True),
    ("valuations", "verify_interpolator", "valuations.verify_self", True),
    ("valuations", "s_series", "valuations.s_series", True),
    ("valuations", "i_face_series", "valuations.i_face_series", True),
]
# (module, class, method, span name, spans or count only)
METHODS = [
    ("geometry", "Polytope", "__init__", "geometry.polytope", True),
    ("complement", "ComplementMap", "solve_u", "complement.solve_u", True),
    ("interp", "SquarefreeReducer", "reduce", "interp.reduce", True),
    ("series", "MultiSeries", "__mul__", "series.mul", False),
]

# Per-layer metrics: name -> unit.  Names ending in _s are self times,
# _calls count calls; the rest are described in README.md.
PER_LAYER = {
    "geometry.polytope_s": "s",
    "geometry.normal_cone_s": "s",
    "geometry.normal_cone_calls": "count",
    "geometry.subdivide_s": "s",
    "geometry.subdivide_calls": "count",
    "geometry.basic_cells": "count",
    "geometry.normalized_volume_s": "s",
    "linalg.solve_linear_s": "s",
    "linalg.solve_linear_calls": "count",
    "complement.solve_u_s": "s",
    "complement.solve_u_calls": "count",
    "complement.solve_u_distinct": "count",
    "interp.reduce_s": "s",
    "interp.reduce_calls": "count",
    "interp.mu_on_line_s": "s",
    "interp.mu_basic_s": "s",
    "interp.mu_explicit_s": "s",
    "interp.mu_calls": "count",
    "interp.mu_cache_hit_ratio": "ratio",
    "series.combine_s": "s",
    "series.combine_calls": "count",
    "series.divide_s": "s",
    "series.combine_max_terms": "count",
    "series.mul_calls": "count",
    "valuations.verify_self_s": "s",
    "valuations.s_series_s": "s",
    "valuations.i_face_series_s": "s",
    "valuations.direction_attempts": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two passes over the same inputs.
COLD_PASS_COUNTS = ("interp.reduce_calls", "interp.mu_calls", "geometry.subdivide_calls",
                    "geometry.basic_cells", "series.combine_calls",
                    "complement.solve_u_calls")


class _CountingCache(dict):
    """The mu cache, counting lookups that found a value."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def get(self, key, default=None):
        got = super().get(key, default)
        if got is not None:
            self._tracer.counts["interp.mu_cache_hits"] += 1
        return got


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_combine_terms = 0
        self._solve_u_keys: set = set()

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_subdivide(self, args, out):
        self.counts["geometry.basic_cells"] += len(out.children)

    def _after_combine(self, args, out):
        self.max_combine_terms = max(self.max_combine_terms, len(out[0].coeffs))

    def _after_verify(self, args, out):
        self.counts["valuations.direction_attempts"] += len(out.attempts)

    def _after_solve_u(self, args, out):
        cmap, rays, target = args
        self._solve_u_keys.add((id(cmap), tuple(rays), target))

    def _wrap(self, name, fn, spanned):
        if not spanned:
            return self._counted(name, fn)
        after = {"geometry.subdivide": self._after_subdivide,
                 "series.combine": self._after_combine,
                 "valuations.verify_self": self._after_verify,
                 "complement.solve_u": self._after_solve_u}.get(name)
        return self._spanned(name, fn, after)

    def install(self, m):
        """Wrap the layers of the freshly imported mucone namespace `m`.

        A function is replaced in every mucone module that holds it, since
        `from .x import f` binds its own name.
        """
        modules = [mod for name, mod in sys.modules.items()
                   if name == "mucone" or name.startswith("mucone.")]
        for mod_name, attr, name, spanned in FUNCTIONS:
            fn = getattr(getattr(m, mod_name), attr)
            wrapper = self._wrap(name, fn, spanned)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, name, spanned in METHODS:
            cls = getattr(getattr(m, mod_name), cls_name)
            setattr(cls, meth, self._wrap(name, cls.__dict__[meth], spanned))
        m.interp._MU_CACHE = _CountingCache(self)

    # -- results --------------------------------------------------------------

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def metrics(self, overhead_s: float) -> dict:
        self_s = self.self_times()
        c = self.counts
        values = {}
        for metric in PER_LAYER:
            stem = metric.rsplit("_", 1)[0]
            if metric.endswith("_s"):
                values[metric] = self_s[stem]
            elif metric.endswith("_calls"):
                values[metric] = c[stem]
        values["geometry.basic_cells"] = c["geometry.basic_cells"]
        values["complement.solve_u_distinct"] = len(self._solve_u_keys)
        mu_calls = c["interp.mu"]
        values["interp.mu_cache_hit_ratio"] = (
            c["interp.mu_cache_hits"] / mu_calls if mu_calls else 0.0)
        values["series.combine_max_terms"] = self.max_combine_terms
        values["valuations.direction_attempts"] = c["valuations.direction_attempts"]
        values["trace.overhead_s"] = overhead_s
        return values

    def write(self, path):
        """Write the spans, one per line: name,start,end,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
