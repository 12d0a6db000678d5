"""Spans around the calls between formred's layers, wrapped in at run time.

The wrap targets are the names through which formred.reduce and formred.cli
reach the other layers.  A target that no longer exists, after a refactor,
is reported as absent and its metrics read null; the run carries on.
"""

import functools
import importlib
import json
import time

# (span name, module, attribute path, note on the result)
TARGETS = (
    ("reduce.compare_methods", "formred", "compare_methods", None),
    ("reduce.reduce_form", "formred", "reduce_form", None),
    ("reduce.reduce_form", "formred.reduce", "reduce_form", None),
    ("reduce.reduce_form", "formred.cli", "reduce_form", None),
    ("reduce.zero_point", "formred.reduce", "zero_point", None),
    ("reduce.report_json", "formred.reduce", "ReductionReport.to_dict", None),
    ("reduce.report_json", "formred.reduce", "ReductionReport.to_json", None),
    ("reduce.report_json", "formred.reduce", "ComparisonReport.to_dict", None),
    ("roots.root_set", "formred.reduce", "root_set", None),
    ("roots.complex_roots", "formred.roots", "complex_roots", None),
    ("roots.pair_conjugates", "formred.roots", "pair_conjugates", None),
    ("roots.real_quadratic_factors", "formred.reduce", "real_quadratic_factors", None),
    ("centroid.center_exact", "formred.centroid", "center_from_quadratic_factors_exact",
     lambda result: result is not None),
    ("centroid.center_float", "formred.centroid", "center_from_quadratic_factors", None),
    ("julia.julia_zero_real", "formred.reduce", "julia_zero_real",
     lambda result: getattr(result, "iterations", None)),
    ("hyperbolic.reduce_point", "formred.reduce", "reduce_point_exact", None),
    ("hyperbolic.reduce_point", "formred.reduce", "reduce_point_to_fundamental_domain", None),
    ("forms.transform", "formred.reduce", "transform", None),
    ("forms.normalized_height", "formred.reduce", "normalized_height", None),
    ("forms.parse", "formred.cli", "parse", None),
    ("cli.main", "formred.cli", "main", None),
)

ROOT = "bench.call"

# per-layer metric -> (unit, span names it needs)
METRICS = {
    "roots.complex_roots.ms_per_form": ("ms", ("roots.complex_roots",)),
    "roots.complex_roots.calls_per_form": ("1", ("roots.complex_roots",)),
    "roots.complex_roots.fail_frac": ("1", ("roots.complex_roots",)),
    "roots.pair_conjugates.ms_per_form": ("ms", ("roots.pair_conjugates",)),
    "roots.real_quadratic_factors.ms_per_form": ("ms", ("roots.real_quadratic_factors",)),
    "centroid.ms_per_form": ("ms", ("centroid.center_exact", "centroid.center_float")),
    "centroid.exact_frac": ("1", ("centroid.center_exact",)),
    "julia.julia_zero_real.ms_per_form": ("ms", ("julia.julia_zero_real",)),
    "julia.iterations_mean": ("1", ("julia.julia_zero_real",)),
    "hyperbolic.reduce_point.ms_per_form": ("ms", ("hyperbolic.reduce_point",)),
    "forms.transform.ms_per_form": ("ms", ("forms.transform",)),
    "forms.normalized_height.ms_per_form": ("ms", ("forms.normalized_height",)),
    "forms.parse.ms_per_form": ("ms", ("forms.parse",)),
    "reduce.report_json.ms_per_form": ("ms", ("reduce.report_json",)),
    "reduce.self_ms_per_form": ("ms", ("reduce.reduce_form", "reduce.zero_point")),
    "cli.self_ms_per_form": ("ms", ("cli.main",)),
    "trace.overhead_frac": ("1", ()),
}


def layer(name):
    return name.split(".", 1)[0]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Span:
    __slots__ = ("name", "start", "end", "parent", "form", "error", "note")

    def __init__(self, name, parent, form):
        self.name, self.parent, self.form = name, parent, form
        self.start = self.end = 0.0
        self.error = self.note = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory spans; `install` wraps the targets, `uninstall` restores them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.stack = []
        self.form = None
        self.installed = []
        found = {name for name, module, path, _ in targets if self._exists(module, path)}
        self.absent = sorted({name for name, *_ in targets} - found)

    @staticmethod
    def _exists(module, path):
        try:
            _resolve(module, path)
        except (ImportError, AttributeError):
            return False
        return True

    def span(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.form)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def install(self):
        for name, module, path, note in self.targets:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self.span(name, fn, note))
            self.installed.append((owner, attr, fn))

    def uninstall(self):
        while self.installed:
            owner, attr, fn = self.installed.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "form": s.form, "error": s.error, "note": s.note}) + "\n")


def self_times(spans, scale):
    """Self time of each span (its duration minus its children's), scaled per form."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.duration
    return [(s, (s.duration - child.get(id(s), 0.0)) * scale[s.form]) for s in spans]


def _outermost(spans, names):
    """Spans of the given names with no ancestor among those names."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans, scale, forms, absent, overhead_frac):
    """Per-layer metrics; times in ms at reference speed (see workloads.REF_MS)."""

    def ms(names):
        return sum(s.duration * scale[s.form] for s in _outermost(spans, names)) * 1e3 / forms

    def self_ms(names):
        return sum(t for s, t in selfs if s.name in names) * 1e3 / forms

    selfs = self_times(spans, scale)
    roots = [s for s in spans if s.name == "roots.complex_roots"]
    exact = _outermost(spans, {"centroid.center_exact"})
    julia = [s.note for s in spans if s.name == "julia.julia_zero_real" and s.note is not None]
    values = {
        "roots.complex_roots.ms_per_form": ms({"roots.complex_roots"}),
        "roots.complex_roots.calls_per_form": len(roots) / forms,
        "roots.complex_roots.fail_frac": (sum(s.error is not None for s in roots) / len(roots)
                                          if roots else 0.0),
        "roots.pair_conjugates.ms_per_form": ms({"roots.pair_conjugates"}),
        "roots.real_quadratic_factors.ms_per_form": ms({"roots.real_quadratic_factors"}),
        "centroid.ms_per_form": ms({"centroid.center_exact", "centroid.center_float"}),
        "centroid.exact_frac": (sum(s.note is True for s in exact) / len(exact)
                                if exact else 0.0),
        "julia.julia_zero_real.ms_per_form": ms({"julia.julia_zero_real"}),
        "julia.iterations_mean": sum(julia) / forms,
        "hyperbolic.reduce_point.ms_per_form": ms({"hyperbolic.reduce_point"}),
        "forms.transform.ms_per_form": ms({"forms.transform"}),
        "forms.normalized_height.ms_per_form": ms({"forms.normalized_height"}),
        "forms.parse.ms_per_form": ms({"forms.parse"}),
        "reduce.report_json.ms_per_form": ms({"reduce.report_json"}),
        "reduce.self_ms_per_form": self_ms({"reduce.compare_methods", "reduce.reduce_form",
                                            "reduce.zero_point", "reduce.report_json"}),
        "cli.self_ms_per_form": self_ms({"cli.main"}),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": None if set(needs) & set(absent) else values[name], "unit": unit}
            for name, (unit, needs) in METRICS.items()}


def self_time_table(spans, scale, forms):
    """(span name or layer, self ms per form) rows, and the traced total per form."""
    by_name, by_layer = {}, {}
    for s, t in self_times(spans, scale):
        by_name[s.name] = by_name.get(s.name, 0.0) + t * 1e3 / forms
        by_layer[layer(s.name)] = by_layer.get(layer(s.name), 0.0) + t * 1e3 / forms
    total = sum(s.duration * scale[s.form] for s in spans if s.parent is None) * 1e3 / forms
    return by_name, by_layer, total
