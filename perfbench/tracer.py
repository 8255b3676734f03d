"""Spans around calls into each diskpd module's public functions.

The tracer wraps every public function at every module-level binding (and
in module-level dicts such as ``verify.SUITES``), because the package
imports functions by name.  A span is ``[id, parent_id, op_id, name, t0,
t1, attrs]``; spans stay in memory and are written out when the run ends.
Counters are read from the values the functions return.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "core", "radius", "orthopoly", "symmetric", "triangle", "verify")


def _arithmetic_of_collection(args, kwargs):
    collection = args[0] if args else kwargs["c"]
    return "exact" if collection.is_exact else "float"


def _arithmetic_of_mode(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "floating")
    return "exact" if mode == "exact" else "float"


def _report_attrs(report):
    attrs = {"verdict": report.verdict.value}
    if report.pivots is not None:
        pivots = [abs(p) for p in report.pivots]
        attrs["nonfinite"] = not all(math.isfinite(p) for p in pivots)
        finite = [p for p in pivots if math.isfinite(p)]
        if finite and max(finite) > 0:
            attrs["rel_pivot_log10"] = math.log10(max(min(finite) / max(finite), 1e-320))
    if report.minors is not None:
        attrs["minor_bits"] = max(
            (max(m.numerator.bit_length(), m.denominator.bit_length()) for m in report.minors),
            default=0,
        )
    return attrs


def _coeff_bits(poly):
    return {
        "coeff_bits": max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coefficients),
            default=0,
        )
    }


#: Functions whose spans are named after the arithmetic they run in.
VARIANTS = {
    "core.build_q_matrix": _arithmetic_of_collection,
    "core.is_positive_definite": _arithmetic_of_mode,
}

#: Counters read from return values.
ATTRS = {
    "core.is_positive_definite": _report_attrs,
    "orthopoly.isolate_real_roots": lambda iso: {"roots": iso.count_distinct},
    "radius.central_polynomial": _coeff_bits,
}


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack = [0]
        self._next_id = 1
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        self._sites = []  # (container, key, original, wrapper)
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for module in modules:
            for key, obj in vars(module).items():
                if id(obj) in wrappers:
                    self._sites.append((vars(module), key, obj, wrappers[id(obj)]))
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if id(v) in wrappers:
                            self._sites.append((obj, k, v, wrappers[id(v)]))

    def _wrap(self, fn, qualname):
        variant = VARIANTS.get(qualname)
        attrs_of = ATTRS.get(qualname)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            name = f"{qualname}.{variant(args, kwargs)}" if variant else qualname
            span_id = self._next_id
            self._next_id += 1
            record = [span_id, stack[-1], self.op_id, name, 0.0, 0.0, None]
            stack.append(span_id)
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
                spans.append(record)
            if attrs_of is not None:
                record[6] = attrs_of(result)
            return result

        return traced

    def install(self):
        for container, key, _, wrapper in self._sites:
            container[key] = wrapper

    def uninstall(self):
        for container, key, original, _ in self._sites:
            container[key] = original


def aggregate(spans, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes."""
    duration = {}
    name_of = {}
    child_time = defaultdict(float)
    for span_id, parent, _, name, t0, t1, _ in spans:
        duration[span_id] = t1 - t0
        name_of[span_id] = name
        child_time[parent] += t1 - t0

    out: dict[str, float] = defaultdict(float)
    for span_id, _, _, name, _, _, _ in spans:
        module, func, *variant = name.split(".")
        prefix = f"{module}.{func}." + (f"{variant[0]}_" if variant else "")
        out[prefix + "calls"] += 1 / passes
        out[prefix + "ms"] += 1e3 * duration[span_id] / passes
        out[prefix + "self_ms"] += 1e3 * (duration[span_id] - child_time[span_id]) / passes

    rel_pivots, minor_bits, coeff_bits = [], [0], [0]
    decisions_in_scale = scale_calls = 0
    used = isolated = 0
    for span_id, parent, _, name, _, _, attrs in spans:
        parent_name = name_of.get(parent, "")
        if name.startswith("core.max_uniform_scale"):
            scale_calls += 1
        elif name.startswith("core.is_positive_definite"):
            decisions_in_scale += parent_name.startswith("core.max_uniform_scale")
            out["core.is_positive_definite.indeterminate"] += (attrs["verdict"] == "indeterminate") / passes
            out["core.is_positive_definite.nonfinite_pivots"] += attrs.get("nonfinite", False) / passes
            if "rel_pivot_log10" in attrs:
                rel_pivots.append(attrs["rel_pivot_log10"])
            minor_bits.append(attrs.get("minor_bits", 0))
        elif name == "orthopoly.isolate_real_roots":
            out["orthopoly.isolate_real_roots.roots"] += attrs["roots"] / passes
            if parent_name == "radius.maximal_radius":
                used += 1
                isolated += attrs["roots"]
        elif name == "radius.central_polynomial":
            coeff_bits.append(attrs["coeff_bits"])
    out["core.is_positive_definite.min_rel_pivot_log10"] = min(rel_pivots, default=0.0)
    out["core.max_uniform_scale.decisions_per_call"] = decisions_in_scale / scale_calls if scale_calls else 0.0
    out["core.exact.minor_max_bits"] = max(minor_bits)
    out["radius.central_polynomial.max_coeff_bits"] = max(coeff_bits)
    out["radius.roots_used_per_isolated"] = used / isolated if isolated else 0.0
    return dict(out)
