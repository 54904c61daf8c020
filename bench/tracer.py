"""Span tracer that wraps folicalc's public functions from the outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent, job) while the tracer is
active, and passes straight through otherwise.  `src/` is not edited:
module-level functions are swapped in every loaded folicalc module that
bound them (so `from .forms import wedge` in commands.py is traced too), and
methods are swapped on the public classes.  Targets that a later version of
the package no longer has are skipped and read as zero.

Self time is a span's duration minus the time covered by its child spans;
the wrappers keep a stack, so it is computed as spans close.  Spans are kept
in memory (up to SPAN_CAP) and written out by `write_spans` when the run
ends.  Counts (calls, terms, characters, bytes, coefficient bits) are exact
for a fixed job list.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Layer name -> traced targets.  ("module", "Class.attr") wraps a method on a
# public class; ("module", "func") wraps a module-level function.
TARGETS = {
    "expr.mul": [("expr", "Expression.__mul__"), ("expr", "Expression.__rmul__")],
    "expr.add": [
        ("expr", "Expression.__add__"),
        ("expr", "Expression.__radd__"),
        ("expr", "Expression.__sub__"),
        ("expr", "Expression.__rsub__"),
        ("expr", "Expression.__neg__"),
    ],
    "expr.pow": [("expr", "Expression.__pow__")],
    "expr.partial": [("expr", "Expression.partial")],
    "expr.new": [
        ("expr", "Expression.__init__"),
        ("expr", "Expression.constant"),
        ("expr", "Expression.variable"),
    ],
    "expr.str": [("expr", "Expression.__str__")],
    "dsl.parse": [("dsl", "parse_document")],
    "dsl.print": [("dsl", "print_document")],
    "forms.wedge": [("forms", "wedge")],
    "forms.d": [("forms", "leafwise_differential"), ("forms", "exterior_differential")],
    "forms.restrict": [("forms", "restrict_form")],
    "forms.add": [("forms", "form_add")],
    "forms.new": [("forms", "LeafwiseForm.__init__"), ("forms", "ExteriorForm.__init__")],
    "charts.check": [
        ("charts", "check_adapted_transition"),
        ("charts", "check_foliated_bundle_transition"),
        ("charts", "is_foliated_function"),
    ],
    "connections.restrict": [("connections", "restrict_connection")],
    "connections.difference": [("connections", "connection_difference")],
    "connections.covariant": [("connections", "covariant_differential")],
    "connections.new": [
        ("connections", "Connection.__init__"),
        ("connections", "LeafwiseConnection.__init__"),
        ("connections", "LeafwiseJetPoint.__init__"),
        ("connections", "VerticalValuedLeafwiseForm.__init__"),
        ("connections", "BundleSection.__init__"),
    ],
    "extension.extend": [("extension", "extend_connection")],
    "extension.verify": [("extension", "verify_extension")],
    "extension.dependence": [("extension", "extension_dependence")],
    "extension.new": [("extension", "Splitting.__init__"), ("extension", "SolderingForm.__init__")],
    "commands.run": [("commands", "run_command")],
    "commands.render": [("commands", "Report.to_text"), ("commands", "Report.to_json")],
    "cli.main": [("cli", "main")],
}

# Layers whose outputs are Expressions (terms and coefficient sizes counted).
_EXPR_LAYERS = {"expr.mul", "expr.add", "expr.pow", "expr.partial", "expr.new"}
# Ignore tiny products in the slope fit: their time is call overhead.
_SLOPE_MIN_TERMS = 16
# Spans beyond this many are counted but not kept.
SPAN_CAP = 100_000


class _Fit:
    """Online least squares of log(time) on log(size)."""

    __slots__ = ("n", "sx", "sy", "sxx", "sxy")

    def __init__(self):
        self.n = self.sx = self.sy = self.sxx = self.sxy = 0.0

    def add(self, size: float, seconds: float):
        if size <= 0 or seconds <= 0:
            return
        x, y = math.log(size), math.log(seconds)
        self.n += 1
        self.sx += x
        self.sy += y
        self.sxx += x * x
        self.sxy += x * y

    def slope(self) -> float:
        spread = self.n * self.sxx - self.sx * self.sx
        if self.n < 3 or spread <= 1e-9 * max(1.0, self.n * self.sxx):
            return 0.0
        return (self.n * self.sxy - self.sx * self.sy) / spread


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "expr.mul.terms_out": 0,
            "expr.str.chars_out": 0,
            "expr.peak_terms": 0,
            "expr.max_coeff_bits": 0,
            "dsl.print.bytes_out": 0,
            "dsl.parse.bytes_in": 0,
            "commands.checks_out": 0,
        }
        self.mul_fit = _Fit()
        self.parse_fit = _Fit()

    # -- installation ---------------------------------------------------------

    def install(self):
        package = sys.modules["folicalc"]
        modules = [m for n, m in sys.modules.items() if n == "folicalc" or n.startswith("folicalc.")]
        for layer, targets in TARGETS.items():
            for module_name, path in targets:
                module = getattr(package, module_name, None)
                if module is None:
                    continue
                if "." in path:
                    self._wrap_method(layer, module, path)
                else:
                    self._wrap_function(layer, module, path, modules)

    def _wrap_function(self, layer, module, name, modules):
        original = getattr(module, name, None)
        if original is None:
            return
        wrapper = self._wrapper(layer, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, layer, module, path):
        class_name, attr = path.split(".")
        cls = getattr(module, class_name, None)
        if cls is None:
            return
        raw = None
        for klass in cls.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if raw is None:
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrapper(layer, raw.__func__)))
        else:
            setattr(cls, attr, self._wrapper(layer, raw))

    # -- the wrapper ------------------------------------------------------------

    def _wrapper(self, layer, function):
        tracer = self
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter
        is_parse = layer == "dsl.parse"
        parse_error = sys.modules["folicalc"].ParseError

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, -1]  # child seconds, span index
            if len(spans) < SPAN_CAP:
                frame[1] = len(spans)
                spans.append([layer, 0.0, 0.0, parent[1] if parent else -1, tracer.job])
            else:
                tracer.dropped += 1
            stack.append(frame)
            name = layer
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                if is_parse and isinstance(error, parse_error):
                    name = "dsl.parse_error"
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + duration - frame[0]
                total_s[name] = total_s.get(name, 0.0) + duration
                if frame[1] >= 0:
                    span = spans[frame[1]]
                    span[0], span[1], span[2] = name, start, end
                if parent is not None:
                    parent[0] += duration
            tracer._observe(layer, args, result, duration)
            if parent is not None:
                # The parent should not be charged for the bookkeeping above.
                parent[0] += clock() - end
            return result

        return traced

    def _observe(self, layer, args, result, duration):
        counts = self.counts
        if layer in _EXPR_LAYERS:
            expr = args[0] if layer == "expr.new" and result is None else result
            terms = getattr(expr, "terms", None)
            if terms is None:
                return
            size = len(terms)
            if size > counts["expr.peak_terms"]:
                counts["expr.peak_terms"] = size
            bits = counts["expr.max_coeff_bits"]
            for _, coeff in terms:
                b = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                if b > bits:
                    bits = b
            counts["expr.max_coeff_bits"] = bits
            if layer == "expr.mul":
                counts["expr.mul.terms_out"] += size
                if size >= _SLOPE_MIN_TERMS:
                    self.mul_fit.add(size, duration)
        elif layer == "expr.str":
            counts["expr.str.chars_out"] += len(result)
        elif layer == "dsl.print":
            counts["dsl.print.bytes_out"] += len(result.encode())
        elif layer == "dsl.parse":
            text = args[0]
            counts["dsl.parse.bytes_in"] += len(text.encode())
            # Canonical text has one " = " per assignment and one separator
            # between terms, so this counts the terms parsed.
            terms = text.count(" = ") + text.count(" + ") + text.count(" - ")
            self.parse_fit.add(terms, duration)
        elif layer == "commands.run":
            counts["commands.checks_out"] += len(result.checks)

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        def calls(name):
            return self.calls.get(name, 0)

        def self_ms(name):
            return self.self_s.get(name, 0.0) * 1e3

        out = {}
        for layer in (
            "expr.mul", "expr.add", "expr.pow", "expr.partial", "expr.new", "expr.str",
            "dsl.parse", "dsl.parse_error", "dsl.print",
            "forms.wedge", "forms.d", "forms.restrict", "forms.add", "forms.new",
            "charts.check",
            "connections.restrict", "connections.difference", "connections.covariant",
            "connections.new",
            "extension.extend", "extension.verify", "extension.dependence", "extension.new",
            "commands.run",
        ):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.self_ms"] = self_ms(layer)
        out["commands.render.self_ms"] = self_ms("commands.render")
        out["cli.main.self_ms"] = self_ms("cli.main")
        for key in ("expr.mul.terms_out", "expr.str.chars_out", "expr.peak_terms",
                    "expr.max_coeff_bits", "dsl.print.bytes_out", "commands.checks_out"):
            out[key] = self.counts[key]
        out["expr.mul.slope"] = self.mul_fit.slope()
        out["dsl.parse.slope"] = self.parse_fit.slope()
        parse_s = self.total_s.get("dsl.parse", 0.0)
        out["dsl.parse.bytes_per_s"] = self.counts["dsl.parse.bytes_in"] / parse_s if parse_s else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\tjob\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
