"""Per-layer tracer that wraps bohrlab's public functions from outside.

Layers are the package's modules.  Every public module-level function a
layer defines is wrapped in each module namespace that holds it, because
``from .series import mul`` binds a second name that patching only
``bohrlab.series`` would miss.  ``TruncatedSeries.__post_init__`` is wrapped
as ``series.TruncatedSeries.validate``.

Each wrapper records a span: its calls, inclusive time and self time (the
span minus the spans of wrapped calls made inside it).  Spans live in
memory; ``metrics()`` reduces them to per-layer and per-function numbers.
``series.coeff_mults`` is computed from argument sizes, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

LAYERS = ("cli", "verify", "witnesses", "functionals", "series", "radii")
PACKAGE = "bohrlab"

# Functions whose own calls and self time are reported next to the layer totals.
REPORTED = (
    "series.majorant_eval",
    "series.evaluate",
    "series.compose",
    "series.mul",
    "series.blaschke_series",
    "series.mobius_series",
    "series.TruncatedSeries.validate",
    "witnesses.draw_blaschke_spec",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Install with ``with Tracer(...):``; read ``metrics()`` afterwards.

    ``double_order_size`` is the coefficient count of a series built at
    twice the job's requested order (2N + 1); constructions of that size
    are counted as ``verify.double_order_builds``.  ``clock`` and
    ``modules`` exist so tests can drive the arithmetic with toy modules.
    """

    def __init__(self, double_order_size=None, clock=time.perf_counter, modules=None):
        self.double_order_size = double_order_size
        self.clock = clock
        self.modules = modules
        self.stats = {}
        self.coeff_mults = 0
        self.series_args = 0
        self.tagged_args = 0
        self.double_order_builds = 0
        self._stack = []
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, before=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += span
                stats[2] += span - child
                if stack:
                    stack[-1] += span

        return traced

    # -- counters taken at layer boundaries --------------------------------

    def _count_mul(self, args, kwargs):
        self.coeff_mults += (_arg(args, kwargs, 0, "f").order + 1) ** 2

    def _count_compose(self, args, kwargs):
        g = _arg(args, kwargs, 0, "g")
        top = g.exact_degree if g.exact_degree is not None else g.order
        self.coeff_mults += top * (g.order + 1) ** 2

    def _count_blaschke(self, args, kwargs):
        zeros = len(_arg(args, kwargs, 0, "spec").zeros)
        self.coeff_mults += zeros * (_arg(args, kwargs, 1, "order") + 1) ** 2

    def _count_majorant(self, args, kwargs):
        self.coeff_mults += _arg(args, kwargs, 0, "f").order + 1

    def _count_evaluate(self, args, kwargs):
        points = _arg(args, kwargs, 1, "z")
        self.coeff_mults += (_arg(args, kwargs, 0, "f").order + 1) * np.size(points)

    def _count_tag(self, args, kwargs):
        if not args:
            return
        subject = getattr(args[0], "h", args[0])
        if hasattr(subject, "coeffs"):
            self.series_args += 1
            self.tagged_args += getattr(subject, "tag", None) is not None

    def _count_validate(self, args, kwargs):
        if self.double_order_size is not None and len(args[0].coeffs) == self.double_order_size:
            self.double_order_builds += 1

    def _hook(self, name):
        return {
            "series.mul": self._count_mul,
            "series.compose": self._count_compose,
            "series.blaschke_series": self._count_blaschke,
            "series.majorant_eval": self._count_majorant,
            "series.evaluate": self._count_evaluate,
        }.get(name, self._count_tag if name.startswith("functionals.") else None)

    # -- install / uninstall -----------------------------------------------

    def _layer_modules(self):
        if self.modules is not None:
            return self.modules
        return {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}

    def __enter__(self):
        layers = self._layer_modules()
        namespaces = list(layers.values())
        if self.modules is None:
            namespaces.append(sys.modules[PACKAGE])
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, self._hook(name))
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, ns_attr, fn))
                            setattr(ns, ns_attr, wrapped)
        series = layers.get("series")
        cls = getattr(series, "TruncatedSeries", None)
        if cls is not None:
            original = cls.__post_init__
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(
                "series.TruncatedSeries.validate", original, self._count_validate
            )
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------

    def functions(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        return {name: tuple(values) for name, values in self.stats.items()}

    def metrics(self) -> dict:
        layer_calls = {layer: 0 for layer in self._layer_modules()}
        layer_self = {layer: 0.0 for layer in layer_calls}
        for name, (calls, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            layer_calls[layer] += calls
            layer_self[layer] += self_s
        traced = sum(layer_self.values())
        out = {}
        for layer in layer_calls:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.share"] = layer_self[layer] / traced if traced else 0.0
        for name in REPORTED:
            calls, _, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["series.coeff_mults"] = self.coeff_mults
        out["functionals.tagged_share"] = self.tagged_args / self.series_args if self.series_args else 0.0
        out["verify.double_order_builds"] = self.double_order_builds
        return out
