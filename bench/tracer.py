"""Per-layer tracing by wrapping salemtori's functions from outside.

A traced function is replaced in every salemtori module namespace that binds
it, since torus, classify, salem and cli import by name.  Each call opens a
span whose parent is the innermost span still open.  When a span closes, its
duration is added to its parent's child time, so a layer's self time is its
span minus the spans of its children.  Spans are folded into per-layer totals
as they close; a round of the certify workload opens close to a million kernel
spans, too many to keep one by one.

Nothing here runs unless a traced run asks for it: the untraced runs wrap
nothing.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, layer name, count distinct first arguments)
FUNCTIONS = (
    ("salemtori.poly", "factor_bounded", "poly.factor_bounded", False),
    ("salemtori.poly", "_trial", "poly.divides", False),
    ("salemtori.salem", "is_salem", "salem.is_salem", False),
    ("salemtori.salem", "lambda_interval", "salem.lambda_interval", False),
    ("salemtori.salem", "lambda_approx", "salem.lambda_approx", False),
    ("salemtori.salem", "isolate_all_roots", "salem.isolate_all_roots", True),
    ("salemtori.salem", "refine_root_box", "salem.refine_root_box", True),
    ("salemtori.intervals", "log_interval", "intervals.log_interval", False),
    ("salemtori.torus", "entropy", "torus.entropy", False),
    ("salemtori.torus", "quad_order_model", "torus.quad_order_model", False),
    ("salemtori.torus", "is_projective", "torus.is_projective", False),
    ("salemtori.torus", "ns_charpoly", "torus.ns_charpoly", False),
    ("salemtori.classify", "realizable", "classify.realizable", False),
    ("salemtori.classify", "pairing_classes", "classify.pairing_classes", False),
    ("salemtori.wedge", "invert_wedge", "wedge.invert_wedge", False),
)
# (module, class, method, layer name)
METHODS = (
    ("salemtori.intervals", "Box", "__mul__", "intervals.box_mul"),
    ("salemtori.poly", "IntPoly", "divides", "poly.divides"),
)


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.depth = {}
        self.args = {}
        self._undo = []

    def wrap(self, name, fn, distinct=False):
        stack, calls, total, self_time, depth = self.stack, self.calls, self.total, self.self_time, self.depth
        for table in (calls, total, self_time, depth):
            table.setdefault(name, 0)
        seen = self.args.setdefault(name, set()) if distinct else None

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            frame = [0.0]  # child time of this span
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_time[name] += dur - frame[0]
                if not depth[name]:
                    total[name] += dur

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "salemtori" or modname.startswith("salemtori.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        import mpmath

        kern = sys.modules["salemtori._kernels"]
        for attr, value in list(vars(kern).items()):
            if callable(value) and getattr(value, "__module__", "").startswith("salemtori._kernels."):
                setattr(kern, attr, self.wrap("kernels", value))
                self._undo.append((kern, attr, value))
        for modname, attr, name, distinct in FUNCTIONS:
            original = getattr(sys.modules[modname], attr, None)
            if original is not None:
                self._rebind(original, self.wrap(name, original, distinct))
        for modname, cls, meth, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            original = owner.__dict__[meth]
            setattr(owner, meth, self.wrap(name, original))
            self._undo.append((owner, meth, original))
        # root seeding in salem calls mpmath.polyroots through the module
        original = mpmath.polyroots
        mpmath.polyroots = self.wrap("salem.polyroots", original)
        self._undo.append((mpmath, "polyroots", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def report(self):
        """Flat {metric: value} with .calls, .s, .self_s and .distinct per layer."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name, seen in self.args.items():
            out[f"{name}.distinct"] = len(seen)
        return out
