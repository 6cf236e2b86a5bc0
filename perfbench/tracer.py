"""Per-layer tracing of mtfan from outside the package.

`install()` replaces chosen module-level functions of the `mtfan.*` modules
with wrappers, rebinding every alias (a `from .x import f` copy in another
module, the package re-exports) so that no caller reaches the original.
Span functions record (name, parent span, start, end) in memory; count
functions only bump a counter, because spans on kernels called millions of
times would swamp the run.  `Tracer.dump` writes everything out once, when
the run ends, and `summarize` turns a dump into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> functions recorded as spans (calls, inclusive and self time)
SPANS = {
    "stability": (
        "canonical_sequences",
        "t_set",
        "supp_factors",
        "m_tf_equivalent_by_filtration",
    ),
    "quiver": ("subquotient",),
    "sublattice": ("enumerate_submodules",),
    "polyhedra": (
        "cone_from_hrep",
        "cone_intersection",
        "convex_hull",
        "normal_fan",
        "validate_generalized_fan",
    ),
    "fan": ("build_mtf_fan",),
    "oracle": ("build_sample_set", "verify_fan", "verify_dim_formula", "verify_point"),
    "serialize": ("module_from_doc", "fan_doc", "polytope_doc"),
    "cli": ("run",),
}

# module -> functions recorded by call count only
COUNTS = {
    "stability": ("evaluate", "is_semistable"),
    "quiver": ("submodule_contains", "submodule_sum", "generated_submodule"),
    "fplinalg": ("rref_fp",),
    "exact": ("rref", "hnf"),
    "fan": ("wall_cone",),
}


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent span index or -1, start ns, end ns]
        self.counts = {}
        self._stack = [-1]
        self.originals = {}  # wrapper -> original function

    def _span(self, name, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function and rebind all of its aliases."""
        import mtfan  # noqa: F401  (loads every submodule)

        replace = {}
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for mod_name, funcs in table.items():
                mod = importlib.import_module(f"mtfan.{mod_name}")
                for fname in funcs:
                    fn = getattr(mod, fname)
                    wrapper = make(f"{mod_name}.{fname}", fn)
                    replace[id(fn)] = wrapper
                    self.originals[wrapper] = fn
        for mod in mtfan_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))  # originals stay alive, ids stay unique
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return self

    def dump(self, path):
        doc = {"names": self.names, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def mtfan_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mtfan" or name.startswith("mtfan."))
    ]


def summarize(doc):
    """Per-layer metrics from a dump.

    `<name>.calls` counts calls; `<name>.s` is inclusive time, counted once
    for recursive calls; `<name>.self_s` subtracts the time of direct child
    spans; `<module>.self_s` sums self time over the module's spans.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for key, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name.split('.')[0]}.self_s"] = 0.0
    for i, (key, parent, start, end) in enumerate(spans):
        name = names[key]
        dur = end - start
        out[f"{name}.calls"] += 1
        self_s = (dur - child_ns[i]) / 1e9
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        anc = parent
        while anc >= 0 and spans[anc][0] != key:
            anc = spans[anc][1]
        if anc < 0:
            out[f"{name}.s"] += dur / 1e9
    for name, n in doc["counts"].items():
        out[f"{name}.calls"] = n
    return out
