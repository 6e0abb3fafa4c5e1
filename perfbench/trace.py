"""Span recorder for the traced run.

``install`` rebinds each listed public function's name, inside every
``circlequad`` module that holds it, to a wrapper that records a span
(name, start, end, parent index). Spans stay in memory until
``summarise`` turns them into per-layer call counts and self times; a
layer's self time is its span's duration minus that of its child spans.
The library source is not touched, and ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# module -> public functions traced in it ("Class.method" for methods)
LAYERS = {
    "measures": ["moments"],
    "opuc": ["schur_from_moments", "blaschke_solve", "schur_cohn"],
    "qpopuc": ["zeros_on_circle", "modified_schur", "assemble"],
    "quadrature": ["scan_tau", "build_rule", "weights", "verify_exactness"],
    "prescribe": ["prescribe_2l", "prescribe_2lp1", "tau_for_omega"],
    "_kernels": ["szego_eval"],
    "poly": ["ComplexPoly.roots"],
}


def span_name(module: str, fn: str) -> str:
    return f"{module.lstrip('_')}.{fn}"  # metric names may not start with "_"


SPAN_NAMES = [span_name(mod, fn) for mod, fns in LAYERS.items() for fn in fns]
ROOT = "bench.op"  # one span around each operation; its self time is glue


def _szego_steps(counts, args, out):
    counts["kernels.szego_eval.point_steps"] += np.size(args[0]) * np.size(args[1])


def _admissible(counts, args, out):
    counts["prescribe.admissible"] += bool(out.admissible)


PROBES = {
    "kernels.szego_eval": _szego_steps,
    "prescribe.prescribe_2l": _admissible,
    "prescribe.prescribe_2lp1": _admissible,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._bindings = []  # (owner, attribute, original)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if probe is not None:
                probe(counts, args, out)
            return out

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "circlequad" or key.startswith("circlequad.")]
        for mod_name, names in LAYERS.items():
            home = importlib.import_module(f"circlequad.{mod_name}")
            for name in names:
                label = span_name(mod_name, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(home, cls_name)
                    self._rebind(owner, meth, self.wrap(label, owner.__dict__[meth]))
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summarise(self) -> dict:
        """Per span name: calls, total self time, and total wall time."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, self_s, wall = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - covered), wall + end - start)
        return out
