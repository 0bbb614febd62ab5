"""Span tracing of amm's public functions, installed from outside the package.

The tracer wraps a fixed list of functions and rebinds every module-level
name in ``amm.*`` that refers to the original, so names imported with
``from .linalg import solve_stack`` are traced in each importing module too.
It is installed only in traced runs, after set-up, so the untraced timed
phase runs the unmodified package.

Each span is a tuple (name, start, end, parent, op): start and end come from
``time.perf_counter``, parent is the index of the enclosing span (-1 at top
level) and op the id of the benchmark op that was running (-1 outside ops).
Spans stay in memory until ``write_spans`` is called at exit.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

_COMPLEX_BYTES = 16


def _solve_stack_counts(args, kwargs, result):
    stack = args[0] if args else kwargs["stack"]
    k, n = stack.shape[0], stack.shape[-1]
    # computed, not measured: K n x n complex matrices read and K written
    return {"matrices": k, "bytes": 2 * k * n * n * _COMPLEX_BYTES}


def _contour_counts(args, kwargs, result):
    return {"nodes": result.nodes}


def _rule_counts(args, kwargs, result):
    return {"nodes": result.order}


# (module, function, extra counts from (args, kwargs, result)); every entry
# gets <module>.<function>.calls, .s and .self_s.
SPANNED = (
    ("linalg", "solve_stack", _solve_stack_counts),
    ("linalg", "loewner_leq", None),
    ("linalg", "inverse", None),
    ("linalg", "uinorm", None),
    ("linalg", "principal_sqrt", None),
    ("sector", "random_sectorial", None),
    ("sector", "is_accretive", None),
    ("sector", "certify", None),
    ("funcalc", "apply_function", None),
    ("funcalc", "dunford_apply", None),
    ("funcalc", "choose_contour", _contour_counts),
    ("funcalc", "gauss_jacobi_rule", _rule_counts),
    ("means", "sigma_mean", None),
    ("means", "harmonic_mean", None),
    ("means", "geometric_mean", None),
    ("means", "geometric_neg", None),
    ("means", "congruence_sigma", None),
    ("means", "drury_half", None),
    ("maps", "apply_map", None),
    ("verify", "run_check", None),
    ("cli", "main", None),
    ("cli", "read_matrix", None),
    ("cli", "write_matrix", None),
)

# Called tens of thousands of times per suite run; counted without a span.
COUNTED = (("linalg", "as_matrix"),)


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.check_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _spanned(self, name, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
                counts[name + ".calls"] += 1
                if name == "verify.run_check":
                    tracer.check_s[args[0] if args else kwargs["check_id"]] += t1 - t0
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap the traced functions and rebind them in every amm module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "amm" or n.startswith("amm."))]
        replacements = {}
        for modname, fname, extra in SPANNED:
            original = getattr(sys.modules["amm." + modname], fname)
            replacements[id(original)] = self._spanned(f"{modname}.{fname}", original, extra)
        for modname, fname in COUNTED:
            original = getattr(sys.modules["amm." + modname], fname)
            replacements[id(original)] = self._counted(f"{modname}.{fname}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict[str, float]:
        """Per-function calls, inclusive seconds, self seconds and extra counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name + ".s"] += t1 - t0
            out[name + ".self_s"] += t1 - t0 - child[idx]
        out.update(self.counts)
        for check_id, seconds in self.check_s.items():
            out[f"verify.check.{check_id}.s"] = seconds
        return dict(out)

    def write_spans(self, path):
        """Write the spans as gzip-compressed JSON lines, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}))
                fh.write("\n")
