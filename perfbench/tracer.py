"""Outside-in tracer: wraps public functions of the onsager modules.

Each target function is replaced, in every ``onsager`` module namespace
that bound it (``from .uea import pbw_normal_form`` makes a second
binding in ``verify``, ``straighten``, ``cli`` ...), by a wrapper that
records a span ``(function, start_ns, end_ns, parent_span, request)``.
Self time is a span's duration minus the time of the spans it directly
caused, so recursive functions (``lambda_rec``, ``duv_rec``,
``expr.evaluate``) are counted once.  Spans stay in memory and are
written out by ``dump`` when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions traced in it (the benchmark's layers)
TARGETS = {
    "lie": ("bracket_basis",),
    "loop": ("verify_structure_constants", "embed", "matrix_bracket"),
    "uea": ("pbw_normal_form", "multiply", "divided_power"),
    "elements": ("lambda_rec", "duv_rec", "d1_rec"),
    "straighten": ("normalize_to_basis", "merge_lambda_pair", "straighten_plus_minus",
                   "move_x_past_lambda", "expand", "coordinates", "enumerate_basis"),
    "linalg": ("rref", "solve_columns"),
    "verify": ("run_suite", "audit_theorem", "audit_span"),
    "expr": ("parse", "evaluate"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _cells(matrix) -> int:
    return len(matrix) * len(matrix[0]) if matrix else 0


def registered_caches() -> dict[str, dict]:
    """Every dict in ``caches._REGISTRY``, named ``<module>.<attribute>``."""
    from onsager import caches

    named: dict[str, dict] = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname.startswith("onsager.") and mod is not None:
            for attr, value in vars(mod).items():
                if any(value is c for c in caches._REGISTRY):
                    named[f"{modname[len('onsager.'):]}.{attr}"] = value
    return named


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_ns = dict.fromkeys(FUNCTIONS, 0)
        self.rref_cells = 0
        self.request = 0
        self.spans: list = []
        self.cache_entries: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span index, ns covered by child spans]
        self._caches: dict[str, dict] = {}

    def install(self) -> None:
        """Wrap every target in every onsager module that bound it."""
        for mod in TARGETS:
            importlib.import_module(f"onsager.{mod}")
        for mod, fns in TARGETS.items():
            owner = sys.modules[f"onsager.{mod}"]
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for modname, module in list(sys.modules.items()):
                    if modname.startswith("onsager") and module is not None:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
        self._caches = registered_caches()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        counts_cells = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_cells:
                self.rref_cells += _cells(args[0])
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans[sid] = (name, t0, t1, parent, self.request)

        return wrapper

    def note_caches(self) -> None:
        """Keep the largest entry count seen for each registered cache."""
        for name, cache in self._caches.items():
            self.cache_entries[name] = max(self.cache_entries.get(name, 0), len(cache))

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "rref_cells": self.rref_cells,
            "cache_entries": self.cache_entries,
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["function", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))
