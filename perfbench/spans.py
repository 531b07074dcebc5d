"""Per-layer spans by wrapping gaussgap's public functions at run time.

Nothing in ``src/`` changes.  Each public function (a function named in its
module's ``__all__``) is replaced by a timing wrapper at its defining module
and at every gaussgap module that imported it by name, so calls between
modules are caught too.  ``scipy.linalg.expm`` is wrapped where ``dynamics``
and ``fock`` bound it, under those two names.

Spans are kept in memory as (name, start, end, parent) and written out when
the run ends.  A span's self time is its duration minus that of its child
spans; calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "model", "realops", "stationary", "gap", "dynamics",
          "classical", "fock")
EXPM_AT = ("dynamics", "fock")


class Tracer:
    def __init__(self):
        self.spans = []
        self.superop_dims = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, stack[-1] if stack else -1)

        return traced

    def install(self):
        package = importlib.import_module("gaussgap")
        modules = {layer: importlib.import_module(f"gaussgap.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._record_superop_dims(modules["fock"], wrapped)
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for layer in EXPM_AT:
            mod = modules[layer]
            self._patch(mod, "expm", self._wrap(f"{layer}.expm", mod.expm))

    def _record_superop_dims(self, fock, wrapped):
        """Keep the truncated dimension of every superoperator built, for the
        computed superoperator bytes."""
        inner = wrapped[fock.build_superoperator]
        dims = self.superop_dims

        @functools.wraps(inner)
        def build(model, space):
            dims.append(space.dim)
            return inner(model, space)

        wrapped[fock.build_superoperator] = build

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent]) + "\n")


def summarize(spans, op_ranges):
    """Per-function calls and self time, per-layer self time, and the
    propagator/gramian cache hit ratio per command kind.

    op_ranges maps a command ("decay", "evolve", ..., "oracle-gap") to the
    span id ranges of its runs.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child_s = defaultdict(float)
    has_expm = set()
    # a child starts after its parent, so it has the larger id: walking the
    # ids downwards meets every child before its parent
    for sid in reversed(range(len(spans))):
        name, t0, t1, parent = spans[sid]
        dur = t1 - t0
        calls[name] += 1
        self_s[name] += dur - child_s[sid]
        if parent >= 0:
            child_s[parent] += dur
            if name == "dynamics.expm":
                has_expm.add(parent)
    layer_s = defaultdict(float)
    for name, value in self_s.items():
        layer_s[name.split(".", 1)[0]] += value
    top_s = sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
    cache = {}
    for command, ranges in op_ranges.items():
        lookups = hits = 0
        for lo, hi in ranges:
            for sid in range(lo, hi):
                if spans[sid][0] in ("dynamics.propagator", "dynamics.gramian_cov"):
                    lookups += 1
                    hits += sid not in has_expm
        cache[command] = (lookups, hits)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_s": dict(layer_s),
        "top_s": top_s,
        "cache": cache,
    }


def calls_in(spans, ranges, name):
    return sum(spans[sid][0] == name for lo, hi in ranges for sid in range(lo, hi))


def parse_importtime(stderr):
    """Self time in seconds of each top-level package, from the lines
    ``import time: self [us] | cumulative | name`` of ``python -X importtime``."""
    totals = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        totals[name.strip().split(".")[0]] += int(self_us) * 1e-6
    return dict(totals)
