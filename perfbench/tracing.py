"""Span tracing of the chirpfed layers, applied from outside the package.

The tracer replaces each public function of a layer module (and each public
method of the classes that module defines) with a wrapper that records one
span per call.  The replacement is made at the module attribute and at every
other chirpfed module attribute bound to the same function, so calls made
through `from .channel import apply_channel` are seen too.  Spans stay in
memory until `write_spans` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("chirp", "channel", "data", "receiver", "federation", "cli")

# Names bound in a layer module that come from outside the package but whose
# cost belongs to that layer.
FOREIGN = {"channel": ("hilbert",)}

# Span names fixed regardless of the module that defines the function.
ALIASES = {"ber_monte_carlo": "cli.ber_monte_carlo"}


def _rows(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["batch"])


def _samples(args, kwargs, result):
    return int(result.size if hasattr(result, "size") else len(result))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Per-span work counts, recorded next to the span they belong to.
METERS = {
    "receiver.grad": _rows,
    "channel.apply_channel": _samples,
    "data.synthesize_symbol": _samples,
    "data.save_dataset": _file_bytes,
}


class Tracer:
    """Installs span wrappers on the chirpfed layer modules.

    A span is (name, start_ns, end_ns, parent span index or -1, op id,
    exception class name or None, work count or None).
    """

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = -1
        self.installed = set()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        meter = METERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            exc = None
            work = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if meter is not None:
                    work = meter(args, kwargs, result)
                return result
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, exc, work)

        return traced

    def install(self):
        """Wrap every layer's public callables; undone by `uninstall`."""
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "chirpfed" or key.startswith("chirpfed.")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in package:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                own = getattr(obj, "__module__", None) == mod.__name__
                if inspect.isfunction(obj):
                    if own and attr in ALIASES:
                        name = ALIASES[attr]
                    elif layer in LAYERS and (own or attr in FOREIGN.get(layer, ())):
                        name = f"{layer}.{attr}"
                    else:
                        continue
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
                    self.installed.add(name)
                elif inspect.isclass(obj) and own and layer in LAYERS:
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            name = f"{layer}.{mattr}"
                            self._patch(obj, mattr, meth, self._wrap(name, meth))
                            self.installed.add(name)
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, exc, work) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if exc is not None:
                    rec["exc"] = exc
                if work is not None:
                    rec["work"] = work
                f.write(json.dumps(rec) + "\n")


def summarize(spans):
    """Per span name: calls, inclusive ns, self ns, summed work and the
    exception counts.  Self time is a span's duration minus the durations of
    its direct child spans (calls never overlap in one thread)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op, exc, work) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0,
                                  "work": 0, "exc": {}})
        s["calls"] += 1
        s["ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
        if work is not None:
            s["work"] += work
        if exc is not None:
            s["exc"][exc] = s["exc"].get(exc, 0) + 1
    return out
