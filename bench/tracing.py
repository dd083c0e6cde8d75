"""Span recorder for the traced benchmark run.

`traced` replaces each layer's public functions in every loaded ``ordhom``
module namespace that binds them, so calls between modules (and the names
``ordhom.cli`` imports) are traced as well, and puts the originals back on
exit. Every call, and every ``next()`` of a generator, records a span
(name, start, end, parent) in memory. When the root span of an op closes,
the op's spans are folded into per-layer totals, so memory stays bounded
however many spans a run makes.

A layer's self time is its span time minus the time its child spans cover.
Spans are properly nested: a generator's span closes before control goes
back to its consumer, so the consumer's own work between two ``next()``
calls is never counted inside the generator.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

ROOT = "bench"

# layer -> (module, public functions). Private helpers and the small pure
# functions (lemma_phi, negate, euler_char) are not wrapped; their time
# stays in the self time of the layer function that calls them.
LAYERS = {
    "posets.build": ("ordhom.posets",
                     ("build_poset", "chain", "antichain", "random_poset")),
    "posets.all_posets": ("ordhom.posets", ("all_posets",)),
    "posets.numbering": ("ordhom.posets", ("admissible_numbering",)),
    "homs.count": ("ordhom.homs", ("count_homs",)),
    "homs.iter": ("ordhom.homs", ("iter_hom_values", "enumerate_homs")),
    "orderpoly": ("ordhom.orderpoly",
                  ("order_polynomial", "evaluate", "reflect",
                   "check_stanley_reciprocity", "euler_via_orderpoly")),
    "euler.hom": ("ordhom.euler",
                  ("euler_hom", "euler_hom_real", "check_euler_reciprocity")),
    "euler.components": ("ordhom.euler",
                         ("count_components", "compatible_preorders")),
    "homeo.forward": ("ordhom.homeo", ("forward", "forward_trace")),
    "homeo.backward": ("ordhom.homeo", ("backward", "backward_trace")),
    "homeo.usc_spec": ("ordhom.homeo", ("usc_spec", "usc_value")),
    "homeo.membership": ("ordhom.homeo", ("membership",)),
    "fileio.load": ("ordhom.fileio", ("load_poset", "load_point")),
    "fileio.point_to_dict": ("ordhom.fileio", ("point_to_dict",)),
    "fileio.digest": ("ordhom.fileio", ("file_digest",)),
    "cli.main": ("ordhom.cli", ("main",)),
}


def self_times(spans):
    """Self time per span name.

    ``spans`` is a list of (name, start, end, parent) with parent the index
    of the enclosing span or -1. A span's self time is its duration minus
    the union of its children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start) - covered
    return out


class Tracer:
    """In-memory spans of the op in progress plus per-layer totals. Spans
    are timed in the process's CPU time, as the untraced run times ops."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.self_s = Counter()       # span name -> seconds of self time
        self.calls = Counter()        # function -> calls
        self.outer_calls = Counter()  # layer -> calls not nested in that layer
        self.yields = Counter()       # "layer<parent layer" -> values yielded
        self.results = Counter()      # function -> sum of its int results
        self.roots = 0                # root spans closed (ops)
        self.root_s = 0.0             # their total duration

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span[2] = self.clock()
        self.stack.pop()
        if not self.stack:
            self.roots += 1
            self.root_s += span[2] - span[1]
            self.self_s.update(self_times(self.spans))
            self.spans.clear()

    def count_call(self, layer, function):
        self.calls[function] += 1
        if self.parent_name() != layer:
            self.outer_calls[layer] += 1

    def totals(self):
        """JSON-ready aggregates, mergeable with `merge`."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "outer_calls": dict(self.outer_calls),
                "yields": dict(self.yields), "results": dict(self.results),
                "roots": self.roots, "root_s": self.root_s}

    def merge(self, totals):
        for key in ("self_s", "calls", "outer_calls", "yields", "results"):
            getattr(self, key).update(totals[key])
        self.roots += totals["roots"]
        self.root_s += totals["root_s"]


class _TracedIterator:
    """Times each ``next()`` of a generator as a span of its layer."""

    def __init__(self, tracer, layer, iterator):
        self.tracer = tracer
        self.layer = layer
        self.iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        parent = tracer.parent_name()
        index = tracer.open(self.layer)
        try:
            value = next(self.iterator)
        finally:
            tracer.close(index)
        tracer.yields[f"{self.layer}<{parent}"] += 1
        return value


def _wrap(tracer, layer, function, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.count_call(layer, function)
            return _TracedIterator(tracer, layer, fn(*args, **kwargs))
        return traced_generator

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        tracer.count_call(layer, function)
        index = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if type(result) is int:
            tracer.results[function] += result
        return result
    return traced_call


@contextlib.contextmanager
def traced(tracer, layers=LAYERS):
    """Wrap the layers' functions wherever ``ordhom`` modules bind them.

    Only modules already imported are touched, so tracing never imports a
    module the untraced run would not load. Every replaced binding is
    restored on exit, also when the body raises.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ordhom" or name.startswith("ordhom."))]
    saved = []
    try:
        for layer, (module_name, names) in layers.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name in names:
                fn = getattr(module, name)
                wrapper = _wrap(tracer, layer, f"{module_name}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            saved.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        yield tracer
    finally:
        for m, attr, fn in reversed(saved):
            setattr(m, attr, fn)
