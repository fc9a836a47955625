"""Span tracing for the qheis benchmark, installed from outside the package.

`Tracer.install()` replaces selected functions and methods of the `qheis`
modules with wrappers that record one span per call (name, start, end,
parent span, request id); `Tracer.uninstall()` puts the originals back.
The hottest scalar operations in `qfield` get counting wrappers only,
since a span per scalar multiply would cost more than the multiply.

Spans are kept in memory in flat arrays and written out by `dump()` when
the run ends.  Span times are CPU seconds of the process
(`time.process_time`), the clock of every other time of the benchmark.
Self time (span time minus the time covered by its child spans) and call
counts are also aggregated as the spans close, so that per-layer metrics
need no second pass over the spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from array import array

CLOCK = time.process_time

# (span name, module, attribute path); a dotted path names a method.
SPANS = (
    ("rewrite.reduce", "rewrite", "Presentation._reduce"),
    ("rewrite.normal_form", "rewrite", "Presentation.normal_form"),
    ("rewrite.multiply", "rewrite", "Presentation.multiply"),
    ("rewrite.confluence", "rewrite", "Presentation.check_confluence"),
    ("presets.build", "presets", "make_Oq"),
    ("presets.build", "presets", "make_Uq"),
    ("presets.build", "presets", "make_Dq"),
    ("presets.build", "presets", "make_S"),
    ("presets.build", "presets", "make_D_split"),
    ("presets.build", "presets", "primed_in_D"),
    ("presets.build", "presets", "_unprimed_images"),
    ("presets.build", "presets", "make_quantum_torus"),
    ("hopf.coproduct", "hopf", "HopfStructure.coproduct"),
    ("hopf.pair", "hopf", "DualPairing.pair"),
    ("hopf.act", "hopf", "DualPairing.act"),
    ("hopf.axioms", "hopf", "check_hopf_axioms"),
    ("hopf.smash", "hopf", "DualPairing.check_smash"),
    ("smodules.act", "smodules", "QuotientModule.act"),
    ("smodules.act", "smodules", "WeightModule.act"),
    ("smodules.probe", "smodules", "cyclicity_probe"),
    ("smodules.growth", "smodules", "growth_exponent"),
    ("morphisms.check", "morphisms", "check_morphism"),
    ("morphisms.apply", "morphisms", "Morphism.apply"),
    ("morphisms.compose", "morphisms", "compose"),
    ("ideals.span", "ideals", "TruncatedIdeal._build"),
    ("ideals.member", "ideals", "TruncatedIdeal.member"),
    ("ideals.containment", "ideals", "containment_probe"),
    ("ideals.certificate", "ideals", "TruncatedIdeal.certificate"),
    ("ideals.certificate", "ideals", "TruncatedIdeal.replay_certificate"),
    ("ideals.diagram", "ideals", "spec_diagram"),
    ("expr.elaborate", "expr", "elaborate_element"),
    ("cli.main", "cli", "main"),
)

# (counter name, module, attribute path): counted, not timed.
COUNTS = (
    ("qfield.mul", "qfield", "QScalar.__mul__"),
    ("qfield.mul", "qfield", "QScalar.__rmul__"),
    ("qfield.add", "qfield", "QScalar.__add__"),
    ("qfield.add", "qfield", "QScalar.__radd__"),
    ("qfield.canon", "qfield", "_canon"),
)

def _qheis_modules():
    return [m for n, m in list(sys.modules.items()) if n == "qheis" or n.startswith("qheis.")]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # span columns
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_request = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # aggregates per span name: [calls, self seconds, total seconds]
        self.agg: dict = {}
        self.counts: dict = {}
        self.request = -1
        self._stack: list = []        # [span id, child seconds]
        self._patches: list = []      # (owner, attribute, original)
        self.pair_lookups = 0
        self.pair_misses = 0
        self.insert_attempts = 0
        self.insert_pivots = 0
        self.span_dims = 0
        self.probe_calls = 0
        self.probe_cyclic = 0
        self._presentations = weakref.WeakSet()
        self._t0 = CLOCK()

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
            self.agg[name] = [0, 0.0, 0.0]
        return nid

    def _span(self, name, fn, after=None):
        nid = self._name_id(name)
        agg = self.agg[name]
        stack = self._stack
        s_name, s_parent, s_request = self.s_name, self.s_parent, self.s_request
        s_start, s_end = self.s_start, self.s_end
        clock = CLOCK
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_request.append(tracer.request)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_start[sid] = t0
                s_end[sid] = t1
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur - frame[1]
                agg[2] += dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- per-layer counters hooked onto spans --------------------------------

    def _multiply_wrapper(self, fn):
        tracer = self

        def counted(pres, x, y):
            tracer.pair_lookups += len(x.terms) * len(y.terms)
            tracer._presentations.add(pres)
            return fn(pres, x, y)

        return counted

    def _reduce_wrapper(self, fn):
        tracer = self
        multiply_id = self._name_id("rewrite.multiply")
        s_name = self.s_name
        stack = self._stack

        def counted(*args, **kwargs):
            # a _reduce called directly from multiply is a pair-cache miss
            if stack and s_name[stack[-1][0]] == multiply_id:
                tracer.pair_misses += 1
            return fn(*args, **kwargs)

        return counted

    def _insert_wrapper(self, fn):
        tracer = self

        def counted(*args):
            lead = fn(*args)
            tracer.insert_attempts += 1
            if lead is not None:
                tracer.insert_pivots += 1
            return lead

        return counted

    def _after_build(self, args, _result):
        self.span_dims += args[0].dimension

    def _after_probe(self, _args, verdict):
        self.probe_calls += 1
        if verdict == "Cyclic":
            self.probe_cyclic += 1

    # -- install / uninstall -------------------------------------------------

    def _replace(self, module, path, make):
        """Wrap `module.path`, rebinding every qheis module attribute that
        refers to the same function (names imported with `from ... import`)."""
        owner = module
        *heads, attr = path.split(".")
        for h in heads:
            owner = getattr(owner, h)
        original = owner.__dict__[attr] if heads else getattr(owner, attr)
        wrapped = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if not heads:
            for mod in _qheis_modules():
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        return wrapped

    def install(self):
        import qheis.cli  # noqa: F401  (loads every module that gets wrapped)
        from qheis import suites

        mods = {m.__name__.split(".")[-1]: m for m in _qheis_modules()}
        after = {"ideals.span": self._after_build, "smodules.probe": self._after_probe}
        for name, modname, path in SPANS:
            self._replace(
                mods[modname], path, lambda fn, n=name: self._span(n, fn, after.get(n))
            )
        for suite, fn in list(suites.SUITES.items()):
            self._patches.append((suites.SUITES, suite, fn))
            suites.SUITES[suite] = self._span(f"suites.{suite}", fn)
        for name, modname, path in COUNTS:
            self._replace(mods[modname], path, lambda fn, n=name: self._counter(n, fn))
        # outside the span wrappers, so that a _reduce sees multiply's span on top
        self._replace(mods["rewrite"], "Presentation.multiply", self._multiply_wrapper)
        self._replace(mods["rewrite"], "Presentation._reduce", self._reduce_wrapper)
        self._replace(mods["ideals"], "TruncatedIdeal._insert", self._insert_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def live_pair_cache_entries(self):
        return sum(len(p._pair_cache) for p in list(self._presentations))

    def dump(self, path, extra):
        """Write every span, the aggregates and `extra` as one JSON file."""
        t0 = self._t0
        doc = {
            **extra,
            "names": self.names,
            "aggregates": {
                k: {"calls": v[0], "self_s": v[1], "total_s": v[2]} for k, v in self.agg.items()
            },
            "counts": {k: v[0] for k, v in self.counts.items()},
            "spans": {
                "name": list(self.s_name),
                "parent": list(self.s_parent),
                "request": list(self.s_request),
                "start_s": [round(t - t0, 7) for t in self.s_start],
                "end_s": [round(t - t0, 7) for t in self.s_end],
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
