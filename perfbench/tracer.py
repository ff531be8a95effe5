"""Span timers around artlab's public functions, installed from outside the package.

A traced call records its inclusive time (``s``), its self time (``self_s``:
inclusive time minus the time of traced calls made inside it) and a call
count; hooks add work counters such as points or bytes.  Nothing under
``src/`` is edited: ``Tracer.installed()`` rebinds each target function in
every ``artlab`` module that holds a reference to it (``lemma2`` imports
``power_subgroup``, ``galmod`` imports ``smith_normal_form``, ``modcurve``
imports ``almost_rational_set``, and so on) and restores the originals on exit.

Only functions called at most about 10^4 times per pass are wrapped.  The
per-point helpers ``apply_automorphism`` and ``is_almost_rational`` run
millions of times and are deliberately left alone.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

LARGE_PAIRS = 20_000  # points x |closure| at which a module counts as large


class Frame:
    __slots__ = ("child_s", "elapsed_s", "self_s")

    def __init__(self):
        self.child_s = 0.0
        self.elapsed_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.active = [], defaultdict(int)
        outermost = local.active[name] == 0
        frame = Frame()
        local.active[name] += 1
        local.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield frame
        finally:
            frame.elapsed_s = time.perf_counter() - t0
            frame.self_s = frame.elapsed_s - frame.child_s
            local.stack.pop()
            local.active[name] -= 1
            rec = self.stats[name]
            rec["calls"] += 1
            rec["self_s"] += frame.self_s
            if outermost:  # a recursive call's time is already inside the outer one
                rec["s"] += frame.elapsed_s
            if local.stack:
                local.stack[-1].child_s += frame.elapsed_s

    def wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            with self.span(name) as frame:
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.stats[name], args, kwargs, result, frame)
            return result
        return traced

    def merge(self, stats: dict) -> None:
        for name, rec in stats.items():
            for key, value in rec.items():
                self.stats[name][key] += value

    @contextlib.contextmanager
    def installed(self, targets=None):
        """Rebind every target in all loaded artlab modules for the duration."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "artlab" or n.startswith("artlab."))]
        patched = []
        for module_name, attr, span_name, before, after in (targets or TARGETS):
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # reported by the expected-span check, not here
            wrapper = self.wrap(original, span_name, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)


def _time_closure(tracer, args, kwargs):
    """Time the module's first closure access before the predicate runs."""
    module = args[0] if args else kwargs["module"]
    if "closure" not in vars(module):
        with tracer.span("galmod.closure"):
            closure = module.closure
        tracer.stats["galmod.closure"]["elements"] += len(closure)


def _count_ar(rec, args, kwargs, report, frame):
    module = args[0] if args else kwargs["module"]
    pairs = module.point_count * len(module.closure)
    rec["points"] += module.point_count
    rec["pairs"] += pairs
    rec["ar_points"] += len(report.ar_points)
    rec["large_s" if pairs >= LARGE_PAIRS else "small_s"] += frame.self_s


def _count_scan(rec, args, kwargs, report, frame):
    rec["moduli"] += report.scanned_max
    rec["failures"] += len(report.failures)


def _count_found(rec, args, kwargs, witness, frame):
    rec["found"] += witness is not None


# (module that defines it, function, span name, before hook, after hook)
TARGETS = (
    ("artlab.galmod", "almost_rational_set", "galmod.almost_rational_set",
     _time_closure, _count_ar),
    ("artlab.galmod", "cyclotomic_module", "galmod.constructors", None, None),
    ("artlab.galmod", "constant_module", "galmod.constructors", None, None),
    ("artlab.galmod", "homothety_module", "galmod.constructors", None, None),
    ("artlab.galmod", "direct_sum", "galmod.constructors", None, None),
    ("artlab.galmod", "subgroup_span", "galmod.subgroup_span", None, None),
    ("artlab.galmod", "quotient_presentation", "galmod.quotient_presentation", None, None),
    ("artlab.snf", "smith_normal_form", "snf.smith_normal_form", None, None),
    ("artlab.modcurve", "eisenstein_model", "modcurve.eisenstein_model", None, None),
    ("artlab.modcurve", "theorem3_check", "modcurve.theorem3_check", None, None),
    ("artlab.lemma2", "failure_scan", "lemma2.failure_scan", None, _count_scan),
    ("artlab.lemma2", "exists_pair", "lemma2.exists_pair", None, _count_found),
    ("artlab.modarith", "power_subgroup", "modarith.power_subgroup", None, None),
    ("artlab.modarith", "unit_group_generators", "modarith.unit_group_generators",
     None, None),
)
