"""Spans and counters around the public functions of every pbp module.

``Tracer.install`` wraps, from outside the package, each public function and
public method defined in a pbp module, and rebinds every name in any pbp
module that refers to the original, so ``from .x import f`` call sites are
traced too.  Spans (id, parent id, input id, name, start, end) and counters
are kept in memory; ``dump`` writes them out when the run ends.  A span's
self time is its duration minus the time covered by its child spans.

Hot leaf helpers are wrapped as counters only, to keep the overhead of the
traced run bounded; their time is part of their caller's self time.

Nothing here imports pbp at module level: run.py uses ``metrics`` on
aggregates read back from traced processes.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from enum import Enum
from time import perf_counter

MODULES = ("verdict", "words", "presentations", "algebraic", "coxeter", "linalg",
           "lie", "bs", "abels", "classifier", "cli")
# Dunder methods worth tracing; other dunders (eq, hash, repr, ...) are not.
DUNDERS = ("__init__", "__post_init__", "__mul__", "__truediv__")
# Called millions of times per pass: count, do not time.
COUNT_ONLY = {
    "words.Word.__init__", "words.Word.__mul__", "words.reduce_letters", "words.free_reduce",
    "words.Word.exponent_sum", "words.Word.max_generator",
    "presentations.perm_mul", "presentations.perm_inv", "presentations.CosetTable.act",
    "presentations.CosetTable.act_word", "presentations.word_image", "presentations.is_permutation",
    "algebraic.CycloNumber.__init__", "algebraic.CycloNumber.__mul__",
    "algebraic.CycloNumber.__truediv__", "algebraic.CycloNumber.is_zero",
    "algebraic.CycloNumber.is_rational", "algebraic.interval_eval", "algebraic.poly_eval",
    "algebraic.poly_mul", "algebraic.poly_add", "algebraic.poly_trim", "algebraic.poly_scale",
    "algebraic.poly_divmod_monic",
    "linalg.vec", "linalg.zero_vec", "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
    "linalg.is_zero_vec", "linalg.mat_vec", "linalg.reduce_vector", "linalg.SpanBuilder.add",
    "linalg.SpanBuilder.contains", "linalg.SpanBuilder.__init__",
    "lie.LieAlgebra.bracket", "lie.LieAlgebra.bracket_basis", "lie.LieAlgebra.ad_basis",
    "lie.LieAlgebra.ad", "lie.Subspace.contains", "lie.Subspace.__init__",
    "abels.ZInvP.__init__", "abels.ZInvP.__post_init__", "abels.ZInvP.__mul__",
    "abels.A3Matrix.__init__", "abels.A3Matrix.__post_init__", "abels.a3_mul", "abels.a3_inv",
    "abels.a3_op", "abels.GammaElement.__init__", "abels.GammaElement.__post_init__",
    "bs.s_word", "bs.t_word",
}
SPAN_FLOOR_S = 20e-6  # shorter spans are aggregated but not stored


def _cells(tracer, args, result):
    rows = args[0]
    tracer.counters["presentations.snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)


HOOKS = {
    "presentations.coset_enumerate":
        lambda t, a, r: t.counters.update({"presentations.cosets": r.d}),
    "presentations.reidemeister_schreier_data":
        lambda t, a, r: t.counters.update({"presentations.rs_relators": r.presentation.relator_count}),
    "presentations.smith_normal_form": _cells,
    "lie.ideal_lattice": lambda t, a, r: t.counters.update({"lie.lattice_ideals": len(r.ideals)}),
    "linalg.SpanBuilder.add": lambda t, a, r: t.counters.update({"linalg.span_add_useful": int(bool(r))}),
    "algebraic.RealCyclotomicField.__init__":
        lambda t, a, r: t.maxima.__setitem__(
            "algebraic.field_degree", max(t.maxima.get("algebraic.field_degree", 0), a[0].degree)),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.input_id = None
        self.next_id = 0

    # -- wrappers -----------------------------------------------------------

    def _close(self, frame, end):
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        if not self.active[name]:  # count a recursive call's time once
            self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if dur >= SPAN_FLOOR_S:
            self.spans.append((span_id, parent[0] if parent else None, self.input_id, name, start, end))

    def _span(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            frame = [tracer.next_id, name, perf_counter(), 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            tracer.active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.active[name] -= 1
                tracer._close(frame, end)
            if hook:
                hook(tracer, args, result)
            return result

        return wrapped

    def _count(self, name, fn):
        hook = HOOKS.get(name)
        calls = self.calls
        tracer = self

        def wrapped(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if hook:
                hook(tracer, args, result)
            return result

        return wrapped

    def _wrap(self, name, fn):
        return self._count(name, fn) if name in COUNT_ONLY else self._span(name, fn)

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every pbp module."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        replaced = {}
        for short, mod in zip(MODULES, modules[1:]):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._install_class(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _install_class(self, short, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                wrapped = self._wrap(name, obj)
            elif isinstance(obj, staticmethod):
                wrapped = staticmethod(self._wrap(name, obj.__func__))
            else:
                continue  # properties, class attributes
            setattr(cls, attr, wrapped)

    # -- inputs and output --------------------------------------------------

    def run_input(self, input_id, fn):
        """Call ``fn`` inside an "input" span that tags every span below it."""
        self.input_id = input_id
        try:
            return self._span("input", fn)()
        finally:
            self.input_id = None

    def aggregate(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "aggregate": self.aggregate()}, handle)


def merge(aggregates) -> dict:
    """Sum aggregates of several traced processes (maxima take the max)."""
    out = {"calls": Counter(), "total": Counter(), "self": Counter(), "counters": Counter(), "maxima": {}}
    for agg in aggregates:
        for key in ("calls", "total", "self", "counters"):
            out[key].update(agg[key])
        for key, value in agg["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
    return out


# name -> (unit, better, how to read it from an aggregate)
def _total(name):
    return lambda agg: agg["total"].get(name, 0.0)


def _calls(name):
    return lambda agg: agg["calls"].get(name, 0)


def _counter(name):
    return lambda agg: agg["counters"].get(name, 0)


def _useful_ratio(agg):
    calls = agg["calls"].get("linalg.SpanBuilder.add", 0)
    return agg["counters"].get("linalg.span_add_useful", 0) / calls if calls else 0.0


def _self(module):
    return lambda agg: sum(v for k, v in agg["self"].items() if k.split(".")[0] == module)


LAYER_METRICS = {
    "cli.main_s": ("s", "lower", _total("cli.main")),
    "classifier.classify_s": ("s", "lower", _total("classifier.classify")),
    "coxeter.report_s": ("s", "lower", _total("coxeter.coxeter_report")),
    "coxeter.classify_calls": ("count", "lower", _calls("coxeter.classify")),
    "coxeter.tits_form_s": ("s", "lower", _total("coxeter.tits_form")),
    "coxeter.signature_s": ("s", "lower", _total("coxeter.signature")),
    "algebraic.field_inits": ("count", "lower", _calls("algebraic.RealCyclotomicField.__init__")),
    "algebraic.field_init_s": ("s", "lower", _total("algebraic.RealCyclotomicField.__init__")),
    "algebraic.field_degree.max": ("count", "lower",
                                   lambda agg: agg["maxima"].get("algebraic.field_degree", 0)),
    "algebraic.sign_calls": ("count", "lower", _calls("algebraic.CycloNumber.sign")),
    "algebraic.sign_s": ("s", "lower", _total("algebraic.CycloNumber.sign")),
    "algebraic.interval_eval_calls": ("count", "lower", _calls("algebraic.interval_eval")),
    "algebraic.mul_calls": ("count", "lower", _calls("algebraic.CycloNumber.__mul__")),
    "algebraic.inverse_calls": ("count", "lower", _calls("algebraic.CycloNumber.inverse")),
    "presentations.enumerate_s": ("s", "lower", _total("presentations.coset_enumerate")),
    "presentations.cosets": ("count", "lower", _counter("presentations.cosets")),
    "presentations.perm_inv_calls": ("count", "lower", _calls("presentations.perm_inv")),
    "presentations.table_checks": ("count", "lower", _calls("presentations.CosetTable.check")),
    "presentations.rs_s": ("s", "lower", _total("presentations.reidemeister_schreier_data")),
    "presentations.rs_relators": ("count", "lower", _counter("presentations.rs_relators")),
    "presentations.snf_calls": ("count", "lower", _calls("presentations.smith_normal_form")),
    "presentations.snf_s": ("s", "lower", _total("presentations.smith_normal_form")),
    "presentations.snf_cells": ("count", "lower", _counter("presentations.snf_cells")),
    "words.word_new": ("count", "lower", _calls("words.Word.__init__")),
    "bs.britton_reduce_calls": ("count", "lower", _calls("bs.britton_reduce")),
    "bs.britton_reduce_s": ("s", "lower", _total("bs.britton_reduce")),
    "bs.witness_subgroup_s": ("s", "lower", _total("bs.witness_subgroup")),
    "bs.verify_witness_s": ("s", "lower", _total("bs.verify_witness")),
    "lie.presentable_s": ("s", "lower", _total("lie.lie_presentable")),
    "lie.validate_s": ("s", "lower", _total("lie.validate")),
    "lie.centre_s": ("s", "lower", _total("lie.centre")),
    "lie.ideal_lattice_s": ("s", "lower", _total("lie.ideal_lattice")),
    "lie.lattice_ideals": ("count", "lower", _counter("lie.lattice_ideals")),
    "lie.centralizer_calls": ("count", "lower", _calls("lie.centralizer")),
    "lie.centralizer_s": ("s", "lower", _total("lie.centralizer")),
    "lie.centroid_s": ("s", "lower", _total("lie.centroid")),
    "lie.verify_certificate_s": ("s", "lower", _total("lie.verify_product_certificate")),
    "linalg.rref_calls": ("count", "lower", _calls("linalg.rref")),
    "linalg.rref_s": ("s", "lower", _total("linalg.rref")),
    "linalg.span_add_calls": ("count", "lower", _calls("linalg.SpanBuilder.add")),
    "linalg.span_add_useful_ratio": ("ratio", "higher", _useful_ratio),
    "linalg.nullspace_s": ("s", "lower", _total("linalg.nullspace")),
    "linalg.solve_commutant_s": ("s", "lower", _total("linalg.solve_commutant")),
    "abels.acentral_s": ("s", "lower", _total("abels.acentral_check")),
    "abels.symbolic_s": ("s", "lower", _total("abels.symbolic_commutator_identities")),
    "abels.zinvp_new": ("count", "lower", _calls("abels.ZInvP.__init__")),
    "abels.a3_mul_calls": ("count", "lower", _calls("abels.a3_mul")),
}
LAYER_METRICS.update({f"self.{m}_s": ("s", "lower", _self(m)) for m in MODULES})


def metrics(agg) -> dict:
    return {name: {"value": read(agg), "unit": unit} for name, (unit, _, read) in LAYER_METRICS.items()}
