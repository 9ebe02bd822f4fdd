"""Per-layer tracing from outside the package.

Every public function of every ``rdunkl`` module is wrapped where it is
defined and at every other name it is bound to (``from .x import f`` copies,
the ``verify.SUITES`` table), so calls made through any import path are
seen.  Each wrapped call records a span (request, span id, parent id, name,
start, end, self time); self time is the span minus the time covered by its
child spans.  Spans stay in memory and are written once, by ``write_spans``.

The tracer is installed only for the traced phase of a run and removed
afterwards, so untraced timings never pay for the wrappers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np

import rdunkl
from rdunkl.mehler import _A_ZERO_TOL  # MehlerWeight drops dimensions with |a_i| below it


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_jacobi(tr, args, kwargs, result):
    p, q, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "q"), _arg(args, kwargs, 2, "n")
    tr.rule_keys.add(("jacobi", float(p), float(q), int(n)))
    tr.counts["quadrature.nodes_built"] += int(n)


def _count_legendre(tr, args, kwargs, result):
    n = int(_arg(args, kwargs, 0, "n"))
    tr.rule_keys.add(("legendre", n))
    tr.counts["quadrature.nodes_built"] += n


def _count_mehler(tr, args, kwargs, result):
    mu = _arg(args, kwargs, 0, "mu")
    n = int(_arg(args, kwargs, 2, "n_nodes_per_dim", 48))
    dims = sum(1 for a in mu.a if abs(a) > _A_ZERO_TOL)
    tr.counts["mehler.tensor_nodes"] += n ** dims


def _points(key, index, name):
    def count(tr, args, kwargs, result):
        tr.counts[key] += int(np.size(_arg(args, kwargs, index, name)))
    return count


#: extra work counters, keyed by the traced function's span name
COUNTERS = {
    "quadrature.gauss_jacobi_rule": _count_jacobi,
    "quadrature.gauss_legendre_rule": _count_legendre,
    "mehler.mehler_j": _count_mehler,
    "mehler.mehler_E": _count_mehler,
    "special.cos_r_value": _points("special.cos_r_points", 1, "z"),
    "series.evaluate": _points("series.evaluate_points", 1, "x"),
    "transmutation.ray_eval": _points("transmutation.ray_eval_points", 1, "t"),
}


#: functions returning an evaluator g -> RayMap whose ray evaluations are timed
_EVALUATOR_FACTORIES = {"transmutation.build_V_star", "transmutation.build_V_ray"}


class Tracer:
    """Span recorder and the set of patches that feed it."""

    def __init__(self):
        self.spans = []        # (request, span_id, parent_id, name, start, end, self_s)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # inclusive time of outermost calls only
        self.counts = defaultdict(int)
        self.rule_keys = set()
        self.code_keys = {}    # span name -> (filename, firstlineno, funcname) of the original
        self.request = 0
        self._stack = []       # [span_id, start, child_time] of the open spans
        self._depth = defaultdict(int)
        self._next_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, time.perf_counter(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                own = dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                self.spans.append((self.request, frame[0], parent[0] if parent else 0,
                                   name, frame[1], end, own))
                self.calls[name] += 1
                self.self_s[name] += own
                if depth[name] == 0:
                    self.outer_s[name] += dur
            if counter is not None:
                counter(self, args, kwargs, result)
            if name in _EVALUATOR_FACTORIES:
                result = self._trace_evaluator(result)
            return result

        if hasattr(fn, "__code__"):
            c = fn.__code__
            self.code_keys[name] = (c.co_filename, c.co_firstlineno, c.co_name)
        return traced

    def _trace_evaluator(self, apply):
        """build_V_star / build_V_ray return g -> RayMap; time the RayMap's
        ray evaluations, which is where their quadrature runs."""
        from rdunkl.hilbert import RayMap

        def traced_apply(g):
            inner = apply(g)
            fn = inner._fn
            c = fn.__code__
            self.code_keys.setdefault("transmutation.ray_eval",
                                      (c.co_filename, c.co_firstlineno, c.co_name))
            return RayMap(self.wrap("transmutation.ray_eval", fn))

        return traced_apply

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every public rdunkl function at each name bound to it."""
        mods = [importlib.import_module(f"rdunkl.{m.name}")
                for m in pkgutil.iter_modules(rdunkl.__path__) if not m.name.startswith("_")]
        wrapped = {}  # id(original) -> wrapper
        for mod in mods:
            short = mod.__name__.split(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
        cli = importlib.import_module("rdunkl.cli")
        wrapped[id(cli._fmt)] = self.wrap("cli._fmt", cli._fmt)
        for mod in mods + [rdunkl]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._set_item(obj, key, wrapped[id(val)])
        # formatting: report serialisation and the JSON encoder the CLI calls
        reports = importlib.import_module("rdunkl.reports")
        cls = reports.VerificationReport
        self._set(cls, "to_dict", self.wrap("reports.VerificationReport.to_dict", cls.to_dict))
        self._set(cli, "json", _JsonProxy(self.wrap("cli.json.dumps", cli.json.dumps)))

    def uninstall(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _set(self, owner, name, value):
        old = getattr(owner, name)
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, old))

    def _set_item(self, table, key, value):
        old = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, old))

    # -- output ------------------------------------------------------------
    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,name,start_s,end_s,self_s\n")
            for req, sid, pid, name, start, end, own in self.spans:
                fh.write(f"{req},{sid},{pid},{name},{start!r},{end!r},{own!r}\n")


class _JsonProxy:
    """Stands in for the ``json`` module inside cli so ``dumps`` is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


SUITE_NAMES = ("eigen", "power", "mehler", "rl", "hilbert", "transmutation",
               "transform", "dunkl-opdam")

#: (metric, unit, how) -- "calls"/"self"/"outer" sum over the listed span
#: names, "count" reads a work counter.  Values are per traced workload pass.
LAYER_METRICS = [
    ("quadrature.rule_builds", "count", "calls",
     ("quadrature.gauss_jacobi_rule", "quadrature.gauss_legendre_rule")),
    ("quadrature.rule_distinct", "count", "distinct", ()),
    ("quadrature.nodes_built", "count", "count", ()),
    ("quadrature.rule_build_s", "s", "self",
     ("quadrature.gauss_jacobi_rule", "quadrature.gauss_legendre_rule")),
    ("riemann_liouville.adjoint_calls", "count", "calls", ("riemann_liouville.apply_R_adjoint",)),
    ("riemann_liouville.adjoint_s", "s", "self", ("riemann_liouville.apply_R_adjoint",)),
    ("riemann_liouville.quadrature_s", "s", "self",
     ("riemann_liouville.apply_R_quadrature", "riemann_liouville.apply_R_inverse_derivative_form")),
    ("transmutation.ray_eval_points", "count", "count", ()),
    ("transmutation.ray_eval_s", "s", "self", ("transmutation.ray_eval",)),
    ("mehler.evals", "count", "calls", ("mehler.mehler_j", "mehler.mehler_E")),
    ("mehler.tensor_nodes", "count", "count", ()),
    ("mehler.eval_s", "s", "self", ("mehler.mehler_j", "mehler.mehler_E")),
    ("special.cos_r_points", "count", "count", ()),
    ("special.cos_r_s", "s", "self", ("special.cos_r_value",)),
    ("transforms.transform_evals", "count", "calls",
     ("transforms.dunkl_transform_F", "transforms.f_r_transform", "transforms.laplace_theta")),
    ("transforms.transform_s", "s", "self",
     ("transforms.dunkl_transform_F", "transforms.f_r_transform", "transforms.laplace_theta")),
    ("transforms.laplace_inverse_s", "s", "self",
     ("transforms.laplace_theta_inverse", "transforms.dunkl_transform_inverse")),
    ("operators.kernel_series_builds", "count", "calls", ("operators.dunkl_kernel_series",)),
    ("operators.kernel_series_s", "s", "outer", ("operators.dunkl_kernel_series",)),
    ("series.evaluate_points", "count", "count", ()),
    ("series.evaluate_s", "s", "self", ("series.evaluate",)),
    ("special.bessel_series_s", "s", "self", ("special.bessel_j_series",)),
    ("special.bessel_value_s", "s", "self", ("special.bessel_j_value",)),
    ("operators.kernel_values_s", "s", "self", ("operators.dunkl_kernel_values",)),
    ("transmutation.build_V_s", "s", "outer", ("transmutation.build_V",)),
    ("hilbert.inner_product_calls", "count", "calls",
     ("hilbert.inner_product", "hilbert.inner_product_plain")),
    ("hilbert.inner_product_s", "s", "self",
     ("hilbert.inner_product", "hilbert.inner_product_plain")),
] + [
    (f"verify.{s.replace('-', '_')}_s", "s", "outer", (f"verify.suite_{s.replace('-', '_')}",))
    for s in SUITE_NAMES
] + [
    ("cli.format_s", "s", "self",
     ("cli._fmt", "cli.json.dumps", "reports.VerificationReport.to_dict")),
]


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer values from the recorded spans and counters."""
    out = {}
    for metric, unit, how, names in LAYER_METRICS:
        if how == "calls":
            v = sum(tracer.calls[n] for n in names) / passes
        elif how == "self":
            v = sum(tracer.self_s[n] for n in names) / passes
        elif how == "outer":
            v = sum(tracer.outer_s[n] for n in names) / passes
        elif how == "distinct":
            v = len(tracer.rule_keys)
        else:
            v = tracer.counts[metric] / passes
        out[metric] = (v, unit)
    return out
