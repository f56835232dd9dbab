"""Outside-in tracing of the program's layers.

The tracer replaces every public function of each layer module, and every
public method (plus arithmetic operators) of each class defined there, with
a wrapper that records a span: name, start, end, parent span and job id.
Module functions are patched in every `sigmatrop` module that holds a
binding to them (for example `trop_hypersurface` in `sigma` and in `cli`);
methods are patched on their class.  `jsonschema.validate` is wrapped as
part of the `cli` layer because the CLI spends its validation time there.

Spans stay in memory and are written out when the run ends.  Counts and
inclusive or self times are accumulated as the spans close.  A layer's self
time is its spans' durations minus the time covered by their child spans.
Nothing inside the program is changed: uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "sigma", "polyhedra", "linalg", "tropical", "rings",
          "valuations", "dynamics", "halfplane")
OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__")
MAX_SPANS = 2_000_000  # about 90 MB of span arrays; counts continue past it

# Operations whose inclusive time is reported; nested calls count once.
GROUPS = {
    "cli.jsonschema.validate": "validate",
    "cli.sigma_json": "encode",
    "cli.fan_json": "encode",
    "cli.canonical_json": "encode",
    "polyhedra.PolyhedralSet.complement": "complement",
    "polyhedra.Polyhedron.rays": "rays",
    "polyhedra.SphericalSet.rays": "rays",
    "tropical.trop_hypersurface": "hypersurface",
    "tropical.amoeba_sample": "amoeba",
}


class Tracer:
    def __init__(self):
        self.mods = {layer: importlib.import_module(f"sigmatrop.{layer}")
                     for layer in LAYERS}
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls = array("q")
        self.self_s = array("d")
        self.group_of: list[str | None] = []
        self.depth = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct: set = set()
        self.stack: list = []
        self.job = -1
        self.next_span = 0
        self.spans = {"name": array("i"), "start": array("d"), "end": array("d"),
                      "parent": array("q"), "job": array("q"), "id": array("q")}
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.group_of.append(GROUPS.get(name))
        return len(self.names) - 1

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        program = [m for n, m in sys.modules.items()
                   if n == "sigmatrop" or n.startswith("sigmatrop.")]
        for layer, mod in self.mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, self._name_id(layer, f"{layer}.{attr}"))
                    for holder in program:
                        for name, val in list(vars(holder).items()):
                            if val is obj:
                                self._patch(holder, name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        import jsonschema
        self._patch(jsonschema, "validate", self._wrap(
            jsonschema.validate, self._name_id("cli", "cli.jsonschema.validate")))

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, self._name_id(layer, name)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, self._name_id(layer, name))
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def start_job(self, job_id: int):
        """Begin a job; clears state a timed-out job may have left."""
        self.job = job_id
        self.stack.clear()
        self.depth.clear()
        self.distinct.clear()

    def _wrap(self, fn, nid):
        tracer = self
        group = self.group_of[nid]
        hook = HOOKS.get(self.names[nid])
        perf = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_span
            tracer.next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            if group:
                tracer.depth[group] += 1
            pre = hook[0](tracer, args) if hook else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                dur = end - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if group:
                    tracer.depth[group] -= 1
                    if tracer.depth[group] == 0:
                        tracer.incl_s[group] += dur
                if sid < MAX_SPANS:
                    spans["id"].append(sid)
                    spans["name"].append(nid)
                    spans["start"].append(start)
                    spans["end"].append(end)
                    spans["parent"].append(parent)
                    spans["job"].append(tracer.job)
            if hook:
                hook[1](tracer, args, result, pre)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for nid, layer in enumerate(self.layer_of):
            calls[LAYERS[layer]] += self.calls[nid]
            self_s[LAYERS[layer]] += self.self_s[nid]
        return calls, self_s

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()})


# Counters read at layer boundaries: (before call, after call) per span name.


def _fm_pre(tracer, args):
    return getattr(args[0], "_empty", None) is not None  # answer already cached


def _fm_post(tracer, args, result, cached):
    if cached:
        return
    p = args[0]
    tracer.counts["fm_solves"] += 1
    tracer.counts["fm_nonempty"] += result is not None
    key = (p.rank, p.eq, p.ge, p.gt)
    if key not in tracer.distinct:
        tracer.distinct.add(key)
        tracer.counts["fm_distinct"] += 1


def _solve_post(tracer, args, result, pre):
    tracer.counts["cert_systems"] += 1
    tracer.counts["cert_hits"] += result is not None


def _complement_post(tracer, args, result, pre):
    tracer.counts["complement_calls"] += 1
    tracer.counts["complement_pieces_out"] += len(result.pieces)


def _amoeba_post(tracer, args, result, pre):
    tracer.counts["amoeba_dropped"] += result.dropped
    tracer.counts["amoeba_roots"] += len(result.points) + result.dropped


def _none(tracer, args):
    return None


HOOKS = {
    "polyhedra.Polyhedron.feasible_point": (_fm_pre, _fm_post),
    "linalg.solve_integer": (_none, _solve_post),
    "polyhedra.PolyhedralSet.complement": (_none, _complement_post),
    "tropical.amoeba_sample": (_none, _amoeba_post),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, jobs: int, traced_s: float,
                      untraced_s: float) -> dict:
    """Per-layer metrics, per traced job (ms/job, calls/job) or as ratios."""
    calls, self_s = tracer.layer_totals()
    c, incl = tracer.counts, tracer.incl_s
    n = max(jobs, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.calls", calls[layer] / n, "calls/job")
        put(f"{layer}.self_ms", 1000 * self_s[layer] / n, "ms/job")
    put("cli.validate_ms", 1000 * incl["validate"] / n, "ms/job")
    put("cli.encode_incl_ms", 1000 * incl["encode"] / n, "ms/job")
    put("sigma.cert_systems", c["cert_systems"] / n, "calls/job")
    put("sigma.cert_hit_ratio", _ratio(c["cert_hits"], c["cert_systems"]), "ratio")
    put("polyhedra.fm_solves", c["fm_solves"] / n, "calls/job")
    put("polyhedra.fm_distinct_ratio", _ratio(c["fm_distinct"], c["fm_solves"]), "ratio")
    put("polyhedra.nonempty_ratio", _ratio(c["fm_nonempty"], c["fm_solves"]), "ratio")
    put("polyhedra.complement_calls", c["complement_calls"] / n, "calls/job")
    put("polyhedra.complement_incl_ms", 1000 * incl["complement"] / n, "ms/job")
    put("polyhedra.complement_pieces_out", c["complement_pieces_out"] / n, "pieces/job")
    put("polyhedra.rays_incl_ms", 1000 * incl["rays"] / n, "ms/job")
    put("tropical.hypersurface_incl_ms", 1000 * incl["hypersurface"] / n, "ms/job")
    put("tropical.amoeba_incl_ms", 1000 * incl["amoeba"] / n, "ms/job")
    put("tropical.amoeba_drop_ratio", _ratio(c["amoeba_dropped"], c["amoeba_roots"]), "ratio")
    put("trace.overhead_ratio", _ratio(traced_s, untraced_s), "ratio")
    return out
