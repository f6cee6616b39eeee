"""Span recorder for traced benchmark reps, and the per-layer aggregation.

A traced rep wraps the public functions of every gpilab module in every
module namespace that binds them (``from .grid import lp_norm`` copies the
name into the importing module), plus ``Grid.xi_abs``, ``numpy.fft.fftn``,
``numpy.fft.ifftn`` and ``numpy.exp``.  The numpy wrappers record only
calls made while another span is open.  Spans stay in memory and are
written once, when the rep ends.

A span is ``[name, start, end, parent, run_id, attrs]``; ``parent`` is the
index of the enclosing span or -1.  Everything runs in one thread, so
spans nest exactly and a span's self time is its duration minus the
durations of its direct children.

Counts in ``attrs`` (array points, Strang steps, records, samples, bytes)
are computed from array sizes and configs, never measured, so two traced
reps with the same seed give identical counts.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time

# gpilab modules whose public functions are wrapped; cli has no __all__
MODULES = ("grid", "ioperator", "dynamics", "bench", "multverify", "ledger",
           "fitting", "cli")
CLI_FUNCTIONS = ("load_config", "run", "atomic_write")
LAYERS = ("grid", "ioperator", "dynamics", "bench", "multverify", "cli")
FFT_SPANS = ("grid.fft.fftn", "grid.fft.ifftn")
EXP_SPAN = "exp"            # attributed to the layer of its enclosing span
ROOT_SPAN = "harness.run"   # the timed workload call itself


def _field_points(args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    return {"points": f.grid.n ** f.grid.dim}


def _evolve_attrs(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"steps": cfg.n_steps, "records": len(out.snapshots),
            "points": cfg.grid.n ** cfg.grid.dim}


def _sample_attrs(args, kwargs, out):
    if isinstance(out, tuple):
        samples, stats = out
        return {"samples": int(samples.shape[0]),
                "rejected": stats["rejected"], "singular": stats["singular"]}
    return {"samples": int(out.shape[0])}


def _write_attrs(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _size_attrs(args, kwargs, out):
    return {"points": int(getattr(out, "size", 1))}


ATTRS = {
    "ioperator.energy": _field_points,
    "ioperator.modified_energy": _field_points,
    "ioperator.multiplier_value": _size_attrs,
    "dynamics.evolve": _evolve_attrs,
    "multverify.sample_region": _sample_attrs,
    "cli.atomic_write": _write_attrs,
}


class Recorder:
    """In-memory span list for one rep."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None, nested_only=False):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap gpilab's public functions and the numpy kernels they call."""
        import importlib

        import numpy

        mods = {m: importlib.import_module(f"gpilab.{m}") for m in MODULES}
        wrapped = {}
        for m, mod in mods.items():
            names = CLI_FUNCTIONS if m == "cli" else mod.__all__
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    key = f"{m}.{n}"
                    wrapped[fn] = self.wrap(key, fn, ATTRS.get(key))
        for mod in mods.values():
            bound = [(n, v) for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v in wrapped]
            for n, v in bound:
                setattr(mod, n, wrapped[v])
        grid_cls = mods["grid"].Grid
        grid_cls.xi_abs = self.wrap("grid.xi_abs", grid_cls.xi_abs, _size_attrs)
        numpy.fft.fftn = self.wrap("grid.fft.fftn", numpy.fft.fftn, _size_attrs,
                                   nested_only=True)
        numpy.fft.ifftn = self.wrap("grid.fft.ifftn", numpy.fft.ifftn, _size_attrs,
                                    nested_only=True)
        numpy.exp = self.wrap(EXP_SPAN, numpy.exp, _size_attrs, nested_only=True)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# aggregation (runs in the parent, stdlib only)

# per-layer metric name -> span names it sums over
GROUPS = {
    "grid.fft": FFT_SPANS,
    "grid.transform": ("grid.forward_transform", "grid.inverse_transform"),
    "grid.xi_abs": ("grid.xi_abs",),
    "grid.norm": ("grid.sobolev_norm", "grid.homogeneous_norm", "grid.lp_norm"),
    "ioperator.energy": ("ioperator.energy",),
    "ioperator.modified_energy": ("ioperator.modified_energy",),
    "ioperator.apply_I": ("ioperator.apply_I",),
    "ioperator.gradient_I_norm": ("ioperator.gradient_I_norm",),
    "ioperator.multiplier_value": ("ioperator.multiplier_value",),
    "dynamics.evolve": ("dynamics.evolve",),
    "dynamics.audit": ("dynamics.l2_growth_audit",),
    "bench.bilinear_ratio": ("bench.bilinear_ratio",),
    "bench.strichartz_ratio_sweep": ("bench.strichartz_ratio_sweep",),
    "multverify.sample_region": ("multverify.sample_region",),
    "multverify.verify_bound": ("multverify.verify_bound",),
    "cli.run": ("cli.run",),
    "cli.atomic_write": ("cli.atomic_write",),
}

# spans whose per-call durations are reported by array size, next to the
# single-call timings of the same kernels in ROADMAP's Baseline table
PER_CALL = ("grid.fft.fftn", "grid.fft.ifftn", EXP_SPAN, "grid.xi_abs",
            "ioperator.energy", "ioperator.modified_energy")


def aggregate(spans):
    """Return (counts, times, per_call) for one rep's spans.

    counts are exact and must repeat for a repeated seed; times are self
    seconds; per_call maps "name@points" to a list of durations.
    """
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    layer_of = [""] * n
    counts, times, per_call = {}, {}, {}
    group_of = {s: g for g, names in GROUPS.items() for s in names}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for i, (name, t0, t1, parent, _run, attrs) in enumerate(spans):
        layer = layer_of[parent] if name == EXP_SPAN else name.split(".")[0]
        layer_of[i] = layer
        own = (t1 - t0) - child[i]
        attrs = attrs or {}
        add(counts, f"{layer}.calls", 1)
        add(times, f"{layer}.self_s", own)
        group = group_of.get(name)
        if group is not None:
            add(counts, f"{group}.calls", 1)
            add(times, f"{group}.self_s", own)
        if name == EXP_SPAN:
            add(counts, f"{layer}.exp.calls", 1)
            add(times, f"{layer}.exp.self_s", own)
        elif name in FFT_SPANS:
            p = attrs["points"]
            add(counts, "grid.fft.points", p)
            add(counts, "grid.fft.flops_computed", int(round(5 * p * math.log2(p))))
            add(counts, "grid.fft.bytes_computed", 2 * 16 * p)
            if layer_of[parent] == "bench":
                add(counts, "bench.fft.calls", 1)
        elif name == "ioperator.multiplier_value":
            add(counts, "ioperator.multiplier_value.points", attrs["points"])
        elif name == "dynamics.evolve" and attrs:
            add(counts, "dynamics.steps", attrs["steps"])
            add(counts, "dynamics.records", attrs["records"])
            add(counts, "dynamics.snapshot_bytes_computed",
                16 * attrs["records"] * attrs["points"])
        elif name == "multverify.sample_region":
            add(counts, "multverify.samples", attrs["samples"])
            add(counts, "multverify.rejected", attrs.get("rejected", 0))
            add(counts, "multverify.singular", attrs.get("singular", 0))
        elif name == "cli.atomic_write":
            add(counts, "cli.artifact_bytes", attrs["bytes"])
        if name in PER_CALL:
            per_call.setdefault(f"{name}@{attrs['points']}", []).append(t1 - t0)
    return counts, times, per_call


PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "grid.fft.calls": "count", "grid.fft.self_s": "s",
    "grid.fft.points": "count", "grid.fft.flops_computed": "flop",
    "grid.fft.bytes_computed": "B",
    "grid.transform.calls": "count", "grid.transform.self_s": "s",
    "grid.xi_abs.calls": "count", "grid.xi_abs.self_s": "s",
    "grid.norm.calls": "count", "grid.norm.self_s": "s",
    "ioperator.energy.calls": "count", "ioperator.energy.self_s": "s",
    "ioperator.modified_energy.calls": "count",
    "ioperator.modified_energy.self_s": "s",
    "ioperator.apply_I.calls": "count", "ioperator.apply_I.self_s": "s",
    "ioperator.gradient_I_norm.calls": "count",
    "ioperator.gradient_I_norm.self_s": "s",
    "ioperator.multiplier_value.calls": "count",
    "ioperator.multiplier_value.points": "count",
    "ioperator.multiplier_value.self_s": "s",
    "dynamics.steps": "count", "dynamics.records": "count",
    "dynamics.evolve.self_s": "s", "dynamics.audit.self_s": "s",
    "dynamics.snapshot_bytes_computed": "B",
    "bench.bilinear_ratio.self_s": "s",
    "bench.strichartz_ratio_sweep.self_s": "s",
    "bench.exp.calls": "count", "bench.exp.self_s": "s",
    "bench.fft.calls": "count",
    "multverify.sample_region.self_s": "s",
    "multverify.verify_bound.self_s": "s",
    "multverify.samples": "count", "multverify.rejected": "count",
    "multverify.accept_ratio": "ratio",
    "cli.run.self_s": "s", "cli.atomic_write.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace_overhead_frac": "ratio",
}


def per_layer_metrics(traced, untraced_run_s):
    """Per-layer metrics over the traced reps of one run.

    traced: [(counts, times, run_s)], one per traced rep.  Counts come from
    the first rep (the checks require every rep to repeat them), times are
    medians over reps.
    """
    counts = traced[0][0]
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(t.get(name, 0.0) for _, t, _ in traced)
        else:
            value = counts.get(name, 0)
        out[name] = value
    candidates = counts.get("multverify.samples", 0) + \
        counts.get("multverify.rejected", 0) + counts.get("multverify.singular", 0)
    out["multverify.accept_ratio"] = (counts.get("multverify.samples", 0) / candidates
                                      if candidates else 0.0)
    traced_run_s = statistics.median(r for _, _, r in traced)
    out["trace_overhead_frac"] = traced_run_s / untraced_run_s - 1.0
    return {name: {"value": out[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
