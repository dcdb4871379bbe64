"""Span recorder for the traced benchmark run, installed from outside epifield.

`install()` wraps the public functions of each epifield module (the layers)
and returns the Tracer that records one span per call: id, parent span,
thread, name, start, end and a few counts. Spans stay in memory and are
written once, at the end, by `Tracer.dump`. `summarize()` turns a span list
into the per-layer metrics: self time (span time minus the part of it that
child spans cover), call counts and work counts.

epifield modules import each other's functions by name, so a function is
replaced in every epifield module that holds it, e.g. both
`epifield.render.intersect_rays` and `epifield.experiments.intersect_rays`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

def _intersect_counts(args, kwargs, result):
    hit = result[1]
    return {"rays": int(hit.size), "hits": int(hit.sum())}


def _radiance_counts(args, kwargs, result):
    return {"samples": int(args[1].size)}


def _render_counts(args, kwargs, result):
    return {"rows": result.n_s}


def _spectrum_counts(args, kwargs, result):
    return {"rows_used": args[0].n_s}


def _psnr_counts(args, kwargs, result):
    return {"rows_used": int(args[0].shape[0])}


def _sweep_counts(args, kwargs, result):
    return {
        "cells": int(result.metric.size),
        "missing": len(result.missing),
        "threads": int(kwargs.get("threads", 1)),
    }


def _write_counts(args, kwargs, result):
    paths = result if isinstance(result, tuple) else (result,)
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# (module, function, span name, counter). Rows "used downstream" are counted
# where an EPI reaches the step that consumes it: the spectrum or the PSNR
# reference.
TARGETS = [
    ("epifield.cli", "main", "cli.main", None),
    ("epifield.config", "load_config", "config.load_config", None),
    ("epifield.mapping", "intersect_rays", "mapping.intersect_rays", _intersect_counts),
    ("epifield.render", "render_epi", "render.render_epi", _render_counts),
    ("epifield.render", "subsample_epi", "render.subsample_epi", None),
    ("epifield.render", "reconstruct_epi", "render.reconstruct_epi", None),
    ("epifield.render", "psnr", "render.psnr", _psnr_counts),
    ("epifield.spectral", "dft2_magnitude", "spectral.dft2_magnitude", _spectrum_counts),
    ("epifield.spectral", "sparsity_rmse", "spectral.sparsity_rmse", None),
    ("epifield.experiments", "sweep_sparsity", "experiments.sweep", _sweep_counts),
    ("epifield.experiments", "sweep_reconstruction", "experiments.sweep", _sweep_counts),
    ("epifield.fileio", "write_sweep_csv", "fileio.write", _write_counts),
    ("epifield.fileio", "write_heatmap_pgm", "fileio.write", _write_counts),
]


class Tracer:
    """Collects spans from every thread into one in-memory list.

    A span opened on a thread with no open span of its own (a sweep's pool
    worker) takes as parent the innermost open span of the thread that
    installed the tracer, which is the sweep that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def wrap(self, name, fn, count=None):
        spans, ids, local, main_stack = self.spans, self._ids, self._local, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            span_id = next(ids)
            stack.append(span_id)
            attrs = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            if count is not None:
                attrs = count(args, kwargs, result)
            spans.append((span_id, parent, threading.get_ident(), name, start, end, attrs))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install() -> Tracer:
    """Import epifield, wrap every target in every module holding it."""
    import epifield.cli  # noqa: F401  (loads every epifield module)
    from epifield.scene import TextureSpec

    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "epifield"]
    for module_name, attr, span_name, count in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    TextureSpec.radiance = tracer.wrap("scene.radiance", TextureSpec.radiance, _radiance_counts)
    return tracer


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> span duration minus the part its children cover."""
    children = defaultdict(list)
    for span_id, parent, _thread, _name, start, end, _attrs in spans:
        children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()), start, end)
        for span_id, _parent, _thread, _name, start, end, _attrs in spans
    }


LAYER_NAMES = sorted({t[2] for t in TARGETS} | {"scene.radiance"})


def summarize(spans) -> dict[str, float]:
    """Per-layer totals of one traced CLI invocation.

    Returns `<span>.self_s` and `<span>.calls` for every traced name plus the
    summed counts (`<span>.<count>`), and the raw sums the ratios are built
    from: `rows_used` is the EPI rows that reached a consumer,
    `sweep.busy_s` the summed duration of the sweeps' child spans and
    `sweep.capacity_s` threads x sweep duration.
    """
    out = defaultdict(float)
    for name in LAYER_NAMES:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    selfs = self_times(spans)
    sweeps = set()
    for span_id, _parent, _thread, name, start, end, attrs in spans:
        out[f"{name}.self_s"] += selfs[span_id]
        out[f"{name}.calls"] += 1
        if attrs:
            for key, value in attrs.items():
                out[f"{name}.{key}"] += value
        if name == "experiments.sweep":
            sweeps.add(span_id)
            out["sweep.capacity_s"] += attrs["threads"] * (end - start)
    for _span_id, parent, _thread, _name, start, end, _attrs in spans:
        if parent in sweeps:
            out["sweep.busy_s"] += end - start
    out["rows_used"] = sum(v for k, v in out.items() if k.endswith(".rows_used"))
    out["self_s.total"] = sum(selfs.values())
    return dict(out)
