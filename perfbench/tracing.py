"""Span recorder wrapped around hardylab's public functions, and the
per-layer metrics computed from its spans.

The recorder replaces each traced function with a wrapper in every hardylab
namespace that holds it (``hardylab.hardy.per_cube_capacity_field`` and
``hardylab.cli.per_cube_capacity_field`` alike), so calls between modules are
seen as well as calls from the CLI.  A span is
``[name, start, end, parent index, job, facts]``; spans stay in memory until
the metrics are computed.  The parent is the innermost open span, which is
exact because the benchmark fixes ``HARDYLAB_THREADS=1`` and so every call
runs on one thread.

Layer of a span = the module part of its name.  Busy time of a layer is the
summed duration of its outermost spans; self time of a span is its duration
minus its child spans'.  ``bench.pass`` is the root span around one pass, so
the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter


def _solver_facts(args, kwargs, out):
    return {"solver": out.solver, "residual": out.residual}


def _ratio_facts(args, kwargs, out):
    return {"solver": out[2], "residual": out[1]}


def _field_facts(args, kwargs, out):
    floor = out.c2_floor
    clamped = 0
    if floor > 0:
        clamped = sum(1 for r in out.records
                      if not (r["best_constant"] >= floor))
    return {"cubes": len(out.records), "clamped": clamped}


# (module, function, facts taken from the call) for every traced function
SPANNED = [
    ("grids", "rasterize",
     lambda a, k, out: {"cells": int(out.inside.size)}),
    ("whitney", "decompose", lambda a, k, out: {"cubes": int(out.n_cubes)}),
    ("whitney", "check_decomposition", None),
    ("whitney", "to_svg", None),
    ("dimension", "g_s", None),
    ("dimension", "dim_loc", None),
    ("dimension", "dim_mc_loc", None),
    ("dimension", "selfsimilarity_signature", None),
    ("dimension", "export_gs_table", None),
    ("dimension", "export_boxcount_table", None),
    ("capacity", "gamma_capacity", _solver_facts),
    ("capacity", "theta_capacity", _solver_facts),
    ("capacity", "ratio_best_constant", _ratio_facts),
    ("capacity", "holder_ratio_best_constant", _ratio_facts),
    ("capacity", "norm_equivalence_constant", None),
    ("hardy", "per_cube_capacity_field", _field_facts),
    ("hardy", "constructive_bound", None),
    ("hardy", "direct_best_constant",
     lambda a, k, out: {"dofs": int(a[0].inside.sum())}),
    ("cone", "cone_split", lambda a, k, out: {"cubes": int(a[1].n_cubes)}),
    ("cone", "local_majorant", None),
    ("norms", "gradient_seminorm", None),
    ("cli", "main", None),
]

# functions whose calls are counted, too frequent for a span each
COUNTED = [("capacity", "gradient_norm_grad")]

CHAIN_SOLVES = ("capacity.ratio_best_constant",
                "capacity.holder_ratio_best_constant")
REPORTED_SOLVES = ("capacity.gamma_capacity", "capacity.theta_capacity")
LAYERS = ("grids", "whitney", "dimension", "capacity", "hardy", "cone",
          "norms", "cli", "bench")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self.enabled = True
        self._restore: list[tuple] = []

    def _span(self, name, facts):
        rec = self

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not rec.enabled:
                    return fn(*args, **kwargs)
                span = [name, time.perf_counter(), 0.0,
                        rec.stack[-1] if rec.stack else -1, rec.job, None]
                rec.stack.append(len(rec.spans))
                rec.spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    rec.stack.pop()
                if facts is not None:
                    span[5] = facts(args, kwargs, out)
                return out
            return wrapper
        return decorate

    def _counter(self, name):
        rec = self

        def decorate(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if rec.enabled:
                    rec.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return decorate

    def _replace(self, mod, fn, decorate) -> None:
        """Put decorate(fn) in place of fn in every hardylab namespace."""
        orig = getattr(sys.modules[f"hardylab.{mod}"], fn)
        wrapper = decorate(orig)
        for name, module in list(sys.modules.items()):
            if name == "hardylab" or name.startswith("hardylab."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, orig))

    def install(self) -> None:
        """Wrap every traced function in every loaded hardylab module."""
        for mod, fn, facts in SPANNED:
            self._replace(mod, fn, self._span(f"{mod}.{fn}", facts))
        for mod, fn in COUNTED:
            self._replace(mod, fn, self._counter(f"{mod}.{fn}"))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def root(self, name: str, start: float):
        """Open a span with no parent at start; returns a function that
        closes it at a given end time."""
        idx = len(self.spans)
        self.spans.append([name, start, 0.0, -1, None, None])
        self.stack.append(idx)

        def close(end: float):
            self.spans[idx][2] = end
            self.stack.pop()
        return close


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics from the recorded spans and counts."""
    spans = rec.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    layer = [s[0].split(".")[0] for s in spans]
    name = [s[0] for s in spans]

    def outermost(i):
        return spans[i][3] < 0 or layer[spans[i][3]] != layer[i]

    def total(*names, only_outer=False):
        return sum(dur[i] for i in range(len(spans)) if name[i] in names
                   and (not only_outer or outermost(i)))

    def calls(*names):
        return sum(1 for n in name if n in names)

    def facts(n):
        return [spans[i][5] for i in range(len(spans)) if name[i] == n]

    m = {f"{lay}.self_s": 0.0 for lay in LAYERS}
    for i in range(len(spans)):
        m[f"{layer[i]}.self_s"] += dur[i] - child[i]

    solves = Counter()
    residuals = []
    eigen_s = descent_s = 0.0
    for i in range(len(spans)):
        if name[i] in REPORTED_SOLVES + CHAIN_SOLVES:
            f = spans[i][5]
            solves[f["solver"] if f["solver"] in ("eigen-exact", "descent")
                   else "other"] += 1
            if math.isfinite(f["residual"]):
                residuals.append(f["residual"])
            if name[i] in REPORTED_SOLVES and outermost(i):
                if f["solver"] == "eigen-exact":
                    eigen_s += dur[i]
                else:
                    descent_s += dur[i]
    field = facts("hardy.per_cube_capacity_field")
    field_idx = {i for i in range(len(spans))
                 if name[i] == "hardy.per_cube_capacity_field"}
    classes = sum(1 for i in range(len(spans)) if name[i] in REPORTED_SOLVES
                  and spans[i][3] in field_idx)
    field_cubes = sum(f["cubes"] for f in field)

    def in_split(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if name[i] == "cone.cone_split":
                return True
        return False

    m.update({
        "grids.rasterize_s": total("grids.rasterize"),
        "grids.cells": sum(f["cells"] for f in facts("grids.rasterize")),
        "whitney.decompose_s": total("whitney.decompose"),
        "whitney.check_s": total("whitney.check_decomposition"),
        "whitney.svg_s": total("whitney.to_svg"),
        "whitney.cubes": sum(f["cubes"] for f in facts("whitney.decompose")),
        "dimension.dim_loc_s": total("dimension.dim_loc"),
        "dimension.dim_mc_loc_s": total("dimension.dim_mc_loc"),
        "dimension.g_s_calls": calls("dimension.g_s"),
        "dimension.g_s_s": total("dimension.g_s"),
        "dimension.export_s": total("dimension.export_gs_table",
                                    "dimension.export_boxcount_table"),
        "capacity.solves.eigen-exact": solves["eigen-exact"],
        "capacity.solves.descent": solves["descent"],
        "capacity.solves.other": solves["other"],
        "capacity.eigen_s": eigen_s,
        "capacity.descent_s": descent_s,
        "capacity.chain_s": total(*CHAIN_SOLVES, only_outer=True),
        "capacity.busy_s": sum(dur[i] for i in range(len(spans))
                               if layer[i] == "capacity" and outermost(i)),
        "capacity.grad_evals": rec.counts["capacity.gradient_norm_grad"],
        "capacity.max_residual": max(residuals, default=0.0),
        "hardy.capacity_field_s": total("hardy.per_cube_capacity_field"),
        "hardy.capacity_field_calls": len(field),
        "hardy.classes": classes,
        "hardy.class_reuse": field_cubes / classes if classes else 0.0,
        "hardy.clamped_cubes": sum(f["clamped"] for f in field),
        "hardy.assemble_self_s": sum(
            dur[i] - child[i] for i in range(len(spans))
            if name[i] == "hardy.constructive_bound"),
        "hardy.direct_s": total("hardy.direct_best_constant"),
        "hardy.direct_dofs": sum(f["dofs"] for f
                                 in facts("hardy.direct_best_constant")),
        "cone.split_s": total("cone.cone_split"),
        "cone.local_majorant_s": total("cone.local_majorant"),
        "cone.local_majorant_calls": calls("cone.local_majorant"),
        "cone.seminorm_s": sum(dur[i] for i in range(len(spans))
                               if name[i] == "norms.gradient_seminorm"
                               and in_split(i)),
        "cone.cubes": sum(f["cubes"] for f in facts("cone.cone_split")),
    })
    return m
