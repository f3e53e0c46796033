"""Layer spans for umbilic, recorded from outside the package.

``Tracer.install`` replaces each layer's public callables by recording
wrappers, wherever callers look them up: a function imported by value into
another module (``from .cartan import cartan_r``) is replaced in every
umbilic module that holds it, methods are replaced once on their class, and
the CLI runners are replaced in ``cli._RUNNERS``.  ``uninstall`` restores
the originals.  The package's source is never modified.

A span is ``[name, start, end, parent, job, work, raised]``: ``parent`` is
the index of the enclosing span (or -1), ``work`` a size measured at the
boundary (points evaluated, bytes computed, term pairs, clusters found).
Spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its direct children (children never overlap: the
program is single threaded).
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

PACKAGE_MODULES = ("field", "series", "cartan", "index", "loewner", "torussearch", "cli")

# span name -> (module, function); wrapped in every module that imports it
FUNCTIONS = {
    "cartan.cartan_r": ("cartan", "cartan_r"),
    "cartan.cross_form": ("cartan", "cartan_r_all_forms"),
    "cartan.spherical_test": ("cartan", "spherical_test"),
    "index.locate_zero_cells": ("index", "locate_zero_cells"),
    "index.refine_cluster_residual": ("index", "refine_cluster_residual"),
    "index.umbilic_index": ("index", "umbilic_index"),
    "index.torus_umbilics": ("index", "torus_umbilics"),
    "index.sphere_two_chart_umbilics": ("index", "sphere_two_chart_umbilics"),
    "torussearch.objective": ("torussearch", "min_modulus_objective"),
    "torussearch.search": ("torussearch", "torus_search"),
    "torussearch.obstruction": ("torussearch", "symmetric_obstruction_check"),
    "loewner.solve": ("loewner", "loewner_solve"),
    "loewner.tm_matrix": ("loewner", "tm_matrix"),
    "loewner.residual": ("loewner", "curved_hessian_residual"),
    "cli.main": ("cli", "main"),
}


def _points(obj, pts, *_args, **_kw):
    return int(np.size(pts))


def _product_bytes(obj, _other):
    # three padded (2n)^2 complex resamples per dealiased product
    return 3 * (2 * obj.n) ** 2 * 16


def _term_pairs(obj, other, *_args, **_kw):
    return len(obj.coeffs) * len(other.coeffs)


# (span name, module, class, method, work measured from the arguments)
METHODS = (
    ("field.evaluate_st", "field", "PeriodicField", "evaluate_st", _points),
    ("field.derivative", "field", "PeriodicField", "derivative", None),
    ("field.mul", "field", "PeriodicField", "mul", _product_bytes),
    ("field.chart_derivative", "field", "ChartGrid", "derivative", None),
    ("field.chart_eval", "field", "ChartGrid", "evaluate_at", _points),
    ("field.chart_eval", "field", "ChartGrid", "evaluate_st", _points),
    ("series.mul", "series", "PowerSeries2", "mul", _term_pairs),
    ("series.derivative", "series", "PowerSeries2", "derivative", None),
)

# names that callers of the traced layers must see wrapped (checked by the self-test)
REQUIRED_SITES = (
    ("index", "cartan_r"), ("torussearch", "cartan_r"),
    ("torussearch", "locate_zero_cells"), ("torussearch", "min_modulus_objective"),
    ("cli", "torus_umbilics"), ("cli", "loewner_solve"),
    ("cli", "symmetric_obstruction_check"), ("cli", "torus_search"),
    ("cli", "cartan_r_all_forms"), ("cli", "sphere_two_chart_umbilics"),
)


def _clusters_by_kind(clusters):
    return {"point": sum(c.kind == "point" for c in clusters),
            "curve": sum(c.kind != "point" for c in clusters)}


class Tracer:
    """Records spans while installed; one instance per worker process."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn, arg_work=None, result_work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if arg_work is not None:
                rec[5] = arg_work(*args, **kwargs)
            elif result_work is not None:
                rec[5] = result_work(result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"umbilic.{m}") for m in PACKAGE_MODULES}
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(mods[mod], attr)
            result_work = _clusters_by_kind if name == "index.locate_zero_cells" else None
            wrapped = self._wrap(name, orig, result_work=result_work)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for name, mod, cls_name, meth, work in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, meth, self._wrap(name, vars(cls)[meth], arg_work=work))
        runners = mods["cli"]._RUNNERS
        for op, fn in list(runners.items()):
            self._restore.append((runners, op, fn))
            runners[op] = self._wrap(f"cli.{op}", fn)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()


# per span name; inner_points counts evaluate_st points issued inside the span
EMPTY_STATS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "raised": 0,
               "point": 0, "curve": 0, "inner_points": 0}


def span_stats(spans) -> dict:
    """Per span name: calls, total_s (outermost spans of the name only),
    self_s, summed work, raised count and clusters by kind; for
    index.locate_zero_cells also the points evaluated inside it.  The
    numbers add up across workers (see merge_stats)."""
    child = [0.0] * len(spans)
    in_lzc = [False] * len(spans)
    stats: dict = {}
    lzc_points = 0
    for i, (name, t0, t1, parent, _job, work, raised) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        outermost = p < 0
        if parent >= 0:
            child[parent] += t1 - t0
            in_lzc[i] = in_lzc[parent] or spans[parent][0] == "index.locate_zero_cells"
        st = stats.setdefault(name, dict(EMPTY_STATS))
        st["calls"] += 1
        st["total_s"] += (t1 - t0) if outermost else 0.0
        st["raised"] += raised
        if isinstance(work, dict):
            st["point"] += work["point"]
            st["curve"] += work["curve"]
        elif work is not None:
            st["work"] += work
            if in_lzc[i] and name == "field.evaluate_st":
                lzc_points += work
    # a child follows its parent in the list, so self time needs a second pass
    for i, (name, t0, t1, *_rest) in enumerate(spans):
        stats[name]["self_s"] += (t1 - t0) - child[i]
    if lzc_points:
        stats["index.locate_zero_cells"]["inner_points"] = lzc_points
    return stats


def merge_stats(parts) -> dict:
    out: dict = {}
    for stats in parts:
        for name, st in stats.items():
            acc = out.setdefault(name, dict(EMPTY_STATS))
            for key, val in st.items():
                acc[key] += val
    return out


# per-layer metrics: span name -> statistics reported for it
_LAYER_SPANS = {
    "field.evaluate_st": ("calls", "points", "points_per_call", "self_s"),
    "field.derivative": ("calls", "self_s"),
    "field.mul": ("calls", "self_s", "bytes_computed"),
    "cartan.cartan_r": ("calls", "total_s", "self_s"),
    "cartan.cross_form": ("total_s",),
    "cartan.spherical_test": ("total_s",),
    "index.locate_zero_cells": ("calls", "total_s", "self_s"),
    "index.refine_cluster_residual": ("calls", "total_s"),
    "index.umbilic_index": ("calls", "total_s", "raised"),
    "index.torus_umbilics": ("total_s",),
    "index.sphere_two_chart_umbilics": ("total_s",),
    "field.chart_derivative": ("calls", "self_s"),
    "field.chart_eval": ("calls", "points", "self_s"),
    "torussearch.objective": ("calls", "total_s", "self_s"),
    "torussearch.search": ("self_s",),
    "torussearch.obstruction": ("total_s", "self_s"),
    "loewner.solve": ("calls", "total_s", "self_s", "raised"),
    "loewner.tm_matrix": ("calls", "total_s"),
    "loewner.residual": ("total_s",),
    "series.mul": ("calls", "self_s", "term_pairs"),
    "series.derivative": ("calls", "self_s"),
    "cli.main": ("self_s",),
    **{f"cli.{op}": ("total_s",) for op in
       ("invariant", "umbilics", "ph-audit", "loewner", "search", "obstruction")},
}
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "raised": "count",
          "points": "count", "points_per_call": "count", "bytes_computed": "B",
          "term_pairs": "count"}
_WORK_STATS = ("points", "bytes_computed", "term_pairs")

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {f"{span}.{stat}": _UNITS[stat]
                 for span, stats in _LAYER_SPANS.items() for stat in stats}
LAYER_METRICS.update({"index.clusters.point": "count", "index.clusters.curve": "count",
                      "index.points_per_cluster": "count", "trace.overhead_ratio": "ratio"})


def layer_metrics(stats: dict, traced_rounds: int, overhead_ratio: float) -> dict:
    """Per-layer metrics as amounts per traced round (one pass over a job
    list); ratios are taken over the whole traced run."""
    lz = stats.get("index.locate_zero_cells", EMPTY_STATS)
    found = lz["point"] + lz["curve"]
    out = {"index.clusters.point": lz["point"] / traced_rounds,
           "index.clusters.curve": lz["curve"] / traced_rounds,
           "index.points_per_cluster": lz["inner_points"] / found if found else 0.0,
           "trace.overhead_ratio": overhead_ratio}
    for metric in LAYER_METRICS:
        if metric in out:
            continue
        span, _, stat = metric.rpartition(".")
        st = stats.get(span, EMPTY_STATS)
        if stat == "points_per_call":
            out[metric] = st["work"] / st["calls"] if st["calls"] else 0.0
        else:
            out[metric] = st["work" if stat in _WORK_STATS else stat] / traced_rounds
    return {metric: out[metric] for metric in LAYER_METRICS}
