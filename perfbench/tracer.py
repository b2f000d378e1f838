"""Outside-in tracer: spans and work counts around calls into `lunes`.

Nothing in the package changes.  `install` replaces public functions of the
lunes modules, four methods and the Qhull / SLSQP entry points with
wrappers, and `uninstall` puts the originals back.  A function is replaced in
every lunes namespace that binds it, so a call from one module into another
(wulff calling metrics.thickness, metrics calling search.golden_max) is
caught under the name of the module that defines the function.

A span is [name, start, end, parent, op, failed]; spans stay in memory and
are summarised or written out once, when the run ends.  A span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, OP, FAILED = range(6)


# -- what is wrapped --------------------------------------------------------
# Counters run after a successful call with (tracer, result, *args, **kwargs)
# and derive work counts from the arguments.


def _golden_evals(tr, out, f, lo, hi, iters=48):
    elements = np.broadcast(np.atleast_1d(lo), np.atleast_1d(hi)).size
    tr.counts["search.golden_max.evals"] += elements * (2 * iters + 3)


def _dir_arcs(tr, out, arcs, dirs, mode="min"):
    tr.counts["body.support_extreme.dir_arcs"] += (
        np.atleast_2d(np.asarray(dirs)).shape[0] * arcs.count)


def _points(tr, out, arcs, s):
    tr.counts["body.point_at.points"] += np.size(s)


def _qhull_points(layer):
    def count(tr, out, points, *args, **kwargs):
        tr.counts[f"{layer}.qhull.points"] += len(points)
    return count


def _bytes_written(tr, out, body, path):
    tr.counts["io.bytes_written"] += os.path.getsize(path)


def _pairs(tr, out, a, b):
    tr.counts["wulff.hausdorff_polygons.pairs"] += len(a.vertices) * len(b.vertices)


def _angles(tr, out, shape, n=720):
    tr.counts["wulff.dual_wulff.angles"] += n


def _verdict(tr, out, *args, **kwargs):
    tr.note_verdict(out)


def _reduced(tr, out, body, tol=1e-6, n=720, max_probes=64):
    corners = len(tr.extreme_points(body).isolated)
    tr.counts["metrics.reduced_check.probes"] += min(corners, max_probes)
    tr.note_verdict(out)


def _report(tr, out, *args, **kwargs):
    for verdict in out.four_conditions.values():
        tr.note_verdict(verdict)


# (span name, module, attribute, counter): replaced in every lunes namespace
FUNCTIONS = [
    ("io.load_body", "io", "load_body", None),
    ("io.save_body", "io", "save_body", _bytes_written),
    ("io.report_to_doc", "io", "report_to_doc", None),
    ("construct.regular_odd_gon", "construct", "regular_odd_gon", None),
    ("construct.constant_diameter_odd_gon", "construct",
     "constant_diameter_odd_gon", None),
    ("construct.random_convex_polygon", "construct", "random_convex_polygon", None),
    ("search.golden_max", "search", "golden_max", _golden_evals),
    ("search.bisect_increasing", "search", "bisect_increasing", None),
    ("body.hull_from_points", "body", "hull_from_points", None),
    ("body.find_enclosing_center", "body", "find_enclosing_center", None),
    ("body.hausdorff_bodies", "body", "hausdorff_bodies", None),
    ("metrics.thickness", "metrics", "thickness", None),
    ("metrics.diameter", "metrics", "diameter", None),
    ("metrics.width_at", "metrics", "width_at", None),
    ("metrics.is_constant_width", "metrics", "is_constant_width", _verdict),
    ("metrics.is_constant_diameter", "metrics", "is_constant_diameter", _verdict),
    ("metrics.reduced_check", "metrics", "reduced_check", _reduced),
    ("metrics.classify", "metrics", "classify", None),
    ("wulff.project_to_plane", "wulff", "project_to_plane", None),
    ("wulff.induce_spherical", "wulff", "induce_spherical", None),
    ("wulff.wulff_shape", "wulff", "wulff_shape", None),
    ("wulff.dual_wulff", "wulff", "dual_wulff", _angles),
    ("wulff.hausdorff_polygons", "wulff", "hausdorff_polygons", _pairs),
    ("wulff.self_dual_equivalence_report", "wulff",
     "self_dual_equivalence_report", _report),
]

# (span name, module, class, attribute, counter): replaced on the class
METHODS = [
    ("body.SphericalBody", "body", "SphericalBody", "__init__", None),
    ("body.BoundarySegment", "body", "BoundarySegment", "__post_init__", None),
    ("body.support_extreme", "body", "_Arcs", "support_extreme", _dir_arcs),
    ("body.point_at", "body", "_Arcs", "point_at", _points),
]

# (span name, module, attribute, counter): replaced in that module only,
# because the same scipy object is bound in several modules
LOCAL_NAMES = [
    ("body.qhull", "body", "ConvexHull", _qhull_points("body")),
    ("body.slsqp", "body", "minimize", None),
    ("wulff.qhull", "wulff", "ConvexHull", _qhull_points("wulff")),
]

# numeric kernels that do not raise get no `.fail` metric
INFALLIBLE = {"search.golden_max", "body.support_extreme", "body.point_at",
              "body.slsqp"}

SPANS = ([s[0] for s in FUNCTIONS] + [s[0] for s in METHODS]
         + [s[0] for s in LOCAL_NAMES])

# work counts, reported per operation
COUNTS = ["io.bytes_written", "search.golden_max.evals",
          "body.segments_validated", "body.support_extreme.dir_arcs",
          "body.point_at.points", "body.qhull.points", "body.slsqp_fallbacks",
          "metrics.reduced_check.probes", "wulff.dual_wulff.angles",
          "wulff.hausdorff_polygons.pairs", "wulff.qhull.points"]

# ratios, not divided by the operation count
RATIOS = ["construct.redraw_ratio", "metrics.worst_dev_ratio"]

COUNT_UNITS = {"io.bytes_written": "B/op"}


def metric_catalog() -> list[tuple[str, str]]:
    """(name, unit) of every metric `summarize` returns, in report order."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count/op"))
        out.append((f"{span}.self_s", "s/op"))
        if span not in INFALLIBLE:
            out.append((f"{span}.fail", "count/op"))
    out += [(name, COUNT_UNITS.get(name, "count/op")) for name in COUNTS]
    out += [(name, "ratio") for name in RATIOS]
    return out


class Tracer:
    """Span and count store for one traced run; records while installed."""

    def __init__(self, extreme_points=None):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.worst_dev_ratio = 0.0
        self.op = -1
        self.missing: list[str] = []
        self.extreme_points = extreme_points
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, fn, args, kwargs, count):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            try:
                count(self, out, *args, **kwargs)
            except Exception:  # a refactored signature must not fail the call
                self._miss(f"{name} count")
        return out

    def _miss(self, target: str):
        if target not in self.missing:
            self.missing.append(target)

    def note_verdict(self, verdict):
        if verdict.passed and verdict.tolerance > 0:
            self.worst_dev_ratio = max(self.worst_dev_ratio,
                                       verdict.deviation / verdict.tolerance)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return wrapper

    def install(self):
        """Wrap every target that the imported lunes package defines.

        A target the package no longer has is listed in `missing` and its
        metrics stay 0, so the benchmark keeps running across refactors.
        `uninstall` puts every original back, so the pair can be repeated
        around each traced operation.
        """
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "lunes" or key.startswith("lunes."))]

        def module(short):
            return sys.modules.get(f"lunes.{short}")

        for name, mod, attr, count in FUNCTIONS:
            orig = getattr(module(mod), attr, None)
            if orig is None:
                self._miss(name)
                continue
            wrapper = self._wrap(name, orig, count)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._replace(m, key, wrapper)
        for name, mod, cls_name, attr, count in METHODS:
            cls = getattr(module(mod), cls_name, None)
            if cls is None or attr not in vars(cls):
                self._miss(name)
                continue
            self._replace(cls, attr, self._wrap(name, vars(cls)[attr], count))
        for name, mod, attr, count in LOCAL_NAMES:
            m = module(mod)
            orig = getattr(m, attr, None)
            if orig is None:
                self._miss(name)
                continue
            self._replace(m, attr, self._wrap(name, orig, count))

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Every metric of `metric_catalog`, per operation where it is a count."""
        spans = self.spans
        selfs = self_times(spans)
        calls: defaultdict[str, int] = defaultdict(int)
        fails: defaultdict[str, int] = defaultdict(int)
        busy: defaultdict[str, float] = defaultdict(float)
        for rec, own in zip(spans, selfs):
            calls[rec[NAME]] += 1
            fails[rec[NAME]] += rec[FAILED]
            busy[rec[NAME]] += own

        def parent_name(rec):
            return spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None

        counts = dict(self.counts)
        counts["body.segments_validated"] = calls["body.BoundarySegment"]
        counts["body.slsqp_fallbacks"] = len(
            {rec[PARENT] for rec in spans if rec[NAME] == "body.slsqp"
             and parent_name(rec) == "body.find_enclosing_center"})
        draws = sum(1 for rec in spans if rec[NAME] == "body.hull_from_points"
                    and parent_name(rec) == "construct.random_convex_polygon")
        built = calls["construct.random_convex_polygon"] \
            - fails["construct.random_convex_polygon"]
        ratios = {"construct.redraw_ratio": draws / built if built else 0.0,
                  "metrics.worst_dev_ratio": self.worst_dev_ratio}

        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name, _ in metric_catalog():
            span, _, part = name.rpartition(".")
            if name in ratios:
                out[name] = ratios[name]
            elif name in COUNTS:
                out[name] = counts.get(name, 0) * per_op
            elif part == "calls":
                out[name] = calls[span] * per_op
            elif part == "self_s":
                out[name] = busy[span] * per_op
            else:
                out[name] = fails[span] * per_op
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span), so overlapping or straddling children are not
    subtracted twice."""
    kids: list[list[tuple[float, float]]] = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            kids[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec, intervals in zip(spans, kids):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        run_lo = run_hi = None
        for a, b in sorted(intervals):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out
