"""Width, thickness, diameter and shape verdicts for spherical convex bodies.

The width of a body relative to a supporting hemisphere K is the smallest
thickness of a lune K intersect K' over the other supporting hemispheres K';
the thickness is the minimum width and the diameter the largest point-pair
distance.  Everything rests on one exact primitive: the farthest point of an
arc-bounded curve from a point p is where p . x is smallest, which has a
closed form on every circular arc.  A width is pi minus the farthest
distance along the supporting-center curve (the polar dual boundary); the
diameter of a curve takes one golden-section search over the first point
with the farthest partner exact; the thickness is pi minus the diameter of
the supporting-center curve.  Every returned width is evaluated from its
lune's semicircle midpoints and cross-checked against the closed form
pi - dist(centers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from .body import SphericalBody
from .errors import ConsistencyError, InvalidResolution, NotSupporting
from .search import golden_max
from .sphere import Hemisphere, dist, lune_make, normalize

HALF_PI = 0.5 * math.pi
SUPPORT_TOL = 1e-8       # |min dot| beyond this means "not a supporting hemisphere"
CROSS_CHECK_TOL = 1e-8   # agreement between definition-based and dual-form widths
VERTEX_AGREE_TOL = 1e-9  # polygon diameter vs vertex-pair enumeration
MAX_PROBES = 64          # reduced_check probes at most this many corners

# (value, p, q) of _curve_diameter per arc table and resolution
_DIAMETERS: WeakKeyDictionary = WeakKeyDictionary()


@dataclass
class WidthSample:
    """Width of the body seen from one supporting hemisphere."""

    support_center: np.ndarray
    width: float
    opposing_center: np.ndarray


@dataclass
class ThicknessResult:
    value: float
    witness: WidthSample


@dataclass
class DiameterResult:
    value: float
    p: np.ndarray
    q: np.ndarray


@dataclass
class Verdict:
    """Outcome of a tolerance-gated property check."""

    kind: str
    passed: bool
    deviation: float
    tolerance: float
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pass": bool(self.passed),
                "deviation": float(self.deviation),
                "tolerance": float(self.tolerance),
                "witness": _jsonable(self.witness)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [float(x) for x in np.asarray(obj).ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _resolution(n) -> int:
    """The sample count n as an int; counts below 1 are rejected."""
    if not n >= 1:
        raise InvalidResolution(f"sample count must be at least 1, got {n!r}")
    return int(n)


def _samples(arcs, n):
    return arcs.sample_points(max(_resolution(n), arcs.count, 8))


def _farthest(arcs, pts) -> np.ndarray:
    """Exact distance from each point to the farthest point of the curve.

    Measured to the point where the support minimum is attained rather than
    as arccos(minimum), which loses digits at distances near 0 and pi.
    """
    _, params = arcs.support_min_at(pts)
    return dist(pts, arcs.point_at(params))


def _curve_diameter(arcs, n):
    """Largest distance between two points of a closed arc curve.

    Every sample's farthest partner is exact (the per-arc closed form of
    the support minimum), so one golden-section search over the first point,
    around the best sample, settles the diameter.  Returns (value, p, q)
    with dist(p, q) = value.  The result is computed once per curve and
    resolution and kept while the arc table, which never changes, lives;
    p and q are read-only.
    """
    key = _resolution(n)
    memo = _DIAMETERS.setdefault(arcs, {})
    if key not in memo:
        memo[key] = _refined_diameter(arcs, key)
    return memo[key]


def _refined_diameter(arcs, n):
    params, pts = _samples(arcs, n)
    near = arcs.support_extreme(pts)
    i = int(np.argmin(near))
    bracket = 2.0 * arcs.total / len(params)

    def f(s):
        return -arcs.support_extreme(arcs.point_at(s))

    s, v = golden_max(f, params[i] - bracket, params[i] + bracket)
    if -v[0] > near[i]:  # the refinement never ends below the best sample
        s = params[i:i + 1]
    p = arcs.point_at(s)[0]
    _, t = arcs.support_min_at(p)
    q = arcs.point_at(t)[0]
    p.flags.writeable = q.flags.writeable = False
    return float(dist(p, q)), p, q


def _checked_width(k, kp) -> float:
    """Lune thickness from the semicircle midpoints, cross-checked against
    the closed form pi - dist(centers)."""
    lune = lune_make(Hemisphere(k), Hemisphere(kp))
    alt = math.pi - float(dist(k, kp))
    if abs(lune.thickness - alt) > CROSS_CHECK_TOL:
        raise ConsistencyError(
            f"lune thickness {lune.thickness!r} vs closed form {alt!r}")
    return lune.thickness


def width_at(body: SphericalBody, support_center, n: int = 720) -> WidthSample:
    """Width of the body relative to the supporting hemisphere H(support_center).

    The narrowest lune through H(support_center) pairs it with the supporting
    center farthest from support_center, which the closed-form support
    minimum over the supporting-center curve gives exactly; n (at least 1)
    is validated like every metric's resolution but not needed.  The lune
    thickness is checked against the closed form pi - dist(centers).
    """
    _resolution(n)
    k = normalize(np.asarray(support_center, dtype=float))
    margin = float(body.support_min(k)[0])
    if abs(margin) > SUPPORT_TOL:
        raise NotSupporting(f"support minimum {margin:.3g} is not zero")
    arcs = body.dual_arcs
    _, t = arcs.support_min_at(k)
    opposing = arcs.point_at(t)[0]
    width = _checked_width(k, opposing)
    return WidthSample(support_center=k, width=width, opposing_center=opposing)


def thickness(body: SphericalBody, n: int = 720) -> ThicknessResult:
    """Minimal width over all supporting hemispheres.

    Equals pi minus the diameter of the supporting-center curve (the polar
    dual boundary), computed from n samples with exact farthest partners
    and one golden-section search; the witness lune is evaluated from its
    semicircle midpoints and checked against pi - dist(centers).
    """
    _, k, kp = _curve_diameter(body.dual_arcs, n)
    width = _checked_width(k, kp)
    return ThicknessResult(value=width, witness=WidthSample(k, width, kp))


def diameter(body: SphericalBody, n: int = 720) -> DiameterResult:
    """Largest distance between two points of the body.

    Attained on the boundary; computed from n boundary samples with exact
    farthest partners and one golden-section search.  For polygons with
    diameter at most pi/2 the result is checked against exhaustive
    vertex-pair enumeration.
    """
    val, p, q = _curve_diameter(body.arcs, n)
    if body.is_polygon and val <= HALF_PI + 1e-8:
        # the farthest vertex pair is the one with the smallest dot product
        verts = body.vertices
        i, j = np.unravel_index(np.argmin(verts @ verts.T), (len(verts),) * 2)
        vmax = float(dist(verts[i], verts[j]))
        if abs(val - vmax) > VERTEX_AGREE_TOL:
            raise ConsistencyError(
                f"sampled diameter {val!r} vs vertex enumeration {vmax!r}")
    return DiameterResult(value=val, p=p, q=q)


def is_constant_width(body: SphericalBody, tol: float = 1e-6, n: int = 720) -> Verdict:
    """Whether the widths at n supporting centers are constant within tol."""
    arcs = body.dual_arcs
    _, centers = _samples(arcs, n)
    widths = math.pi - _farthest(arcs, centers)
    i_min = int(np.argmin(widths))
    i_max = int(np.argmax(widths))
    deviation = float(widths[i_max] - widths[i_min])
    witness = {"w_min": widths[i_min], "w_max": widths[i_max],
               "w_mean": float(widths.mean()),
               "argmin_center": centers[i_min], "argmax_center": centers[i_max]}
    return Verdict(kind="constant_width", passed=deviation <= tol,
                   deviation=deviation, tolerance=tol, witness=witness)


def is_constant_diameter(body: SphericalBody, tol: float = 1e-6,
                         n: int = 720) -> Verdict:
    """Whether every boundary point has a partner at the full diameter.

    Fails (with the worst point as witness) when some of n boundary samples
    has its farthest partner short of the diameter by more than tol.
    """
    diam = diameter(body, n).value
    arcs = body.arcs
    _, pts = _samples(arcs, n)
    far = _farthest(arcs, pts)
    shortfall = diam - far
    i_worst = int(np.argmax(shortfall))
    deviation = max(0.0, float(shortfall[i_worst]))
    witness = {"delta": diam, "worst_point": pts[i_worst],
               "worst_partner_distance": float(far[i_worst])}
    return Verdict(kind="constant_diameter", passed=deviation <= tol,
                   deviation=deviation, tolerance=tol, witness=witness)


def reduced_check(body: SphericalBody, tol: float = 1e-6, n: int = 720) -> Verdict:
    """Necessary-condition screen for reducedness (heuristic, two parts).

    For each isolated extreme point e: (a) search for a lune of thickness
    equal to the body's thickness that contains the body with e at the
    midpoint of one bounding semicircle; (b) verify that slicing off a cap of
    depth 10*tol at e lowers the thickness by more than tol.  Bodies without
    isolated extreme points pass vacuously.  Bodies with more than MAX_PROBES
    corners are probed on an evenly spaced subset.  A failing verdict reports
    the worst probed corner, so with every corner probed it does not depend
    on where the boundary starts.
    """
    _resolution(n)
    corner_idx = body.corners
    if not len(corner_idx):
        return Verdict(kind="reduced_necessary", passed=True, deviation=0.0,
                       tolerance=tol, witness={"note": "boundary is smooth"})
    if len(corner_idx) > MAX_PROBES:
        sel = np.linspace(0, len(corner_idx) - 1, MAX_PROBES).astype(int)
        corner_idx = corner_idx[np.unique(sel)]
    thick = thickness(body, n).value
    dual = body.dual_arcs
    corners = body.vertices[corner_idx]
    # hemisphere centers supporting at corner e form a great arc about e (a
    # dual junction arc), dual parameters lo..hi
    rows = body._corner_row[corner_idx]
    lo, hi = dual.cum[rows], dual.cum[rows + 1]

    # (b) cap-cutting probe: removing depth d at corner e intersects the body
    # with a hemisphere whose center joins the dual; the new thickness is
    # pi - max(dual diameter, max dist from that center to the dual curve).
    # The cut tilts toward the corner's bisecting supporting center, the
    # midpoint of its dual arc, so the probe depends on the boundary alone.
    depth = 10.0 * tol
    mid = dual.point_at(0.5 * (lo + hi))
    w_dir = normalize(mid - np.sum(corners * mid, axis=1)[:, None] * corners)
    cut_centers = -math.sin(depth) * corners + math.cos(depth) * w_dir
    drops = _farthest(dual, cut_centers) - (math.pi - thick)
    i = int(np.argmin(drops))
    if drops[i] <= tol:
        return Verdict(kind="reduced_necessary", passed=False,
                       deviation=float(max(0.0, tol - drops[i])), tolerance=tol,
                       witness={"mode": "cap_cut", "corner": corners[i],
                                "thickness_drop": float(drops[i])})

    # (a) lune search: pairing each supporting center on e's dual arc with
    # the center at angle pi - thickness through e yields every candidate
    # lune with e at a semicircle midpoint.  The lune contains the body iff
    # the partner center's support minimum is nonnegative.  All corners are
    # scanned and refined together.
    cos_t, sin_t = math.cos(thick), math.sin(thick)
    n_scan = 33
    phis = np.linspace(lo, hi, n_scan, axis=1)
    cand = -cos_t * dual.point_at(phis.ravel()) + sin_t * np.repeat(corners, n_scan, axis=0)
    jb = np.argmax(body.support_min(cand).reshape(len(rows), n_scan), axis=1)
    start = phis[np.arange(len(rows)), jb]
    span = (hi - lo) / (n_scan - 1)

    def f(phi):
        c = -cos_t * dual.point_at(np.clip(phi, lo, hi)) + sin_t * corners
        return body.support_min(c)

    _, best = golden_max(f, start - span, start + span)
    i = int(np.argmin(best))
    if best[i] < -tol:
        return Verdict(kind="reduced_necessary", passed=False,
                       deviation=float(-best[i]), tolerance=tol,
                       witness={"mode": "lune_search", "corner": corners[i],
                                "support_margin": float(best[i])})
    return Verdict(kind="reduced_necessary", passed=True, deviation=0.0,
                   tolerance=tol,
                   witness={"probes": len(corner_idx),
                            "worst_support_margin": float(best[i])})


@dataclass
class ClassifyReport:
    """Bundle of metric results plus derived relations between them."""

    thickness: ThicknessResult
    diameter: DiameterResult
    constant_width: Verdict
    constant_diameter: Verdict
    reduced: Verdict
    checks: dict


def classify(body: SphericalBody, tol: float = 1e-6, n: int = 720) -> ClassifyReport:
    """Measure the body and evaluate the standard width/diameter relations.

    checks (True means the relation holds, vacuously when its hypothesis does
    not apply):
      thickness_le_diameter: thickness <= diameter always.
      halfpi_sign_agreement: for reduced bodies, thickness and diameter fall
        on the same side of pi/2.
      thickness_equals_diameter_above_halfpi: reduced bodies at least pi/2
        thick have thickness == diameter.
      constant_width_above_halfpi: reduced bodies with diameter >= pi/2 are
        constant-width.
    """
    th = thickness(body, n)
    dm = diameter(body, n)
    cw = is_constant_width(body, tol=tol, n=n)
    cd = is_constant_diameter(body, tol=tol, n=n)
    red = reduced_check(body, tol=tol, n=n)
    s1 = th.value - HALF_PI
    s2 = dm.value - HALF_PI
    sign_agree = (s1 >= -tol and s2 >= -tol) or (s1 <= tol and s2 <= tol)
    checks = {
        "thickness_le_diameter": bool(th.value <= dm.value + tol),
        "halfpi_sign_agreement": bool((not red.passed) or sign_agree),
        "thickness_equals_diameter_above_halfpi": bool(
            (not (red.passed and th.value >= HALF_PI - tol))
            or abs(th.value - dm.value) <= tol),
        "constant_width_above_halfpi": bool(
            (not (red.passed and dm.value >= HALF_PI - tol)) or cw.passed),
    }
    return ClassifyReport(thickness=th, diameter=dm, constant_width=cw,
                          constant_diameter=cd, reduced=red, checks=checks)
