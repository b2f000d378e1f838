"""Width, thickness, diameter and shape verdicts for spherical convex bodies.

The width of a body relative to a supporting hemisphere K is the smallest
thickness of a lune K intersect K' over the other supporting hemispheres K';
the thickness is the minimum width and the diameter the largest point-pair
distance.  Everything rests on one exact primitive: the farthest point of an
arc-bounded curve from a point p is where p . x is smallest, which has a
closed form on every circular arc.  A width is pi minus the farthest
distance along the supporting-center curve (the polar dual boundary); the
thickness is pi minus the diameter of that curve.  A curve's samples and
their exact farthest distances form one profile per resolution, which the
diameter, the constant-width and constant-diameter verdicts and the arc
screen of reduced_check share; on a
curve of many arcs the profile walks the curve, searching each sample only
between the farthest points of two coarse samples (body._Arcs.sample_far).
A polygon's diameter is its profile's best sample: it has a vertex at one
end, and the profile holds every vertex.  The diameter of any other curve
is its best sample too when that sample's own one-sided slopes show it is
the maximum; otherwise it, and the lune search of reduced_check, refine a
best sample by tangent-line steps on its exact value and slope (the
envelope theorem).
Every returned width is evaluated from its lune's semicircle midpoints and
cross-checked against the closed form pi - dist(centers).  A polygon
thinner than pi/2 is reduced or not by a closed form; any other body takes
a numerical screen at its extreme points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .body import HALF_PI, SphericalBody
from .errors import ConsistencyError, InvalidResolution, InvalidSpec, NotSupporting
from .sphere import cross, dist, dot, lune_make, norm, normalize

SUPPORT_TOL = 1e-8       # |min dot| beyond this means "not a supporting hemisphere"
CROSS_CHECK_TOL = 1e-8   # agreement between definition-based and dual-form widths
MAX_PROBES = 64          # reduced_check probes at most this many corners
_SCAN = (3, 33)          # lune-search samples per probed corner: fewest, most
_ARG_TOL = 1e-12         # _climb stops at brackets this narrow (arc length)
_FLAT = 1e-14            # _climb reads slopes this small as zero (roundoff)
# a deviation's roundoff: two angles near pi/2 (or cotangents near 1), each
# a few ulps off, differ by at most 32 ulps of pi/2 (7.1e-15)
_ROUNDOFF = 32 * math.ulp(HALF_PI)


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


def _tolerance(tol) -> None:
    """Rejects a NaN or negative verdict tolerance tol."""
    if not tol >= 0.0:
        raise InvalidSpec(f"tolerance must be at least 0, got {tol!r}")


def _profile(arcs, n):
    """(params, points, farthest distances, farthest points) of max(n, arc
    count, 8) samples of the curve (every junction among them), read-only,
    computed once per arc table and resolution by the walk of sample_far:
    the diameter and both verdicts read it."""
    n = _resolution(n)

    def compute():
        params, pts, far = arcs.sample_far(max(n, arcs.count, 8))
        out = (params, pts, dist(pts, far), far)
        for a in out:
            a.flags.writeable = False
        return out
    return arcs.memo(("profile", n), compute)


def _climb(fn, grid, j, val, g):
    """Per row of an increasing grid, the best point evaluated, and its value,
    in climbing from s = grid[row, j[row]] to a local maximum of a function
    with exact (value, slope) = fn(s, rows) on the given rows of the grid;
    the caller's scan or profile gives s's (val, g).  Unless s's one-sided
    slopes make it the maximum, s and a neighbour bracket it, and a step
    goes where the ends' tangents, bent by their branch's curvature, cross
    (exact on two straight branches) or to a bent tangent's vertex (a smooth
    maximum), then across by _ARG_TOL / 2, 1000 times more after a step that
    stays on its side, until the bracket is below _ARG_TOL or a slope below
    _FLAT, fn seeing only the rows that may still climb."""
    rows, last = np.arange(len(grid)), grid.shape[1] - 1
    x, prev, nxt = (grid[rows, np.minimum(np.maximum(j + d, 0), last)] for d in (0, -1, 1))
    rise = (g > _FLAT) & (nxt > x)
    live, ask = rise.copy(), np.flatnonzero(~rise & (prev < x))
    if len(ask):
        live[ask] = fn(np.nextafter(x[ask], -np.inf), ask)[1] < -_FLAT
    if not live.any():
        return x, val
    # bracket ends: point, value, slope, curvature; settled rows' are not used
    on, near = np.flatnonzero(live), (x, val, g, 0 * x)
    far = (np.where(rise, nxt, prev), val.copy(), g.copy(), 0 * x)
    far[1][on], far[2][on] = fn(far[0][on], on)
    lo, hi = ([np.where(rise, p, q) for p, q in zip(*e)] for e in ((near, far), (far, near)))
    best, f, step = x, val, np.full_like(x, 0.5 * _ARG_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        while (live := live & (hi[0] - lo[0] > _ARG_TOL)).any():
            (a, f_a, g_a, k_a), (b, f_b, g_b, k_b) = lo, hi
            c = a + (f_b - f_a - (b - a) * g_b) / (g_a - g_b)
            u, v = c - a, c - b
            c -= 0.5 * (k_a * u * u - k_b * v * v) / (g_a - g_b + k_a * u - k_b * v)
            k_a, k_b = np.where(k_a == 0, k_b, k_a), np.where(k_b == 0, k_a, k_b)
            top = (np.where(k_a < 0, a - g_a / k_a, np.inf),
                   np.where(k_b < 0, b - g_b / k_b, -np.inf))
            c = np.fmin(np.fmax(c, np.minimum(*top)), np.maximum(*top))
            c = np.minimum(np.maximum(c, a), b)
            c += np.where(g > 0, 1.0, -1.0) * np.minimum(step, 0.5 * (b - a))
            x = np.where(live, np.minimum(np.maximum(c, a + 0.5 * _ARG_TOL), b - 0.5 * _ARG_TOL), x)
            was, f, g = g > 0, f.copy(), g.copy()
            f[live], g[live] = fn(x[live], np.flatnonzero(live))
            step = np.where((g > 0) == was, 1e3 * step, 0.5 * _ARG_TOL)
            best, val = (np.where(live & (f >= val), p, q) for p, q in ((x, best), (f, val)))
            rise, fall = live & (g > _FLAT), live & (g < -_FLAT)
            lo, hi = ([np.where(side, p, q) for p, q in zip((x, f, g, (g - e[2]) / (x - e[0])), e)]
                      for side, e in ((rise, lo), (fall, hi)))
            live &= rise | fall
    return best, val


def _curve_diameter(arcs, n):
    """Largest distance between two points of a closed arc curve.

    The farthest distance from p(s) grows with -p(s) . q*(s) (q* the exact
    farthest point), whose slope is -p'(s) . q*(s) by the envelope theorem
    (one-sided at a junction, from each arc's tangent); _climb follows both
    from the profile's best sample (the first tied with the best,
    _first_tied) and its farthest point q, unless that sample's own
    one-sided slopes, read off the profile with q, show it is the maximum
    (_settled): then it is p, with q, as on a polygon (every arc great).
    A climb starts from the sample's value with q and the right slope that
    _settled formed.
    There a diameter with neither end at a vertex would grow by moving its
    ends apart along their edges, so one end is a vertex, and the profile
    holds every vertex with its exact farthest point.  The slopes with q are
    the exact ones where the farthest point is unique; at a tie the
    farthest distance has a kink that is no strict maximum.  Returns
    (value, p, q) with dist(p, q) = value, never below that sample's to
    roundoff, once per curve and resolution; p and q read-only.
    """
    def fn(s, rows):
        p, tangent = arcs.tangent_at(s)
        q = arcs.far_point(p)
        return -dot(p, q), -dot(tangent, q)

    def compute():
        params, pts, far, far_pts = _profile(arcs, n)
        top = far.max()
        i = _first_tied(far, top, top)
        p, q = pts[i], far_pts[i]
        if (arcs.radii == HALF_PI).all():
            return float(dist(p, q)), p, q
        settled, slope = _settled(arcs, len(params), i, q)
        if not settled:
            grid = np.concatenate([params[-1:] - arcs.total, params, params[:1] + arcs.total])
            start = -dot(pts[i:i + 1], q), np.array([slope])
            p = arcs.point_at(_climb(fn, grid[None], np.array([i + 1]), *start)[0])[0]
            q = arcs.far_point(p)[0]
            p.flags.writeable = q.flags.writeable = False
        return float(dist(p, q)), p, q
    return arcs.memo(("diameter", _resolution(n)), compute)


class _Slopes(NamedTuple):
    """_settled's answer, true when the sample is a maximum, with the
    sample's slope to the right, where a climb from it starts."""

    settled: bool
    right: float

    def __bool__(self):
        return self.settled


def _settled(arcs, n, i, q) -> _Slopes:
    """Whether sample i of arcs.samples(n), with its farthest point q, is a
    maximum of -p . q* by its own one-sided slopes -tangent . q: to the right
    the tangent of its arc there; to the left the same, or at a junction
    (angle 0) the end tangent of the arc before (a lone full circle's own).
    The sample's arc and angle are those tangent_at finds for its parameter,
    so the right slope is the one a climb from the sample starts with."""
    _, arc, t, _ = arcs.samples(n)
    a, at = arc[i], t[i]
    before = (a - 1) % arcs.count
    back = (before, arcs.sweeps[before]) if at == 0.0 else (a, at)
    right, left = -dot(arcs._tangent(np.array([a, back[0]]), np.array([at, back[1]])), q)
    return _Slopes(bool(right <= _FLAT and left >= -_FLAT), right)


def _checked_width(k, kp) -> float:
    """Lune thickness from the semicircle midpoints, cross-checked against
    the closed form pi - dist(centers)."""
    lune = lune_make(k, kp)
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
    margin = float(body.arcs.support_extreme(k)[0])
    if abs(margin) > SUPPORT_TOL:
        raise NotSupporting(f"support minimum {margin:.3g} is not zero")
    opposing = body.dual_arcs.far_point(k)[0]
    width = _checked_width(k, opposing)
    return WidthSample(support_center=k, width=width, opposing_center=opposing)


def thickness(body: SphericalBody, n: int = 720) -> ThicknessResult:
    """Minimal width over all supporting hemispheres.

    Equals pi minus the diameter of the supporting-center curve (the polar
    dual boundary): its best profile sample of n, refined by tangent-line
    steps unless the curve is a polygon or the sample's own one-sided
    slopes show it is the maximum.  The witness lune is evaluated from
    its semicircle midpoints and checked against pi - dist(centers), once
    per dual table and resolution.
    """
    _, k, kp = _curve_diameter(body.dual_arcs, n)
    width = body.dual_arcs.memo(("thickness", _resolution(n)), lambda: _checked_width(k, kp))
    return ThicknessResult(value=width, witness=WidthSample(k, width, kp))


def diameter(body: SphericalBody, n: int = 720) -> DiameterResult:
    """Largest distance between two points of the body.

    Attained on the boundary: the best profile sample of n, refined by
    tangent-line steps unless the body is a polygon, whose diameter has a
    vertex at one end and so is the best sample exactly, or the sample's own
    one-sided slopes show it is the maximum (_curve_diameter).
    """
    val, p, q = _curve_diameter(body.arcs, n)
    return DiameterResult(value=val, p=p, q=q)


def _first_tied(x, best, scale) -> int:
    """The first index whose x lies within 64 ulps of scale of best: on a
    tied profile, a witness that roundoff in the values leaves in place."""
    return int(np.argmax(np.abs(x - best) <= 64 * np.spacing(scale)))


def is_constant_width(body: SphericalBody, tol: float = 1e-6, n: int = 720) -> Verdict:
    """Whether the widths at n profile centers are constant within tol.  The
    witnesses are the first centers tied with the extremes (_first_tied)."""
    _tolerance(tol)
    _, centers, far, _ = _profile(body.dual_arcs, n)
    widths = math.pi - far
    w_min, w_max = widths.min(), widths.max()
    deviation = float(w_max - w_min)
    witness = {"w_min": w_min, "w_max": w_max, "w_mean": float(widths.mean()),
               "argmin_center": centers[_first_tied(widths, w_min, w_max)],
               "argmax_center": centers[_first_tied(widths, w_max, w_max)]}
    return Verdict(kind="constant_width", passed=deviation <= tol,
                   deviation=deviation, tolerance=tol, witness=witness)


def is_constant_diameter(body: SphericalBody, tol: float = 1e-6,
                         n: int = 720) -> Verdict:
    """Whether every boundary point has a partner at the full diameter.

    Fails (with the worst point as witness) when some of the n profile
    samples has its farthest partner short of the diameter by more than tol.
    The worst point is the first sample tied with the shortest farthest
    distance, at the diameter's scale (_first_tied).
    """
    _tolerance(tol)
    diam = diameter(body, n).value
    _, pts, far, _ = _profile(body.arcs, n)
    worst = far.min()
    deviation = max(0.0, float(diam - worst))
    witness = {"delta": diam, "worst_point": pts[_first_tied(far, worst, diam)],
               "worst_partner_distance": float(worst)}
    return Verdict(kind="constant_diameter", passed=deviation <= tol,
                   deviation=deviation, tolerance=tol, witness=witness)


def _probed_corners(body: SphericalBody) -> np.ndarray:
    """The corners reduced_check probes: all of them, or the MAX_PROBES with
    the largest turn (the longest dual arcs), ties broken by the corner's
    coordinates, so the choice does not depend on where the boundary starts.
    Only the corners turning at least the MAX_PROBES-th largest are sorted."""
    idx = body.corners
    if len(idx) <= MAX_PROBES:
        return idx
    turns = body.dual_arcs.lengths[body._corner_row[idx]]
    top = turns >= np.partition(turns, -MAX_PROBES)[-MAX_PROBES]
    idx, turns = idx[top], turns[top]
    return idx[np.lexsort((*body.vertices[idx].T[::-1], -turns))[:MAX_PROBES]]


def _worst(dev, pts) -> int:
    """The index of the largest of dev, ties (64 ulps of pi) broken by the
    points' coordinates, so that where the boundary starts does not matter."""
    tied = np.flatnonzero(dev >= dev.max() - 64 * np.spacing(math.pi))
    return int(tied[np.lexsort(pts[tied].T[::-1])[0]])


def _closed_form(body: SphericalBody, thick: float, tol: float) -> Verdict:
    """Lassak's rule (Colloq. Math. 138, 2015) for a polygon thinner than
    pi/2: reduced exactly when it has 2k + 1 corners, each at distance thick
    from its opposite side (corner i + k to i + k + 1) with its foot inside
    that side.  Sides run corner to corner; the side after a corner lies on
    the circle of the next arc's center.  Modes: even_gon (deviation: the
    worst |distance to the opposite corner - thick|), vertex_distance and
    foot_outside (along the circle), each past tol, witness the worst corner."""
    first = (body.corners + 1) % len(body.radii)
    m, k = len(first), len(first) // 2
    # per row i: corner i, then the opposite corner, or side i's end and
    # the corner that faces it
    corners = body.starts[first[(np.arange(m)[:, None] + ((0, k) if m % 2 == 0
                                                          else (0, 1, k + 1))) % m]]
    if m % 2 == 0:
        start, far = corners.transpose(1, 0, 2)
        dev = np.abs(dist(start, far) - thick)
        i = _worst(dev, start)
        return Verdict(kind="reduced_necessary", passed=False, deviation=float(dev[i]),
                       tolerance=tol, witness={"mode": "even_gon", "corner": start[i],
                                               "corners": m, "opposite_corner": far[i]})
    start, end, v = corners.transpose(1, 0, 2)
    pole = body.centers[first]
    ahead = cross(pole, start)  # the side's direction at its start
    distance = np.arctan2(dot(v, pole), norm(cross(v, pole)))
    along = np.arctan2(dot(v, ahead), dot(v, start))
    outside = np.maximum(-along, along - np.arctan2(dot(end, ahead), dot(end, start)))
    excess = np.abs(distance - thick)
    for mode, dev in (("vertex_distance", excess), ("foot_outside", outside)):
        if dev.max() > tol:
            i = _worst(dev, v)
            return Verdict(kind="reduced_necessary", passed=False, deviation=float(dev[i]),
                           tolerance=tol,
                           witness={"mode": mode, "corner": v[i], "side_start": start[i],
                                    "side_end": end[i], "distance": float(distance[i]),
                                    "foot": math.cos(along[i]) * start[i]
                                    + math.sin(along[i]) * ahead[i]})
    return Verdict(kind="reduced_necessary", passed=True,
                   deviation=max(float(excess.max()), float(outside.max()), 0.0), tolerance=tol,
                   witness={"route": "closed_form", "corners": m,
                            "distance_excess": float(excess.max()),
                            "foot_outside": float(outside.max())})


def reduced_check(body: SphericalBody, tol: float = 1e-6, n: int = 720) -> Verdict:
    """Reducedness: decided in closed form for a polygon (every arc great)
    of thickness below pi/2 - tol, and below pi/2 by more than roundoff
    (_closed_form); a necessary-condition screen at every extreme point of
    any other body.

    Through each extreme point e of a reduced body passes a lune of the
    body's thickness that holds the body, with e at the midpoint of one
    bounding semicircle (Lassak, Aequationes Math. 89, 2015).  On an arc of
    radius below pi/2, every point is extreme with one supporting
    hemisphere, so the width there is the thickness: the arc screen fails
    (mode arc_width) when the widths at the dual profile's samples on the
    arcs' own pieces exceed the thickness by more than tol.  The corners
    then go to the probes (_corner_probes).  A failing verdict reports the
    worst sample or corner, so it does not depend on where the boundary
    starts; a passing one what it screened, or the route closed_form.
    """
    n = _resolution(n)
    _tolerance(tol)
    if body.is_polygon:
        thick = thickness(body, n).value
        if thick < HALF_PI - max(tol, _ROUNDOFF):  # a vertex off its side's pole
            return _closed_form(body, thick, tol)
    dual = body.dual_arcs
    screened = {}
    curved = dual.radii < HALF_PI
    if curved.any():
        params, centers, far, _ = _profile(dual, n)
        if not curved.all():  # leave out the samples on the corners' arcs
            on = curved[dual.samples(len(params))[1]]
            centers, far = centers[on], far[on]
        reach, least = _curve_diameter(dual, n)[0], float(far.min())
        excess = reach - least  # the largest width there less the thickness
        if excess > tol:
            k = centers[_first_tied(far, least, reach)]
            return Verdict(kind="reduced_necessary", passed=False, deviation=excess,
                           tolerance=tol,
                           witness={"mode": "arc_width", "point": body.arcs.far_point(k)[0],
                                    "support_center": k, "width": math.pi - least})
        screened = {"arc_samples": len(far), "arc_width_excess": excess}
    return _corner_probes(body, tol, n, screened)


def _corner_probes(body: SphericalBody, tol: float, n: int, screened=None) -> Verdict:
    """reduced_check's probes at each probed corner e (all, or the MAX_PROBES
    of largest turn, ties broken by position): (a) search for a lune of the
    body's thickness that holds the body with e at a semicircle midpoint
    (mode lune_search); (b) verify that slicing off a cap of depth
    min(10*tol, thickness/2) at e lowers the thickness by more than min(tol,
    thickness/20) (mode cap_cut), so every finite tol screens.  A pass
    carries the arc screen's figures (screened)."""
    screened = screened or {}
    dual = body.dual_arcs
    corner_idx = _probed_corners(body)
    if not len(corner_idx):
        return Verdict(kind="reduced_necessary", passed=True, deviation=0.0,
                       tolerance=tol, witness={"probes": 0, **screened})
    thick = thickness(body, n).value
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
    # Its depth and the drop it must make are bounded by the body: a cut
    # deeper than about twice the thickness no longer thins a reduced body.
    depth, need = min(10.0 * tol, 0.5 * thick), min(tol, 0.05 * thick)
    mid = dual.point_at(0.5 * (lo + hi))
    w_dir = normalize(mid - dot(corners, mid)[:, None] * corners)
    cut_centers = -math.sin(depth) * corners + math.cos(depth) * w_dir
    drops = dist(cut_centers, dual.far_point(cut_centers)) - (math.pi - thick)
    i = int(drops.argmin())
    if drops[i] <= need:
        return Verdict(kind="reduced_necessary", passed=False,
                       deviation=float(max(0.0, need - drops[i])), tolerance=tol,
                       witness={"mode": "cap_cut", "corner": corners[i],
                                "thickness_drop": float(drops[i])})

    # (a) lune search: pairing each supporting center d on e's dual arc with
    # c = -cos(thickness) d + sin(thickness) e, at angle pi - thickness through
    # e, yields every candidate lune with e at a semicircle midpoint; it holds
    # the body iff min_x c . x >= 0.  The probed corners are scanned and
    # refined together.  As d runs on a great arc about e, c moves at c' =
    # -cos(thickness) e x d: min_x c . x has slope c' . x* at the minimizer x*.
    # The scan samples the longest probed arc at the profile's spacing, so a
    # many-arc body's short corner arcs take a few samples, not _SCAN[1].
    cos_t, sin_t = math.cos(thick), math.sin(thick)
    spacing = dual.total / len(_profile(dual, n)[0])
    n_scan = int(np.clip(math.ceil(np.max(hi - lo) / spacing) + 1, *_SCAN))
    phis = np.linspace(lo, hi, n_scan, axis=1)

    def fn(phi, live):
        d, e = dual.point_at(phi), corners[live]
        vals, x = body.arcs.support_min_at(-cos_t * d + sin_t * e)
        return vals, -cos_t * dot(cross(e, d), x)

    at = np.arange(len(rows))
    scan, slope = (a.reshape(len(rows), n_scan) for a in fn(phis.ravel(), at.repeat(n_scan)))
    j = np.argmax(scan, axis=1)
    best = _climb(fn, phis, j, scan[at, j], slope[at, j])[1]
    i = int(best.argmin())
    if best[i] < -tol:
        return Verdict(kind="reduced_necessary", passed=False,
                       deviation=float(-best[i]), tolerance=tol,
                       witness={"mode": "lune_search", "corner": corners[i],
                                "support_margin": float(best[i])})
    return Verdict(kind="reduced_necessary", passed=True, deviation=0.0,
                   tolerance=tol,
                   witness={"probes": len(corner_idx), **screened,
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
    _tolerance(tol)
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
