"""Planar Wulff shapes, their duals, and the projection bridge to the sphere.

A Wulff shape is the intersection of half-planes x . u(theta) <= gamma(theta)
over a positive surface-energy function gamma on the circle of directions.
The dual reweights by gamma_bar(theta) = 1 / w(theta + pi), w being the
radial function; for a polygon W its Wulff shape is the polar of -W, built
in closed form with one vertex per edge of W.  Central (gnomonic)
projection at a pole N carries these polygons to spherical convex bodies
and back; it maps great circles to lines, so a polygon lifts exactly to the
spherical polygon over its lifted vertices.  A body projects, about a pole
inside it, to its boundary samples in boundary order, one point per great
arc: the image is convex as it stands, and no hull is taken.  The image
keeps the body it came from and the frame; in that frame it lifts back to
that body, seen from the pole, with its validated arrays and arc tables
shared, not rebuilt.  That turns the self-duality question into
width/diameter checks on the sphere, run on the body itself, and the gap
into one read off the body and its polar dual, whose image is the dual
Wulff shape (Nishimura and Sakemi, J. Math. Soc. Japan 66, 2014); the
equivalence report treats any disagreement beyond what tolerance and
roundoff allow as an internal error.  Polygon gaps are exact Hausdorff
distances, taken from the two support functions over the merged
edge-normal angles in O((m + k) log(m + k)) for polygons of m and k
vertices: each interval's supporting vertices are read off the merge
order, and its ends evaluated at the unit edge normals, with no
trigonometry per interval.  One scale rule: each planar computation runs
on its input scaled by a power of two (_unit), exact in the normal range,
and scales its result back, so W(2^j gamma) = 2^j W(gamma) bit for bit
and no product leaves the float range.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .body import (HALF_PI, TWO_PI, SphericalBody, _azimuth_steps, _rolled,
                   hull_scan, polygon_from_vertices)
from .errors import (DegenerateHull, EmptyInterior, InconsistentVerdicts,
                     InvalidSpec, InvariantViolation, NotInHemisphere,
                     PoleNotInterior)
from .metrics import _ROUNDOFF, Verdict, _climb, classify
from .sphere import norm, normalize, orthonormal_frame

# max|x| is below the least normal float exactly when _unit's k is below this
_TINY_EXP = int(np.frexp(np.finfo(float).tiny)[1])
_GAP_SAMPLES = 8  # _radial_gap scans each interval in this many steps
_EYE3 = np.eye(3)  # a frame's basis must be orthonormal to within 1e-12 of it


@dataclass(frozen=True)
class GammaFn:
    """Positive surface-energy function on directions, piecewise linear.

    Sample angles must be strictly increasing within [0, 2*pi); evaluation
    interpolates linearly and periodically.
    """

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float).ravel()
        val = np.asarray(self.values, dtype=float).ravel()
        if len(ang) != len(val) or len(ang) == 0:
            raise InvalidSpec("angles and values must be equal-length, nonempty")
        if np.any(val <= 0.0) or not np.all(np.isfinite(val)):
            raise InvalidSpec("gamma values must be positive and finite")
        if np.any(ang < 0.0) or np.any(ang >= TWO_PI):
            raise InvalidSpec("gamma angles must lie in [0, 2*pi)")
        if len(ang) > 1 and np.any(np.diff(ang) <= 0.0):
            raise InvalidSpec("gamma angles must be strictly increasing")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "values", val)

    def __call__(self, theta):
        theta = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        return np.interp(theta, self.angles, self.values, period=TWO_PI)

    @classmethod
    def constant(cls, value: float, n: int = 8) -> "GammaFn":
        ang = TWO_PI * np.arange(n) / n
        return cls(ang, np.full(n, float(value)))


class WulffShape:
    """Convex planar polygon with the origin strictly interior.

    Vertices counterclockwise, winding once, none repeated: checked as
    given, with relative tolerances only, so a shape and its multiples pass
    or fail together.  A shape below the normal float range is refused, as
    its vertices hold only a subnormal's digits.  Edge normals and offsets
    are derived at construction.  A shape that project_to_plane returns
    also keeps the body it projected and the frame (_source); in that frame
    induce_spherical lifts the body in place of the vertices, and the
    equivalence report reads the gap off it.  Every other shape has none, so
    two shapes with equal vertices can lift to different bodies.
    """

    _source = None  # (SphericalBody, ProjectionFrame), set by project_to_plane

    def __init__(self, vertices):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.shape[1] != 2 or len(verts) < 3:
            raise InvalidSpec("need at least 3 planar vertices")
        if not np.isfinite(verts).all():
            raise InvalidSpec("non-finite vertex")
        unit, k = _unit(verts)  # no product below overflows, whatever the size
        if k < _TINY_EXP:
            raise InvalidSpec(f"largest vertex coordinate {np.abs(verts).max():.3g} "
                              "below the normal float range")
        nxt = _rolled(unit)
        edges = nxt - unit
        if float(np.sum(unit[:, 0] * nxt[:, 1] - unit[:, 1] * nxt[:, 0])) <= 0.0:
            raise InvariantViolation("convexity", "vertices not counterclockwise")
        ahead = _rolled(edges)
        turn = edges[:, 0] * ahead[:, 1] - edges[:, 1] * ahead[:, 0]
        scale = float(np.abs(unit).max())
        if (turn < -1e-12 * scale ** 2).any():
            raise InvariantViolation("convexity", "reflex planar vertex")
        normals = np.column_stack([edges[:, 1], -edges[:, 0]])
        n0, n1 = normals.T
        norms = np.sqrt(n0 * n0 + n1 * n1)
        if (norms <= 1e-15 * scale).any():
            raise InvalidSpec("repeated vertex")
        if abs(float(np.arctan2(turn, _dot2(edges, ahead)).sum()) - TWO_PI) > 1e-6:
            raise InvariantViolation("convexity", "vertices do not wind once")
        normals = normals / norms[:, None]
        offsets = _dot2(normals, verts)
        if (offsets <= 0.0).any():
            raise EmptyInterior("origin not strictly interior")
        self.vertices = verts
        self.normals = normals
        self.offsets = offsets

    def radial(self, theta):
        """Distance from the origin to the boundary along direction theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        d = np.column_stack([np.cos(theta), np.sin(theta)])
        den = d @ self.normals.T
        ratio = np.full(den.shape, np.inf)
        np.divide(self.offsets[None, :], den, out=ratio, where=den > 1e-15)
        return ratio.min(axis=1)

    def contains(self, p, tol: float = 1e-12) -> bool:
        """Whether p is in the shape, within tol times its largest offset."""
        p = np.asarray(p, dtype=float)
        return bool(np.all(self.normals @ p <= self.offsets + tol * self.offsets.max()))

    def scaled(self, s: float) -> "WulffShape":
        return WulffShape(float(s) * self.vertices)


def _dot2(a, b) -> np.ndarray:
    """a . b per row of two, np.sum(a * b, axis=1) bit for bit without its
    wrapper, by sphere.dot's rule: adding 0.0 last turns a sum of -0.0 into
    +0.0, as the sum from add.reduce's identity does."""
    p = a * b
    return p[:, 0] + p[:, 1] + 0.0


def polygon_gamma(shape: WulffShape) -> GammaFn:
    """Gamma encoding of a polygon: its support on a grid of 1440 angles
    united with the edge normals.

    Every sampled value is the true polygon support, so each half-plane a
    consumer derives from a sample is valid, and the edge normals carry the
    exact face offsets.  Rebuilding with wulff_shape is therefore exact
    whenever the consumer's direction grid is a subset of these angles (any
    resolution dividing the grid, e.g. the defaults 720 and 1440); between
    samples linear interpolation can undercut the support near a corner by
    at most kink * (2 pi / grid) / 4.
    """
    grid = 1440
    normals = shape.normals
    ang = np.mod(np.arctan2(normals[:, 1], normals[:, 0]), TWO_PI)
    ang[ang == TWO_PI] = 0.0  # an angle just below 0 rounds up to 2 pi
    ang = np.unique(np.concatenate([TWO_PI * np.arange(grid) / grid, ang]))
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    vals = (dirs @ shape.vertices.T).max(axis=1)
    return GammaFn(ang, vals)


def _unit(x, k=None, axis=None):
    """x * 2**-k and k: k as given, or the exponent that puts max|x| (over x,
    or along axis, kept) in [0.5, 1).  Exact in the normal range; past it, x
    reads inf, which WulffShape refuses, or rounds to a subnormal."""
    if k is None:
        k = np.frexp(np.abs(x).max(axis=axis, keepdims=axis is not None))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(x, -k), k


def _polar(pa: np.ndarray, k: int = 0) -> WulffShape:
    """Intersection of the half-planes y . p <= 2**k over the counterclockwise
    points p of pa, in convex position: its vertices are where the lines of
    consecutive points meet.  Each pair of points is taken at its own unit
    scale, as the polar of 2**e P is 2**-e times that of P, and its vertex
    scaled back, so poles far apart in size still meet in range."""
    x, y = pa.T
    (ax, ay, bx, by), e = _unit(np.array([x, y, _rolled(x), _rolled(y)]), axis=0)
    den = ax * by - ay * bx
    if (den < np.finfo(float).tiny).any():  # a subnormal den has lost digits
        raise EmptyInterior("origin on or outside the polygon of half-plane poles")
    verts = np.column_stack([(by - ay) / den, (ax - bx) / den])
    return WulffShape(_unit(verts, e.T - k)[0])


def wulff_shape(gamma: GammaFn, n: int = 720) -> WulffShape:
    """Intersection of the half-planes x . u(theta_k) <= gamma(theta_k).

    Directions are n equispaced angles united with gamma's own sample
    angles.  Each half-plane maps to the dual point u/gamma; active
    half-planes are the hull vertices of those points, and consecutive
    actives intersect in the Wulff vertices.  The points come in order of
    angle about the origin, strictly inside their hull, and hull_scan takes
    that order: one far point (a tiny gamma) drags their centroid out until
    angles about it, planar_hull's order, cannot order the rest.
    """
    if n < 3:
        raise InvalidSpec("need at least 3 directions")
    ang = np.unique(np.concatenate([TWO_PI * np.arange(n) / n, gamma.angles]))
    g, k = _unit(gamma(ang))  # the largest sample at unit scale
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    with np.errstate(over="ignore"):  # inf only for gamma max / min past ~2**1023
        pts = dirs / g[:, None]
    # the dual points, of sizes 1 to 2**r, centered on size 1: no product of
    # two leaves the float range while r stays below about 1000
    pts, c = _unit(pts, _unit(pts)[1] // 2)
    try:
        idx = hull_scan(pts, np.arange(len(ang)))
    except DegenerateHull as exc:
        raise EmptyInterior(f"degenerate half-plane family: {exc}") from exc
    return _polar(pts[idx], k - c)


def dual_wulff(shape: WulffShape, n: int = 720) -> WulffShape:
    """Wulff shape of gamma_bar(theta) = 1 / w(theta + pi), in closed form.

    For a polygon W with edge normals n_i and offsets o_i, gamma_bar(theta)
    = max_i u(theta) . (-n_i / o_i), the support function of the polar of
    -W; the dual is that polygon, the intersection of the half-planes
    y . v <= 1 over the vertices v of -W, one vertex per edge of W.
    Dualizing twice returns the shape to roundoff.  n is accepted for
    compatibility and ignored.
    """
    return _polar(-shape.vertices)


def _convex(verts: np.ndarray) -> np.ndarray:
    """The vertices of a counterclockwise polygon that turn left or go
    straight: rounds drop every vertex whose edges turn right (a negative
    cross product), which roundoff leaves at tiny edges, until none does.
    Such a vertex lies inside its neighbours' chord, so the support
    function, and the Hausdorff distance, are those of the vertices kept;
    and the kept edges' normal angles rise monotonically, as the merge of
    hausdorff_polygons needs."""
    while True:
        x, y = verts.T
        ex, ey = _rolled(x) - x, _rolled(y) - y
        keep = np.roll(ex, 1) * ey - np.roll(ey, 1) * ex >= 0.0  # at each vertex
        if keep.all():
            return verts
        verts = verts[keep]


def _breakpoints(verts: np.ndarray):
    """The edges i -> i + 1 of a convex counterclockwise polygon (_convex),
    as rows in order of outward normal angle around the circle from 0: the
    angles mod 2 pi, each edge's unit outward normal (x and y rows) and the
    vertex at its end, which supports the directions from its normal to the
    next edge's, at unit scale, with the exponent k that _unit scaled by.
    The angles only order the edges.  They are unwrapped from edge 0's, a
    turn below zero, which roundoff can leave at a straight vertex, held
    where it was, and rotated to start at the first edge past 0; where
    roundoff puts the last edge's angle past the first's, the first is held
    at the last's, so that a stable merge (hausdorff_polygons) keeps the
    polygon's order."""
    unit, k = _unit(verts)
    unit = _convex(unit)
    x, y = unit.T
    ex, ey = _rolled(x) - x, _rolled(y) - y
    t = np.arctan2(-ex, ey)
    turns = np.mod(np.diff(t) + math.pi, TWO_PI) - math.pi
    t = t[0] + np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(turns)]))
    first = int(np.count_nonzero(t < (0.0 if t[0] < 0.0 else TWO_PI)))
    keys = np.mod(t, TWO_PI)
    normals = np.array([ey, -ex]) / np.hypot(ex, ey)
    end = (first + 1) % len(t)  # vertex i + 1 ends edge i
    return (np.maximum.accumulate(np.concatenate([keys[first:], keys[:first]])),
            np.concatenate([normals[:, first:], normals[:, :first]], axis=1),
            np.concatenate([unit.T[:, end:], unit.T[:, :end]], axis=1), int(k))


def hausdorff_polygons(a: WulffShape, b: WulffShape) -> float:
    """Exact symmetric Hausdorff distance between two convex polygons.

    For convex sets H(A, B) = max over unit u of |h_A(u) - h_B(u)|, h being
    the support function.  Between consecutive edge normals of A and B
    (_breakpoints, merged by angle once, with a stable sort) the supporting
    vertices a and b are fixed: each polygon's is the one after its last
    normal at or before the interval, or after its last normal overall,
    read off the merge order with no search.  So h_A - h_B = (a - b) . u is
    a sinusoid in the angle of u, whose largest magnitude on the interval
    lies at its ends, (a - b) . u at the unit normals u0 and u1 there, or
    is |a - b| where a - b or b - a lies between u0 and u1: there the cross
    products u0 x (a - b) and (a - b) x u1 have one sign (an interval spans
    less than pi).  The signs are compared, not multiplied, and the normals
    are unit vectors, so no product leaves the float range at any scale.
    Both polygons are taken at the larger one's unit scale, and the result
    scaled back.  Only the counterclockwise vertices are used, so the
    origin need not be inside.
    """
    ta, na, va, ka = _breakpoints(a.vertices)
    tb, nb, vb, kb = _breakpoints(b.vertices)
    k = max(ka, kb)
    order = np.argsort(np.concatenate([ta, tb]), kind="stable")
    on_a = order < len(ta)
    dx, dy = (np.ldexp(va.take(np.cumsum(on_a) - 1, 1), ka - k)
              - np.ldexp(vb.take(np.cumsum(~on_a) - 1, 1), kb - k))
    ux, uy = np.concatenate([na, nb], axis=1).take(order, 1)
    wx, wy = _rolled(ux), _rolled(uy)
    ends = np.maximum(np.abs(dx * ux + dy * uy), np.abs(dx * wx + dy * wy))
    inside = np.signbit(ux * dy - uy * dx) == np.signbit(dx * wy - dy * wx)
    peak = np.where(inside, np.hypot(dx, dy), 0.0)
    return math.ldexp(float(np.max(np.maximum(ends, peak))), k)


def is_self_dual(shape: WulffShape, tol: float = 1e-6,
                 n: int = 720) -> tuple[bool, float]:
    """Whether the shape equals its dual Wulff shape within tol (exact
    polygon Hausdorff gap returned alongside).  n is accepted for
    compatibility and ignored: the dual is exact."""
    gap = hausdorff_polygons(shape, dual_wulff(shape))
    return gap <= tol, gap


# -- projection bridge ------------------------------------------------------


@dataclass(frozen=True)
class ProjectionFrame:
    """Pole and tangent-plane basis for the central projection."""

    pole: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("pole", "u", "v"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        gram = np.array([self.u, self.v, self.pole])
        with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite basis
            off = np.max(np.abs(gram @ gram.T - _EYE3))
        if not off <= 1e-12:  # NaN too
            raise InvalidSpec("frame basis not orthonormal")


def frame_at(pole) -> ProjectionFrame:
    """The frame at pole, normalized, with orthonormal_frame's tangent basis.
    InvalidSpec for a pole that is not a finite nonzero 3-vector."""
    p = np.asarray(pole, dtype=float)
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        length = float(norm(p)) if p.shape == (3,) else math.nan
    if not 1e-15 <= length < math.inf:  # NaN too
        raise InvalidSpec(f"projection pole must be a finite nonzero 3-vector, got {pole!r}")
    n = normalize(p)
    u, v = orthonormal_frame(n)
    return ProjectionFrame(pole=n, u=u, v=v)


def project_to_plane(body: SphericalBody, frame: ProjectionFrame,
                     n: int = 720) -> WulffShape:
    """Central projection of the body onto the tangent plane at frame.pole.

    p maps to (p.u / p.N, p.v / p.N).  The body must sit strictly inside
    the open hemisphere at the pole, and the pole strictly inside the body,
    so the image is a convex curve about the origin, traversed in the
    boundary's counterclockwise order; and great arcs, only they, map to
    segments.  The image is therefore the projection of max(n, arc count)
    boundary samples, in order from starts[0], less every sample of a great
    arc but its start: one point per great arc, no collinear run, and no
    hull to take.  A polygon's image is its projected vertices.  The pole
    must be one the body accepts as its enclosing center
    (SphericalBody.refusal): NotInHemisphere or PoleNotInterior otherwise.
    The body answers once per center, so in its own frame (the pole its
    enclosing center, bit for bit) the projection makes no support query.

    The samples are the arc table's own (_Arcs.samples), which the body's
    profiles read too.  The shape keeps the body itself and the frame as
    its source, so in that frame induce_spherical returns the body, not the
    polygon over the samples (Han and Nishimura, J. Math. Soc. Japan 69,
    2017), and the report reads the gap of its exact image.
    """
    refused = body.refusal(frame.pole)
    if refused is not None:
        raise (NotInHemisphere if refused.invariant == "enclosing hemisphere"
               else PoleNotInterior)(f"projection pole: {refused}")
    arcs = body.arcs
    _, arc, t, pts = arcs.samples(max(n, arcs.count))
    pts = pts[(arcs.radii[arc] < HALF_PI) | (t == 0.0)]
    w = pts @ frame.pole
    shape = WulffShape(np.column_stack([pts @ frame.u / w, pts @ frame.v / w]))
    shape._source = (body, frame)
    return shape


def _radial_cot(rows, cos, sin):
    """cot R and d cot R / d phi where the ray cos R N + sin R a(phi) leaves
    a circle (center c, radius r; basis (u, v, N)): R = atan2(c . a, c . N)
    + atan2(s, cos r), s = sqrt((sin r - |b|)(sin r + |b|)), b = c . a', a
    product that keeps a 1e-9 corner arc's digits; R' = b (s c . N + cos r
    c . a) / (s rho**2), rho = hypot(c . a, c . N).  rows: c . u, c . v,
    c . N, cos r and sin r, broadcast to cos phi and sin phi."""
    cu, cv, n, cos_r, sin_r = rows
    a, b = cos * cu + sin * cv, cos * cv - sin * cu
    s = np.sqrt(np.maximum((sin_r - np.abs(b)) * (sin_r + np.abs(b)), 0.0))
    r = np.arctan2(a, n) + np.arctan2(s, cos_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / np.tan(r), -b * (s * n + cos_r * a) / (s * (a * a + n * n) * np.sin(r) ** 2)


def _radial_gap(body: SphericalBody, frame: ProjectionFrame) -> float:
    """Self-duality gap of the body C's exact image W in frame.  W's dual is
    the image of the polar dual D, as (N + x) . (N - y) = 1 - x . y, so the
    gap is max over phi of |cot R_D(phi) - cot R_C(phi)|, their supports at
    -a(phi).  Between the merged start azimuths of C and D (_azimuth_steps)
    each is one arc, the azimuth rising along it (_check_winding): each
    interval is scanned at _GAP_SAMPLES + 1 azimuths, then climbed.  Each
    table's centers are put in the basis (u, v, N) once, as _radial_cot's
    rows per interval."""
    (az, step), (dual_az, dual_step) = (_azimuth_steps(starts, frame.u, frame.v)
                                        for starts in (body.starts, body.dual_boundary.starts))
    # each side's start azimuths from the body's first, rising from 0
    at, dual_at = (np.concatenate([[0.0], np.cumsum(d[:-1])]) for d in (step, dual_step))
    dual_at += np.mod(dual_az[0] - az[0], TWO_PI)
    first = int(np.count_nonzero(dual_at < TWO_PI))
    dual_at = np.maximum.accumulate(np.concatenate([dual_at[first:] - TWO_PI, dual_at[:first]]))
    # a stable merge: an interval's arc is its side's last start at or before it
    keys = np.concatenate([at, dual_at])
    order = np.argsort(keys, kind="stable")
    lo, on_body = np.minimum(keys[order], TWO_PI), order < len(at)
    basis = np.column_stack([frame.u, frame.v, frame.pole])
    sides = [np.concatenate([(arcs.centers @ basis).T, [arcs.cos_r, arcs.sin_r]]).take(k, 1)
             for arcs, k in ((body.arcs, np.cumsum(on_body) - 1), (body.dual_arcs, np.roll(
                 np.arange(len(dual_at)), -first).take(np.cumsum(~on_body) - 1)))]

    def fn(phi, rows):
        cos, sin = np.cos(phi), np.sin(phi)
        (f0, g0), (f, g) = (_radial_cot(side.take(rows, 1).reshape(
            (5,) + rows.shape + (1,) * (phi.ndim - 1)), cos, sin) for side in sides)
        return np.abs(f - f0), np.where(f < f0, g0 - g, g - g0)

    rows = np.arange(len(lo))
    grid = az[0] + lo[:, None] + ((np.append(lo[1:], TWO_PI) - lo)[:, None]
                                  * (np.arange(_GAP_SAMPLES + 1) / _GAP_SAMPLES))
    val, slope = fn(grid, rows)
    j = val.argmax(axis=1)
    return float(np.max(_climb(fn, grid, j, val[rows, j], slope[rows, j])[1]))


def induce_spherical(shape: WulffShape, frame: ProjectionFrame,
                     n: int = 720) -> SphericalBody:
    """Spherical body induced by the shape: inverse central projection.

    A shape from project_to_plane, lifted in its projection frame (pole, u
    and v equal), is the body it projected, seen from the pole: a copy with
    the pole as its enclosing center and its own meta, sharing the source's
    read-only arrays, arcs, dual_arcs and dual_boundary.  The projection
    validated that body and had it accept the pole, so nothing is validated
    again.  Any other shape (from a gamma, from vertices, dual_wulff or
    scaled), or that shape in another frame, is a polygon; central
    projection maps great circles to lines, so its body is exactly the
    spherical polygon over the lifted vertices (x, y) -> normalize(N + x u +
    y v), one edge per edge of the shape, in the shape's vertex order.  n is
    accepted for compatibility and ignored: the lift is exact.  A shape past
    unit size is lifted at its own scale, as normalize(2**-k (N + x u + y
    v)), where no sum overflows; a smaller one as it stands.

    The pole N is tried first as the enclosing center (SphericalBody).
    """
    return _induced(shape, frame, _source_in(shape, frame))


def _induced(shape: WulffShape, frame: ProjectionFrame, source) -> SphericalBody:
    """induce_spherical, given the shape's source body in frame (_source_in)."""
    if source is not None:
        # the projection validated the body and had it accept the pole
        # (refusal): seen from the pole, it is a copy sharing every array
        body = copy.copy(source)
        body.enclosing_center, body.meta = normalize(frame.pole), {"kind": "induced"}
        return body
    k = max(_unit(shape.vertices)[1], 0)
    x, y = _unit(shape.vertices, k)[0].T
    lifted = normalize(_unit(frame.pole, k)[0] + x[:, None] * frame.u + y[:, None] * frame.v)
    body = polygon_from_vertices(lifted, enclosing_center=frame.pole)
    body.meta.update({"kind": "induced"})
    return body


def _source_in(shape: WulffShape, frame: ProjectionFrame) -> SphericalBody | None:
    """The body the shape was projected from if frame is its frame, else None."""
    src = shape._source
    if src is not None and all(map(np.array_equal, (src[1].pole, src[1].u, src[1].v),
                                   (frame.pole, frame.u, frame.v))):
        return src[0]
    return None


@dataclass
class DualityReport:
    """Self-duality verdict plus the four equivalent spherical conditions.

    The five booleans (self_dual and the four conditions) must agree; a
    strict pass coexisting with a hard failure raises InconsistentVerdicts
    upstream rather than being resolved silently.  induced_body is the body
    the conditions were measured on; for a shape from project_to_plane, in
    its own frame, it shares the projected body's arrays and arc tables.
    """

    self_dual: bool
    hausdorff_gap: float
    four_conditions: dict = field(default_factory=dict)
    induced_body: SphericalBody | None = None

    @property
    def booleans(self) -> list[bool]:
        return [self.self_dual] + [v.passed for v in self.four_conditions.values()]


def self_dual_equivalence_report(shape: WulffShape, frame: ProjectionFrame,
                                 tol: float = 1e-4, n: int = 720,
                                 dual_n: int | None = None) -> DualityReport:
    """Evaluate self-duality and the four induced-body conditions at pi/2.

    Conditions: constant width pi/2; reduced with thickness pi/2; reduced
    with diameter pi/2; constant diameter pi/2.  Each is a Verdict gated on
    both the property check and the pi/2 value, measured by one
    metrics.classify of the induced body: for a shape from project_to_plane,
    in its own frame, the projected body itself, so a self-dual body meets
    all four to roundoff.  The gap is exact too: for such a shape whose
    body has a curved arc, its exact image's (_radial_gap); for any other,
    its own image, the Hausdorff distance to its closed-form dual.
    self_dual passes when the gap is at most tol.  One strict pass (<= tol)
    with one failure past both 10*tol and _ROUNDOFF raises
    InconsistentVerdicts.  dual_n is accepted and ignored: the dual is exact.
    """
    source = _source_in(shape, frame)
    gap = (is_self_dual(shape, tol=tol)[1] if source is None or source.is_polygon
           else _radial_gap(source, frame))
    sd = bool(gap <= tol)
    body = _induced(shape, frame, source)
    rep = classify(body, tol=tol, n=n)
    th, dm, cw, cd, red = (rep.thickness, rep.diameter, rep.constant_width,
                           rep.constant_diameter, rep.reduced)
    w_mean = float(cw.witness["w_mean"])

    def gated(kind, base: Verdict, value: float) -> Verdict:
        dev = max(base.deviation, abs(value - HALF_PI))
        return Verdict(kind=kind, passed=bool(base.passed and dev <= tol),
                       deviation=dev, tolerance=tol,
                       witness={"value": value, "base_kind": base.kind,
                                "base_deviation": base.deviation})

    conditions = {
        "constant_width_half_pi": gated("self_dual_aux", cw, w_mean),
        "reduced_thickness_half_pi": gated("self_dual_aux", red, th.value),
        "reduced_diameter_half_pi": gated("self_dual_aux", red, dm.value),
        "constant_diameter_half_pi": gated("self_dual_aux", cd, dm.value),
    }
    report = DualityReport(sd, gap, conditions, body)
    devs = [gap] + [v.deviation for v in conditions.values()]
    flags = [sd] + [v.passed for v in conditions.values()]
    if any(flags) and not all(flags):
        strict_pass = any(f and d <= tol for f, d in zip(flags, devs))
        hard_fail = any(not f and d > max(10.0 * tol, _ROUNDOFF) for f, d in zip(flags, devs))
        if strict_pass and hard_fail:
            raise InconsistentVerdicts(
                "equivalent self-duality conditions disagree: "
                + ", ".join(f"{k}={v.passed} (dev {v.deviation:.3g})"
                            for k, v in conditions.items())
                + f", self_dual={sd} (gap {gap:.3g})")
    return report
