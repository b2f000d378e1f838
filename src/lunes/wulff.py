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
keeps the body it came from, the frame, and a bound on how far the body's
exact image reaches past the samples' polygon; in that frame it lifts back
to that body, seen from the pole, with its validated arrays and arc tables
shared, not rebuilt.  That turns the self-duality question into
width/diameter checks on the sphere, run on the body itself; the
equivalence report runs all five checks and treats any disagreement beyond
what tolerance and sampling allow as an internal error.  Self-duality gaps
are exact polygon Hausdorff distances, taken from the two support
functions over the merged edge-normal angles in O((m + k) log(m + k)) for
polygons of m and k vertices.  One scale rule: each planar computation
runs on its input scaled by a power of two (_unit), exact in the normal
range, and scales its result back, so W(2^j gamma) = 2^j W(gamma) bit for
bit and no product leaves the float range.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .body import (HALF_PI, TWO_PI, SphericalBody, _rolled, hull_scan,
                   polygon_from_vertices)
from .errors import (DegenerateHull, EmptyInterior, InconsistentVerdicts,
                     InvalidSpec, InvariantViolation, NotInHemisphere,
                     PoleNotInterior)
from .metrics import Verdict, classify
from .sphere import norm, normalize, orthonormal_frame

# max|x| is below the least normal float exactly when _unit's k is below this
_TINY_EXP = int(np.frexp(np.finfo(float).tiny)[1])


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
    also keeps the body it projected, the frame and the image's sampling
    error (_source); in that frame induce_spherical lifts the body in place
    of the vertices.  Every other shape has none, so two shapes with equal
    vertices can lift to different bodies.
    """

    _source = None  # (SphericalBody, ProjectionFrame, float), set by project_to_plane

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
        norms = np.linalg.norm(normals, axis=1)
        if (norms <= 1e-15 * scale).any():
            raise InvalidSpec("repeated vertex")
        if abs(float(np.arctan2(turn, np.sum(edges * ahead, axis=1)).sum()) - TWO_PI) > 1e-6:
            raise InvariantViolation("convexity", "vertices do not wind once")
        normals = normals / norms[:, None]
        offsets = np.sum(normals * verts, axis=1)
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


def _normal_angles(verts: np.ndarray) -> np.ndarray:
    """Outward normal angles of the edges i -> i+1 of a convex counterclockwise
    polygon, unwrapped to a nondecreasing run from that of edge 0.  A turn
    below zero, which roundoff can leave at a straight vertex, holds the
    angle where it was."""
    edges = _rolled(verts) - verts
    t = np.arctan2(-edges[:, 0], edges[:, 1])
    turns = np.mod(np.diff(t) + math.pi, TWO_PI) - math.pi
    return t[0] + np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(turns)]))


def _support_vertex(verts: np.ndarray, normals: np.ndarray, theta):
    """The vertex attaining the polygon's support in each direction theta:
    vertex i supports the directions between the normals of edges i-1 and i."""
    theta = normals[0] + np.mod(theta - normals[0], TWO_PI)
    return verts[np.searchsorted(normals, theta) % len(verts)]


def hausdorff_polygons(a: WulffShape, b: WulffShape) -> float:
    """Exact symmetric Hausdorff distance between two convex polygons.

    For convex sets H(A, B) = max over unit u of |h_A(u) - h_B(u)|, h being
    the support function.  Between consecutive edge normals of A and B
    (merged by angle) the supporting vertices a and b are fixed, so
    h_A - h_B = (a - b) . u is a sinusoid in the angle of u; its largest
    magnitude on each interval lies at the interval's ends or at the
    critical angle atan2(a - b) (plus pi) when that falls inside.  Only the
    counterclockwise vertices are used, so the origin need not be inside.
    """
    ta = _normal_angles(a.vertices)
    tb = _normal_angles(b.vertices)
    lo = np.sort(np.mod(np.concatenate([ta, tb]), TWO_PI))
    sweep = np.diff(np.append(lo, lo[0] + TWO_PI))
    mid = np.mod(lo + 0.5 * sweep, TWO_PI)
    d = _support_vertex(a.vertices, ta, mid) - _support_vertex(b.vertices, tb, mid)
    # (a - b) . u(lo + t) = alpha cos t + beta sin t
    cos_lo, sin_lo = np.cos(lo), np.sin(lo)
    alpha = d[:, 0] * cos_lo + d[:, 1] * sin_lo
    beta = d[:, 1] * cos_lo - d[:, 0] * sin_lo
    at_end = alpha * np.cos(sweep) + beta * np.sin(sweep)
    inside = np.mod(np.arctan2(beta, alpha), math.pi) <= sweep
    peak = np.where(inside, np.hypot(alpha, beta), 0.0)
    return float(np.max(np.maximum(np.maximum(np.abs(alpha), np.abs(at_end)), peak)))


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
        gram = np.stack([self.u, self.v, self.pole])
        with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite basis
            off = np.max(np.abs(gram @ gram.T - np.eye(3)))
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

    The samples are the arc table's own (_Arcs.samples), which the body's
    profiles read too.  The shape keeps the body itself, the frame and the
    image's sampling error as its source, so in that frame induce_spherical
    returns the body, not the polygon over the samples (Han and Nishimura,
    J. Math. Soc. Japan 69, 2017).  Every piece of curve between
    two samples lies on one arc, and its image is a convex arc inside the
    triangle that the chord cuts off the two end tangents, of height
    |c| / (cot a + cot b) over a chord c at angles a and b to them (none
    when a + b reaches pi); a great arc's piece is its chord.  So the exact
    image reaches at most the largest height past the samples' polygon,
    which is the sampling error.
    """
    refused = body.refusal(frame.pole)
    if refused is not None:
        raise (NotInHemisphere if refused.invariant == "enclosing hemisphere"
               else PoleNotInterior)(f"projection pole: {refused}")
    arcs = body.arcs
    _, arc, t, pts = arcs.samples(max(n, arcs.count))
    keep = (arcs.radii[arc] < HALF_PI) | (t == 0.0)
    arc, t, pts = arc[keep], t[keep], pts[keep]
    w = pts @ frame.pole
    xy = np.column_stack([pts @ frame.u / w, pts @ frame.v / w])
    shape = WulffShape(xy)
    # each piece runs from its sample to the next, on its arc or at its end
    nxt = _rolled(t)
    end = np.where((_rolled(arc) == arc) & (nxt > t), nxt, arcs.sweeps[arc])
    chord = _rolled(xy) - xy
    tangents = _image_tangent(arcs, np.tile(arc, 2), np.concatenate([t, end]),
                              np.concatenate([pts, _rolled(pts)]), frame)
    cot = _cot_to(np.tile(chord, (2, 1)), tangents).reshape(2, -1).sum(axis=0)
    # a piece that turns by pi or more has no such triangle: no bound
    with np.errstate(divide="ignore"):
        sag = np.where(cot > 0.0, np.hypot(*chord.T) / cot, np.inf)
    sag[arcs.radii[arc] >= HALF_PI] = 0.0
    shape._source = (body, frame, float(sag.max()))
    return shape


def _image_tangent(arcs, idx, t, p, frame: ProjectionFrame) -> np.ndarray:
    """A tangent, of any length, to the image of arc idx at angle t, its
    point p: the derivative of (p.u / p.N, p.v / p.N) times (p.N)**2."""
    d = arcs._tangent(idx, t)
    basis = np.column_stack([frame.u, frame.v, frame.pole])
    (pu, pv, pn), (du, dv, dn) = (p @ basis).T, (d @ basis).T
    return np.column_stack([du * pn - pu * dn, dv * pn - pv * dn])


def _cot_to(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cotangent of the unsigned angle between the rows of a and b: inf when
    they are parallel, so that a straight piece has height 0."""
    with np.errstate(divide="ignore"):
        return np.sum(a * b, axis=1) / np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def induce_spherical(shape: WulffShape, frame: ProjectionFrame,
                     n: int = 720) -> SphericalBody:
    """Spherical body induced by the shape: inverse central projection.

    A shape from project_to_plane, lifted in its projection frame (pole, u
    and v equal), is the body it projected, seen from the pole: a copy with
    the pole as its enclosing center and its own meta, sharing the source's
    read-only arrays, arcs, dual_arcs and dual_boundary.  The projection
    validated that body and had it accept the pole, so nothing is validated
    again.  Any other shape
    (from a gamma, from vertices, dual_wulff or scaled), or that shape in
    another frame, is a polygon; central projection maps great circles to
    lines, so its body is exactly the spherical polygon over the lifted
    vertices (x, y) -> normalize(N + x u + y v), one edge per edge of the
    shape, in the shape's vertex order.  n is accepted for compatibility
    and ignored: the lift is exact.  A shape past unit size is lifted at its
    own scale, as normalize(2**-k (N + x u + y v)), where no sum overflows;
    a smaller one as it stands.

    The pole N is tried first as the enclosing center (SphericalBody).
    """
    return _induced(shape, frame, _source_in(shape, frame))


def _induced(shape: WulffShape, frame: ProjectionFrame, source) -> SphericalBody:
    """induce_spherical, given the shape's source in frame (_source_in)."""
    if source is not None:
        # the projection validated the body and had it accept the pole
        # (refusal): seen from the pole, it is a copy sharing every array
        body = copy.copy(source[0])
        body.enclosing_center, body.meta = normalize(frame.pole), {"kind": "induced"}
        return body
    k = max(_unit(shape.vertices)[1], 0)
    x, y = _unit(shape.vertices, k)[0].T
    lifted = normalize(_unit(frame.pole, k)[0] + x[:, None] * frame.u + y[:, None] * frame.v)
    body = polygon_from_vertices(lifted, enclosing_center=frame.pole)
    body.meta.update({"kind": "induced"})
    return body


def _source_in(shape: WulffShape, frame: ProjectionFrame):
    """The shape's source when frame is the one it was projected in, else None."""
    src = shape._source
    if src is not None and all(map(np.array_equal, (src[1].pole, src[1].u, src[1].v),
                                   (frame.pole, frame.u, frame.v))):
        return src
    return None


@dataclass
class DualityReport:
    """Self-duality verdict plus the four equivalent spherical conditions.

    The five booleans (self_dual and the four conditions) must agree; a
    strict pass coexisting with a hard failure raises InconsistentVerdicts
    upstream rather than being resolved silently.  gap_error bounds how far
    hausdorff_gap, the samples' gap, can sit from that of the body's exact
    image: 0 for a polygon, which its samples are.  induced_body is the body
    the conditions were measured on; for a shape from project_to_plane, in
    its own frame, it shares the projected body's arrays and arc tables.
    """

    self_dual: bool
    hausdorff_gap: float
    four_conditions: dict = field(default_factory=dict)
    induced_body: SphericalBody | None = None
    gap_error: float = 0.0

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
    all four to roundoff.  The self-duality gap is the exact Hausdorff
    distance from the shape, the sampled image, to its closed-form dual.
    For such a shape the exact image W lies within the sampling error h of
    the shape P, and P in W; so the supports differ by at most h, the
    radial functions of the duals (the reciprocal supports) by at most
    h / rho**2, rho being P's least offset, and the gap of W lies within
    gap_error = h (1 + 1 / rho**2) of the shape's.  self_dual passes when
    gap - gap_error <= tol: at a sample count too coarse to tell, a body
    whose conditions fail can read self-dual, but a self-dual body always
    does.  Disagreement beyond tolerance slack (one strict pass, at <= tol,
    together with one failure at > 10*tol, the gap taken at its worst for
    each) raises InconsistentVerdicts.  dual_n is accepted for
    compatibility and ignored: the dual is exact.
    """
    gap = is_self_dual(shape, tol=tol)[1]
    source = _source_in(shape, frame)
    err = 0.0 if source is None else source[2] * (1.0 + 1.0 / float(shape.offsets.min()) ** 2)
    sd = bool(gap - err <= tol)
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
    report = DualityReport(self_dual=sd, hausdorff_gap=gap, four_conditions=conditions,
                           induced_body=body, gap_error=err)
    devs = [v.deviation for v in conditions.values()]
    flags = [sd] + [v.passed for v in conditions.values()]
    if any(flags) and not all(flags):
        strict_pass = any(f and d <= tol for f, d in zip(flags, [gap + err] + devs))
        hard_fail = any((not f) and d > 10.0 * tol
                        for f, d in zip(flags, [gap - err] + devs))
        if strict_pass and hard_fail:
            raise InconsistentVerdicts(
                "equivalent self-duality conditions disagree: "
                + ", ".join(f"{k}={v.passed} (dev {v.deviation:.3g})"
                            for k, v in conditions.items())
                + f", self_dual={sd} (gap {gap:.3g} +/- {err:.3g})")
    return report
