"""Convex bodies on the sphere bounded by cyclic sequences of circular arcs.

A body is stored as its boundary, in three arrays: for m arcs, the circle
centers and start points (m x 3) and the angular radii (m).  Arc i ends where
arc i + 1 starts (cyclically), so each junction is stored once, and a lone
arc is a full circle.  Every radius is at most pi/2, and every arc runs
counterclockwise as seen from its circle center, with the body on the left.
Validation, the polar dual and the arc tables behind every query are
computed on these arrays in bulk, once per body.

The polar dual (the curve of supporting-hemisphere centers) has a closed
form per arc, which gives exact membership and support queries: a point lies
in the body iff its dot product with every supporting center is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateHull, InvariantViolation, NoEnclosingHemisphere)
from .sphere import dist, normalize, orthonormal_frame

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

UNIT_TOL = 1e-9          # how far off unit length stored vectors may be
RADIUS_MATCH_TOL = 1e-10  # endpoint distance to circle center vs radius
CLOSURE_TOL = 1e-10       # junction tolerance: end-to-start gap, smooth turn
ENCLOSING_MIN_DOT = 1e-6  # strict containment margin for the enclosing hemisphere
INTERIOR_MIN = 1e-6       # the body must contain a cap of this angular radius
_CHUNK = 262_144          # cap on temporary matrix entries in batched queries


class Boundary(NamedTuple):
    """A cyclic sequence of m boundary arcs, as arrays.  Arc i ends at
    starts[(i + 1) % m]; a single arc is a full circle."""

    centers: np.ndarray  # (m, 3) circle centers
    radii: np.ndarray    # (m,) angular radii
    starts: np.ndarray   # (m, 3) start points


def _validated(centers, radii, starts, ends=None) -> Boundary:
    """The per-arc checks, on all arcs at once.

    Vectors must be unit within UNIT_TOL and are rescaled to unit length
    unless already within 1e-13 of it (which keeps them bit-stable); a
    radius within 1e-9 of pi/2 snaps to pi/2 and must lie in [1e-9, pi/2];
    both endpoints must lie at the radius from the center; an arc ending
    where it starts (within 1e-12) is a full circle and must be alone.
    Each arc ends at the next start unless ends are given, as by
    (center, radius, start, end) rows: those must meet the next starts
    within CLOSURE_TOL and are then dropped.  Returns read-only copies.
    """
    if ends is None:
        ends = np.roll(np.reshape(starts, (-1, 3)), -1, axis=0)
    vecs = []
    for name, v in (("center", centers), ("start", starts), ("end", ends)):
        v = np.array(v, dtype=float).reshape(-1, 3)
        n = np.linalg.norm(v, axis=1)
        bad = np.flatnonzero(np.abs(n - 1.0) > UNIT_TOL)
        if len(bad):
            k = int(bad[0])
            raise InvariantViolation(
                "unit norm", f"segment {k} {name} has norm {float(n[k])!r}")
        rescale = np.abs(n - 1.0) > 1e-13
        v[rescale] /= n[rescale, None]
        vecs.append(v)
    c, s, e = vecs
    r = np.array(radii, dtype=float).reshape(-1)
    r[np.abs(r - HALF_PI) <= 1e-9] = HALF_PI
    bad = np.flatnonzero(~((r >= 1e-9) & (r <= HALF_PI)))
    if len(bad):
        raise InvariantViolation(
            "radius range", f"radius {float(r[bad[0]])!r} outside (0, pi/2]")
    for name, x in (("start", s), ("end", e)):
        d = dist(c, x)
        bad = np.flatnonzero(np.abs(d - r) > RADIUS_MATCH_TOL)
        if len(bad):
            k = int(bad[0])
            raise InvariantViolation(
                "segment radius",
                f"segment {k} {name} at distance {float(d[k])!r} from center, "
                f"radius {float(r[k])!r}")
    m = len(r)
    if m > 1 and np.any(np.linalg.norm(s - e, axis=1) < 1e-12):
        raise InvariantViolation(
            "closed boundary", "full-circle segment mixed with others")
    gaps = np.linalg.norm(e - np.roll(s, -1, axis=0), axis=1)
    open_ends = np.flatnonzero(gaps > CLOSURE_TOL)
    if len(open_ends):
        k = int(open_ends[0])
        raise InvariantViolation(
            "closed boundary",
            f"segment {k} end misses segment {(k + 1) % m} start by {gaps[k]:.3g}")
    out = Boundary(c, r, s)
    for arr in out:
        arr.flags.writeable = False
    return out


class _Arcs:
    """Stacked arc data with vectorized point and support queries."""

    def __init__(self, centers, radii, u0, v0, sweeps):
        self.centers = centers
        self.radii = radii
        self.u0 = u0
        self.v0 = v0
        self.sweeps = sweeps
        self.cos_r = np.cos(radii)
        self.sin_r = np.sin(radii)
        self.lengths = sweeps * self.sin_r
        self.cum = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self.total = float(self.cum[-1])
        self.count = len(radii)

    @classmethod
    def from_boundary(cls, b: Boundary) -> "_Arcs":
        """Arc frames and sweeps: u0 points from the circle center's axis to
        the start, v0 = center x u0, and the sweep runs from the start to the
        next arc's start (2 pi for a full circle)."""
        cos_r = np.cos(b.radii)[:, None]
        sin_r = np.sin(b.radii)[:, None]
        u0 = (b.starts - cos_r * b.centers) / sin_r
        u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
        v0 = np.cross(b.centers, u0)
        e = (np.roll(b.starts, -1, axis=0) - cos_r * b.centers) / sin_r
        sweeps = np.mod(np.arctan2(np.sum(e * v0, axis=1), np.sum(e * u0, axis=1)),
                        TWO_PI)
        if len(sweeps) == 1:
            sweeps[0] = TWO_PI
        if np.any(sweeps < 1e-12):
            raise InvariantViolation("degenerate segment", "zero-length boundary arc")
        return cls(b.centers, b.radii, u0, v0, sweeps)

    def point_at(self, s):
        """Boundary point at cumulative arc-length parameter s (vectorized)."""
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), self.total)
        idx = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, self.count - 1)
        t = (s - self.cum[idx]) / self.sin_r[idx]
        w = (np.cos(t)[:, None] * self.u0[idx] + np.sin(t)[:, None] * self.v0[idx])
        return self.cos_r[idx][:, None] * self.centers[idx] + self.sin_r[idx][:, None] * w

    def sample_params(self, n: int) -> np.ndarray:
        """n arc-length parameters; when n >= arc count, every arc start
        (hence every junction) is included, else they are evenly spaced.

        Per-arc counts blend the arc-length share with a chord-sag share
        (sweep * sqrt(sin r)): sharply curved short arcs get enough samples
        to keep the inscribed-polygon error balanced across arcs, while the
        length half of the blend bounds the spacing anywhere by 2*total/n.
        """
        m = self.count
        if n < m:
            return np.arange(n) / n * self.total
        counts = np.ones(m, dtype=int)
        rem = n - m
        if rem > 0:
            sag = self.sweeps * np.sqrt(self.sin_r)
            quota = 0.5 * (self.lengths / self.total + sag / sag.sum()) * rem
            counts += np.floor(quota).astype(int)
            short = n - int(counts.sum())
            if short > 0:
                frac = quota - np.floor(quota)
                order = np.argsort(-frac, kind="stable")
                counts[order[:short]] += 1
        parts = [self.cum[i] + self.lengths[i] * np.arange(counts[i]) / counts[i]
                 for i in range(m)]
        return np.concatenate(parts)

    def sample_points(self, n: int):
        params = self.sample_params(n)
        return params, self.point_at(params)

    def _extremes(self, d):
        """Closed-form minimum of p . d over each arc, for a block of directions.

        Along arc i, p(t) . d = cos r (c . d) + sin r (a cos t + b sin t) with
        a = u0 . d and b = v0 . d, so the minimum lies at an end of the arc
        or at the critical angle atan2(b, a) + pi when that falls inside the
        sweep.  An arc's end is the next arc's start, so every junction is
        evaluated once.  Returns the (2m, k) candidate values, all starts
        first, then the critical values (+inf outside the sweep), and the
        (m, k) critical angles.
        """
        a = self.u0 @ d.T                 # (m, k)
        b = self.v0 @ d.T
        base = self.cos_r[:, None] * (self.centers @ d.T)
        sin_r = self.sin_r[:, None]
        t_crit = np.mod(np.arctan2(b, a) + math.pi, TWO_PI)
        v_crit = np.where(t_crit <= self.sweeps[:, None],
                          base - sin_r * np.hypot(a, b), np.inf)
        return np.concatenate([base + sin_r * a, v_crit]), t_crit

    def _blocks(self, dirs):
        """Directions as a (k, 3) array plus slices that keep each block's
        temporaries under _CHUNK entries."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        k = dirs.shape[0]
        step = max(1, _CHUNK // max(self.count, 1))
        return dirs, [slice(lo, lo + step) for lo in range(0, k, step)]

    def support_extreme(self, dirs) -> np.ndarray:
        """Per-direction minimum of the dot product over the whole curve:
        the support minimum, negative when the curve dips below the
        hemisphere of the direction.  The maximum over the curve is
        -support_extreme(-dirs).
        """
        dirs, blocks = self._blocks(dirs)
        out = np.empty(dirs.shape[0])
        for blk in blocks:
            vals, _ = self._extremes(dirs[blk])
            out[blk] = vals.min(axis=0)
        return out

    def support_min_at(self, dirs):
        """support_extreme(dirs) plus the arc-length parameter where
        each minimum is attained: returns (values, params).  point_at(params)
        is the curve's farthest point from each direction, at angular
        distance arccos(value).
        """
        dirs, blocks = self._blocks(dirs)
        vals = np.empty(dirs.shape[0])
        params = np.empty(dirs.shape[0])
        m = self.count
        for blk in blocks:
            flat, t_crit = self._extremes(dirs[blk])
            j = np.argmin(flat, axis=0)
            cols = np.arange(flat.shape[1])
            crit, arc = np.divmod(j, m)
            t = np.where(crit, t_crit[arc, cols], 0.0)
            vals[blk] = flat[j, cols]
            params[blk] = self.cum[arc] + self.sin_r[arc] * t
        return vals, params


def _dual(b: Boundary):
    """Closed-form polar dual boundary.

    Each arc of radius rho dualizes to an arc of radius pi/2 - rho about the
    same center (a single point when rho = pi/2); each corner junction
    contributes a great arc about the junction point sweeping the supporting
    centers.  The pieces keep the boundary order, each arc's own piece before
    the one of the junction at its end; a smooth junction (|turn| at most
    CLOSURE_TOL) has none.  Returns the dual boundary (not yet validated),
    the signed turn angle at the end of every arc (negative at a reflex
    junction), and the dual row of the great arc at each corner (-1 at a
    smooth junction).
    """
    m = len(b.radii)
    great = b.radii == HALF_PI
    cos_r = np.cos(b.radii)[:, None]
    sin_r = np.sin(b.radii)[:, None]
    junctions = np.roll(b.starts, -1, axis=0)

    def supporting(x):
        """Center of the hemisphere supporting the body at x[i] on arc i."""
        c = (b.centers - cos_r * x) / sin_r
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        return np.where(great[:, None], b.centers, c)

    at_start = supporting(b.starts)
    at_end = supporting(junctions)
    at_next = np.roll(at_start, -1, axis=0)
    # the supporting centers at a convex corner turn counterclockwise about
    # it, from the one before the corner to the one after: a reflex junction
    # has them turn clockwise and gets a negative turn
    orient = np.einsum("ij,ij->i", np.cross(at_end, at_next), junctions)
    turns = np.copysign(dist(at_end, at_next), orient)  # 0 on a full circle
    keep = np.column_stack([~great, turns > CLOSURE_TOL]).ravel()

    def interleaved(arc_piece, corner_piece):
        pieces = np.stack([arc_piece, corner_piece], axis=1)
        return pieces.reshape((2 * m,) + pieces.shape[2:])[keep]

    dual = Boundary(centers=interleaved(b.centers, junctions),
                    radii=interleaved(HALF_PI - b.radii, np.full(m, HALF_PI)),
                    starts=interleaved(at_start, at_end))
    row = np.cumsum(keep) - 1
    corner_row = np.where(keep[1::2], row[1::2], -1)
    return dual, turns, corner_row


@dataclass
class ExtremeSet:
    """Extreme points of a body: isolated corners plus strictly convex arcs."""

    isolated: np.ndarray        # (k, 3) corner points
    strict_arcs: np.ndarray     # indices of boundary segments with radius < pi/2
    smooth: bool                # True when no junction is a corner


class SphericalBody:
    """Closed convex region of the sphere, inside some open hemisphere.

    `segments` is a Boundary of arrays, or a sequence of
    (center, radius, start, end) rows.  Validation at construction, on the
    boundary and on its polar dual: unit vectors, radii in (0, pi/2],
    endpoints on their circles, consecutive segments sharing endpoints,
    convex (leftward) junction turns, monotone winding about the enclosing
    center, strict containment in the enclosing open hemisphere, and
    nonempty interior.

    The boundary is held in `centers`, `radii` and `starts` (read-only
    arrays; arc i ends at the start of arc i + 1, so each junction is stored
    once), the polar dual boundary in `dual_boundary`, and the arc tables of
    both in `arcs` and `dual_arcs`.
    """

    def __init__(self, segments, enclosing_center=None, meta=None):
        if not isinstance(segments, Boundary):  # rows to columns
            segments = list(zip(*segments)) or [()] * 4
        b = _validated(*segments)
        m = len(b.radii)
        if m == 0:
            raise InvariantViolation("closed boundary", "no segments")
        self.centers, self.radii, self.starts = b
        self.is_full_circle = m == 1
        self.meta = dict(meta or {})
        self.arcs = _Arcs.from_boundary(b)

        dual, turns, self._corner_row = _dual(b)
        reflex = np.flatnonzero(turns < -CLOSURE_TOL)
        if len(reflex):
            k = int(reflex[0])
            raise InvariantViolation(
                "convexity", f"reflex junction at the end of segment {k} "
                f"(turn {float(turns[k]):.3g})")
        self.dual_boundary = _validated(*dual)
        self.dual_arcs = _Arcs.from_boundary(self.dual_boundary)

        if enclosing_center is None:
            probe = self.arcs.point_at(
                self.arcs.sample_params(max(16, 4 * m)))
            enclosing_center = find_enclosing_center(probe)
        self.enclosing_center = normalize(np.asarray(enclosing_center, dtype=float))
        margin = float(self.arcs.support_extreme(self.enclosing_center)[0])
        if margin <= ENCLOSING_MIN_DOT:
            raise InvariantViolation(
                "enclosing hemisphere",
                f"boundary reaches dot {margin:.3g} with the enclosing center")

        interior = float(self.dual_arcs.support_extreme(self.enclosing_center)[0])
        if interior < INTERIOR_MIN * (1.0 - 1e-9):
            raise InvariantViolation(
                "nonempty interior",
                f"interior cap radius only asin({interior:.3g})")

        self._check_winding()

    def _check_winding(self):
        u, v = orthonormal_frame(self.enclosing_center)
        _, pts = self.arcs.sample_points(max(96, 8 * self.arcs.count))
        az = np.arctan2(pts @ v, pts @ u)
        d = np.diff(np.concatenate([az, az[:1]]))
        d = np.mod(d + math.pi, TWO_PI) - math.pi
        if np.any(d < -1e-9) or abs(float(d.sum()) - TWO_PI) > 1e-6:
            raise InvariantViolation(
                "convexity", "boundary does not wind once counterclockwise")

    # -- queries ---------------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        """Junction points (corner or smooth): the end of each segment."""
        return np.empty((0, 3)) if self.is_full_circle else np.roll(self.starts, -1, axis=0)

    @property
    def corners(self) -> np.ndarray:
        """Indices of the arcs whose end is a corner (the tangent turns)."""
        return np.flatnonzero(self._corner_row >= 0)

    @property
    def is_polygon(self) -> bool:
        return bool(np.all(self.radii == HALF_PI))

    def support_min(self, dirs) -> np.ndarray:
        """Minimum of p . dir over the body, per direction (shape (k,))."""
        return self.arcs.support_extreme(dirs)

    def contains(self, p, tol: float = 1e-9) -> bool:
        """Membership within angular slack tol, via the supporting centers."""
        p = np.asarray(p, dtype=float).reshape(1, 3)
        return bool(self.contains_many(p, tol)[0])

    def contains_many(self, pts, tol: float = 1e-9) -> np.ndarray:
        vals = self.dual_arcs.support_extreme(pts)
        return vals >= -math.sin(tol)


# -- constructors ---------------------------------------------------------


def polygon_from_vertices(vertices, enclosing_center=None) -> SphericalBody:
    """Convex spherical polygon from counterclockwise-ordered vertices."""
    verts = np.asarray(vertices, dtype=float).reshape(-1, 3)
    if len(verts) < 3:
        raise DegenerateHull("fewer than three vertices")
    verts = normalize(verts)
    nxt = np.roll(verts, -1, axis=0)
    # a x (b - a) equals a x b, without the cancellation a x b suffers when
    # a and b nearly coincide
    poles = np.cross(verts, nxt - verts)
    norms = np.linalg.norm(poles, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateHull("consecutive vertices equal or antipodal")
    edges = Boundary(poles / norms[:, None], np.full(len(verts), HALF_PI), verts)
    return SphericalBody(edges, enclosing_center=enclosing_center,
                         meta={"kind": "polygon"})


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call: only the SLSQP
    fallback of find_enclosing_center needs scipy, so importing the package
    does not load it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def find_enclosing_center(points, min_dot: float = ENCLOSING_MIN_DOT) -> np.ndarray:
    """Unit vector whose open hemisphere strictly contains all points.

    Fast path is the normalized mean; otherwise the max-min-dot problem is
    solved iteratively (SLSQP on the sphere, the one use of scipy).  Raises NoEnclosingHemisphere
    when the best achievable minimum dot product is below min_dot.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mean = pts.mean(axis=0)
    candidates = []
    if np.linalg.norm(mean) > 1e-12:
        candidates.append(mean / np.linalg.norm(mean))
    best = None
    best_val = -np.inf
    for c in candidates:
        val = float(np.min(pts @ c))
        if val > best_val:
            best, best_val = c, val
    if best_val > 10 * min_dot:
        return best

    def neg_t(x):
        return -x[3]

    cons = [
        {"type": "ineq", "fun": lambda x: pts @ x[:3] - x[3]},
        {"type": "eq", "fun": lambda x: x[:3] @ x[:3] - 1.0},
    ]
    seeds = candidates + [np.array(e, dtype=float)
                          for e in ((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0))]
    for seed in seeds:
        x0 = np.concatenate([seed, [float(np.min(pts @ seed))]])
        res = minimize(neg_t, x0, constraints=cons, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-14})
        c = res.x[:3]
        nrm = np.linalg.norm(c)
        if nrm < 1e-12:
            continue
        c = c / nrm
        val = float(np.min(pts @ c))
        if val > best_val:
            best, best_val = c, val
        if best_val > 10 * min_dot:
            break
    if best is None or best_val <= min_dot:
        raise NoEnclosingHemisphere(
            f"best containment margin {best_val:.3g} below {min_dot:.3g}")
    return best


def planar_hull(points) -> np.ndarray:
    """Indices of the extreme points of a planar set, counterclockwise.

    A Graham scan about the centroid, which lies inside the hull: in order
    of angle about it the points bound a star-shaped polygon, and one pass
    around that polygon, starting at the point farthest from the centroid
    (a hull vertex), pops every vertex that does not turn left by more than
    roundoff (distance to the chord of its neighbours at most 1e-13 of the
    coordinate scale).  Points on a hull edge, and all but one copy of a
    repeated point, are not vertices.  The scan is sequential because a pop
    can expose the vertex before it: rounds of simultaneous pops would need
    one round per exposed vertex, O(n^2) on a long convex chain hidden
    behind a far point.  Raises DegenerateHull for fewer than three points,
    a non-finite one, or a set on one line within roundoff.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateHull("fewer than three points")
    if not np.all(np.isfinite(pts)):
        raise DegenerateHull("non-finite point")
    q = pts - pts.mean(axis=0)
    tol = 1e-13 * float(np.max(np.abs(q)))
    order = np.argsort(np.arctan2(q[:, 1], q[:, 0]), kind="stable")
    order = np.roll(order, -int(np.argmax(np.hypot(q[order, 0], q[order, 1]))))
    xs, ys = q[order].T.tolist()
    stack = [0]
    for k in list(range(1, len(order))) + [0]:
        x, y = xs[k], ys[k]
        while len(stack) >= 2:
            ax, ay = xs[stack[-2]], ys[stack[-2]]
            bx, by = xs[stack[-1]], ys[stack[-1]]
            # b turns left by more than tol iff it lies that far right of a -> x
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > tol * math.hypot(x - ax, y - ay):
                break
            stack.pop()
        stack.append(k)
    stack.pop()  # the start again, which closed the cycle
    if len(stack) < 3:
        raise DegenerateHull("points on one line")
    return order[stack]


def hull_from_points(points) -> SphericalBody:
    """Spherical convex hull via central (gnomonic) projection.

    Projects onto the tangent plane at an enclosing-hemisphere center, where
    great circles become straight lines, takes the planar hull
    (planar_hull), and lifts the extreme subset back.  Raises
    NoEnclosingHemisphere or DegenerateHull.
    """
    pts = normalize(np.atleast_2d(np.asarray(points, dtype=float)))
    # drop duplicates: after a lexicographic sort, points within 1e-12 of
    # each other are adjacent, so one linear pass suffices
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    ranked = pts[order]
    fresh = np.ones(len(pts), dtype=bool)
    if len(pts) > 1:
        fresh[1:] = np.linalg.norm(np.diff(ranked, axis=0), axis=1) > 1e-12
    keep = np.zeros(len(pts), dtype=bool)
    keep[order[fresh]] = True
    pts = pts[keep]
    if len(pts) < 3:
        raise DegenerateHull("fewer than three distinct points")
    center = find_enclosing_center(pts)
    u, v = orthonormal_frame(center)
    w = pts @ center
    plane = np.column_stack([pts @ u / w, pts @ v / w])
    return polygon_from_vertices(pts[planar_hull(plane)], enclosing_center=center)


# -- module-level operations ----------------------------------------------


def boundary_sample(body: SphericalBody, n: int) -> np.ndarray:
    """n boundary points in order, arc-length-even per segment, junctions included."""
    if n < body.arcs.count:
        raise ValueError("need at least one sample per boundary segment")
    return body.arcs.sample_points(n)[1]


def extreme_points(body: SphericalBody) -> ExtremeSet:
    """Corners (junctions where the tangent turns) plus strictly convex arcs."""
    corners = body.corners
    strict = np.flatnonzero(body.radii != HALF_PI)
    return ExtremeSet(isolated=body.vertices[corners], strict_arcs=strict,
                      smooth=len(corners) == 0)


def supporting_hemisphere_centers(body: SphericalBody, n: int = 720) -> np.ndarray:
    """n centers of supporting hemispheres, in order along the dual curve."""
    return body.dual_arcs.sample_points(n)[1]


def polar_dual(body: SphericalBody) -> SphericalBody:
    """The polar dual body: its boundary is the supporting-center curve.

    The dual is assembled exactly from the arc structure (arc of radius rho
    about c -> arc of radius pi/2 - rho about c; corner -> polar great arc),
    so dualizing twice reproduces the body to roundoff.
    """
    return SphericalBody(body.dual_boundary, enclosing_center=body.enclosing_center)


def distance_to_body(body: SphericalBody, pts, tol: float = 1e-9) -> np.ndarray:
    """Angular distance from each point to the body (0 for members)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # to the nearest point itself: arccos(p . x) reads 0 below about 1e-8
    _, params = body.arcs.support_min_at(-pts)
    d = dist(pts, body.arcs.point_at(params))
    inside = body.contains_many(pts, tol=tol)
    return np.where(inside, 0.0, d)


def hausdorff_bodies(a: SphericalBody, b: SphericalBody, n: int = 720) -> float:
    """Symmetric boundary-sampled Hausdorff distance between two bodies."""
    pa = boundary_sample(a, max(n, a.arcs.count))
    pb = boundary_sample(b, max(n, b.arcs.count))
    d_ab = float(np.max(distance_to_body(b, pa)))
    d_ba = float(np.max(distance_to_body(a, pb)))
    return max(d_ab, d_ba)
