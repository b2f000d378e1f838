"""Constructors for spherical convex bodies.

Besides caps and regular odd polygons of prescribed thickness, this module
grows bodies of constant diameter pi/2 from an odd polygon: each vertex is
replaced by a circular corner arc and each edge-facing stretch by an arc at
distance pi/2 from the opposite vertex, with the corner radii solved from a
cyclic linear system so all pieces meet tangentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (Boundary, SphericalBody, find_enclosing_center,
                   hull_from_points, polygon_from_vertices)
from .errors import BadRadius, EvenN, InvalidSpec, LunesError
from .sphere import dist, normalize, orthonormal_frame

HALF_PI = 0.5 * math.pi
ZERO_RADIUS = 1e-9  # corner arcs below this are dropped (exact corner instead)


def cap(center, radius: float) -> SphericalBody:
    """Spherical cap of the given angular radius about center.

    radius must lie strictly between 0 and pi/2; at pi/2 the cap is a closed
    hemisphere, which no open hemisphere contains.
    """
    radius = float(radius)
    if not (0.0 < radius < HALF_PI):
        raise BadRadius(f"cap radius {radius!r} outside (0, pi/2)")
    c = normalize(np.asarray(center, dtype=float))
    u, _ = orthonormal_frame(c)
    p = math.cos(radius) * c + math.sin(radius) * u
    circle = Boundary(c[None], np.array([radius]), p[None])
    return SphericalBody(circle, enclosing_center=c,
                         meta={"kind": "cap", "radius": radius})


def regular_polygon_vertices(n: int, circumradius: float, center=None,
                             phase: float = 0.0) -> np.ndarray:
    """Vertices of a regular spherical n-gon, counterclockwise about center."""
    if center is None:
        center = np.array([0.0, 0.0, 1.0])
    c = normalize(np.asarray(center, dtype=float))
    u, v = orthonormal_frame(c)
    ang = phase + 2.0 * math.pi * np.arange(n) / n
    rim = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v
    return math.cos(circumradius) * c + math.sin(circumradius) * rim


def regular_odd_gon(n: int, target_thickness: float, center=None) -> SphericalBody:
    """Regular n-gon (n odd) whose thickness equals target_thickness.

    The thickness of a regular odd gon of circumradius R is the distance
    from a vertex, through the center, to the opposite edge:
    T = R + atan(k tan R) with k = cos(pi/n), the second term being the
    distance from the center to an edge.  Taking tan of both sides gives a
    quadratic in tan R, solved here in the form that stays exact at
    T = pi/2 (cot T = 0).  Targets above pi/2 are refused: no polygon is
    reduced beyond that thickness, so the constructor would mislabel its
    output.  Raises EvenN for even or too-small n.
    """
    if n < 3 or n % 2 == 0:
        raise EvenN(f"need an odd n >= 3, got {n}")
    target_thickness = float(target_thickness)
    if not (0.0 < target_thickness <= HALF_PI + 1e-12):
        raise InvalidSpec(
            f"target thickness {target_thickness!r} outside (0, pi/2]")
    if center is None:
        center = np.array([0.0, 0.0, 1.0])
    c = normalize(np.asarray(center, dtype=float))
    k = math.cos(math.pi / n)
    b = (1.0 + k) * math.cos(target_thickness) / math.sin(target_thickness)
    radius = math.atan(2.0 / (b + math.sqrt(b * b + 4.0 * k)))
    verts = regular_polygon_vertices(n, radius, center=c)
    body = polygon_from_vertices(verts, enclosing_center=c)
    body.meta.update({"kind": "regular_odd_gon", "n": n,
                      "circumradius": radius})
    return body


# -- constant-diameter bodies ----------------------------------------------


@dataclass
class OddGonSpec:
    """Solved construction data for a constant-diameter body over an odd gon.

    diagonals[i] is the distance from vertex i to vertex i+m (m = (n-1)/2),
    the pairs realizing the diameter pi/2 after the corner arcs of radii
    corner_radii are attached.  For triangles the diagonals are the sides.
    """

    vertices: np.ndarray
    diagonals: np.ndarray
    corner_radii: np.ndarray

    @property
    def n(self) -> int:
        return len(self.corner_radii)


def _canonical_ccw(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices reordered counterclockwise about their enclosing center.

    Only cyclic rotation and reversal are applied; vertices not in convex
    position raise InvalidSpec.
    """
    verts = normalize(np.asarray(vertices, dtype=float))
    n = len(verts)
    center = find_enclosing_center(verts)
    u, v = orthonormal_frame(center)
    az = np.arctan2(verts @ v, verts @ u)
    d = np.mod(np.diff(np.concatenate([az, az[:1]])), 2.0 * math.pi)
    total = float(d.sum())  # winding: 2*pi when ccw, 2*pi*(n-1) when cw
    if np.all(d > 1e-12) and abs(total - 2.0 * math.pi) < 1e-9:
        ordered = verts
    elif np.all(d < 2.0 * math.pi - 1e-12) \
            and abs(total - 2.0 * math.pi * (n - 1)) < 1e-9:
        ordered = verts[::-1].copy()
    else:
        raise InvalidSpec("vertices are not in convex position in cyclic order")
    # every consecutive triple must turn left (star-shaped is not enough)
    triples = np.linalg.det(np.stack(
        [ordered, np.roll(ordered, -1, axis=0), np.roll(ordered, -2, axis=0)],
        axis=1))
    if np.any(triples < -1e-12):
        raise InvalidSpec("vertices are not in convex position in cyclic order")
    return ordered, center


def solve_corner_radii(vertices) -> OddGonSpec:
    """Corner radii for the constant-diameter construction over an odd gon.

    With m = (n-1)/2 and kappa_i = dist(v_i, v_{i+m}), solves the cyclic
    system sigma_i + sigma_{i+m} = pi/2 - kappa_i.  All corner radii must
    come out nonnegative and the polygon must fit in a pi/2 ball, else
    InvalidSpec.
    """
    n = len(np.atleast_2d(np.asarray(vertices, dtype=float)))
    if n < 3 or n % 2 == 0:
        raise EvenN(f"need an odd number of vertices >= 3, got {n}")
    verts, _ = _canonical_ccw(vertices)
    pair = dist(verts[:, None, :], verts[None, :, :])
    if float(pair.max()) > HALF_PI + 1e-9:
        raise InvalidSpec("vertex pair farther apart than pi/2")
    m = (n - 1) // 2
    idx = np.arange(n)
    kappa = dist(verts, verts[(idx + m) % n])
    a = np.zeros((n, n))
    a[idx, idx] += 1.0
    a[idx, (idx + m) % n] += 1.0
    rhs = HALF_PI - kappa
    sigma = np.linalg.solve(a, rhs)
    residual = float(np.max(np.abs(a @ sigma - rhs)))
    if residual > 1e-12:
        raise InvalidSpec(f"corner radius system residual {residual:.3g}")
    if float(sigma.min()) < -1e-9:
        raise InvalidSpec(
            f"negative corner radius {float(sigma.min()):.3g}; "
            "polygon diagonals are incompatible with diameter pi/2")
    sigma = np.where(sigma < ZERO_RADIUS, 0.0, sigma)
    return OddGonSpec(vertices=verts, diagonals=kappa, corner_radii=sigma)


def _tangent(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit tangent at a along the great arc toward b."""
    t = b - float(a @ b) * a
    norm = np.linalg.norm(t)
    if norm < 1e-12:
        raise InvalidSpec("coincident or antipodal vertices")
    return t / norm


def constant_diameter_odd_gon(vertices) -> SphericalBody:
    """Body of constant diameter pi/2 grown from an odd polygon.

    Boundary: at each vertex v_i a corner arc of radius sigma_i spanning the
    directions away from the two far vertices, alternating with arcs at
    distance pi/2 - sigma_j from the respective far vertex v_j.  Consecutive
    arcs meet tangentially; zero corner radii leave a genuine corner (the
    all-right-angle triangle gives the octant).
    """
    spec = solve_corner_radii(vertices)
    verts = spec.vertices
    sigma = spec.corner_radii
    n = spec.n
    m = (n - 1) // 2

    def prolong(i: int, j: int) -> np.ndarray:
        if sigma[i] == 0.0:
            return verts[i]
        t = _tangent(verts[i], verts[j])
        return math.cos(sigma[i]) * verts[i] - math.sin(sigma[i]) * t

    rows = []
    for i in range(n):
        far1 = (i + m) % n
        far2 = (i + m + 1) % n
        if sigma[i] > 0.0:
            rows.append((verts[i], float(sigma[i]),
                         prolong(i, far1), prolong(i, far2)))
        rows.append((verts[far2], HALF_PI - float(sigma[far2]),
                     prolong(i, far2), prolong((i + 1) % n, far2)))
    body = SphericalBody(rows, meta={
        "kind": "constant_diameter_odd_gon", "n": n,
        "corner_radii": [float(s) for s in sigma],
        "diagonals": [float(k) for k in spec.diagonals]})
    return body


def constant_diameter_triangle(v1, v2, v3) -> SphericalBody:
    """Constant-diameter-pi/2 body over a triangle (see the odd-gon builder)."""
    verts = np.stack([np.asarray(v, dtype=float).reshape(3) for v in (v1, v2, v3)])
    body = constant_diameter_odd_gon(verts)
    body.meta["kind"] = "constant_diameter_triangle"
    return body


def random_convex_polygon(seed: int, n: int = 8,
                          max_diam: float = 1.0) -> SphericalBody:
    """Random convex polygon with diameter below max_diam (deterministic in seed).

    Samples n points uniformly from a cap of radius max_diam / 2 at a random
    orientation and takes the spherical hull; resamples on degenerate draws.
    The hull may have fewer than n vertices.
    """
    if n < 3:
        raise InvalidSpec(f"need at least 3 points, got {n}")
    if not (0.0 < max_diam <= math.pi - 0.1):
        raise InvalidSpec(f"max_diam {max_diam!r} outside (0, pi - 0.1]")
    rng = np.random.default_rng(seed)
    rho = min(max_diam / 2.0, HALF_PI - 1e-3)
    for _ in range(64):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        z = rng.uniform(math.cos(rho), 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        s = np.sqrt(1.0 - z * z)
        pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z]) @ q.T
        try:
            return hull_from_points(pts)
        except LunesError:
            continue
    raise InvalidSpec("could not draw a nondegenerate polygon")
