"""Constructors for spherical convex bodies.

Besides caps and regular odd polygons of prescribed thickness, this module
grows bodies of constant diameter pi/2 from an odd polygon: each vertex is
replaced by a circular corner arc and each edge-facing stretch by an arc at
distance pi/2 from the opposite vertex, with the corner radii solved from a
cyclic linear system, in closed form, so all pieces meet tangentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (HALF_PI, TWO_PI, ZERO_RADIUS, Boundary, SphericalBody,
                   find_enclosing_center, hull_from_points, interleaved, polygon_from_vertices)
from .errors import BadRadius, EvenN, InvalidSpec, LunesError
from .sphere import dist, normalize, orthonormal_frame


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
    ang = phase + TWO_PI * np.arange(n) / n
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


def _canonical_ccw(vertices: np.ndarray) -> np.ndarray:
    """Vertices reordered counterclockwise about their enclosing center.

    Only cyclic rotation and reversal are applied; vertices not in convex
    position raise InvalidSpec.
    """
    verts = normalize(np.asarray(vertices, dtype=float))
    n = len(verts)
    center = find_enclosing_center(verts)
    u, v = orthonormal_frame(center)
    az = np.arctan2(verts @ v, verts @ u)
    d = np.mod(np.diff(np.concatenate([az, az[:1]])), TWO_PI)
    total = float(d.sum())  # winding: 2*pi when ccw, 2*pi*(n-1) when cw
    if np.all(d > 1e-12) and abs(total - TWO_PI) < 1e-9:
        ordered = verts
    elif np.all(d < TWO_PI - 1e-12) \
            and abs(total - TWO_PI * (n - 1)) < 1e-9:
        ordered = verts[::-1].copy()
    else:
        raise InvalidSpec("vertices are not in convex position in cyclic order")
    # every consecutive triple must turn left (star-shaped is not enough)
    triples = np.linalg.det(np.stack(
        [ordered, np.roll(ordered, -1, axis=0), np.roll(ordered, -2, axis=0)],
        axis=1))
    if np.any(triples < -1e-12):
        raise InvalidSpec("vertices are not in convex position in cyclic order")
    return ordered


def solve_corner_radii(vertices) -> OddGonSpec:
    """Corner radii for the constant-diameter construction over an odd gon.

    With m = (n-1)/2 and kappa_i = dist(v_i, v_{i+m}), solves the cyclic
    system sigma_i + sigma_{i+m} = pi/2 - kappa_i = rhs_i in closed form.
    As gcd(m, n) = 1, the indices j_k = k m mod n run through one cycle of
    odd length n, on which sigma_{j_{k+1}} = rhs_{j_k} - sigma_{j_k}; going
    round once gives sigma_{j_0} = (1/2) sum_k (-1)^k rhs_{j_k}, and the
    rest follow from one alternating cumulative sum.  All corner radii must
    come out nonnegative and the polygon must fit in a pi/2 ball, else
    InvalidSpec.
    """
    n = len(np.atleast_2d(np.asarray(vertices, dtype=float)))
    if n < 3 or n % 2 == 0:
        raise EvenN(f"need an odd number of vertices >= 3, got {n}")
    verts = _canonical_ccw(vertices)
    pair = dist(verts[:, None, :], verts[None, :, :])
    if float(pair.max()) > HALF_PI + 1e-9:
        raise InvalidSpec("vertex pair farther apart than pi/2")
    m = (n - 1) // 2
    idx = np.arange(n)
    kappa = dist(verts, verts[(idx + m) % n])
    j = idx * m % n
    sign = np.where(idx % 2, -1.0, 1.0)
    alt = np.cumsum(sign * (HALF_PI - kappa[j]))  # sum over k' <= k of (-1)^k' rhs_{j_k'}
    sigma = np.empty(n)
    sigma[j] = sign * (0.5 * alt[-1] - np.concatenate([[0.0], alt[:-1]]))
    if float(sigma.min()) < -ZERO_RADIUS:
        raise InvalidSpec(
            f"negative corner radius {float(sigma.min()):.3g}; "
            "polygon diagonals are incompatible with diameter pi/2")
    sigma = np.where(sigma < ZERO_RADIUS, 0.0, sigma)
    return OddGonSpec(vertices=verts, diagonals=kappa, corner_radii=sigma)


def constant_diameter_odd_gon(vertices) -> SphericalBody:
    """Body of constant diameter pi/2 grown from an odd polygon.

    Boundary: at each vertex v_i a corner arc of radius sigma_i spanning the
    directions away from the two far vertices, alternating with arcs at
    distance pi/2 - sigma_j from the respective far vertex v_j.  Consecutive
    arcs meet tangentially; zero corner radii leave a genuine corner (the
    all-right-angle triangle gives the octant).  Built in bulk: every vertex
    moved sigma_i away from v_{i+m} starts its corner arc, and moved away
    from v_{i+m+1} starts the far arc about v_{i+m+1}, which ends where
    corner arc i + 1 starts (at v_{i+1} itself when sigma_{i+1} = 0).
    """
    spec = solve_corner_radii(vertices)
    verts, sigma = spec.vertices, spec.corner_radii
    n = len(verts)
    far = (np.arange(n) + (n - 1) // 2) % n

    def moved(away):  # each vertex sigma_i along the great arc away from verts[away]
        b = verts[away]
        try:
            t = normalize(b - np.sum(verts * b, axis=1)[:, None] * verts)
        except ValueError:  # verts[away] and a vertex coincide to roundoff
            raise InvalidSpec("vertices too close together to orient a corner arc") from None
        return np.cos(sigma)[:, None] * verts - np.sin(sigma)[:, None] * t

    keep = np.column_stack([sigma > 0.0, np.ones(n, dtype=bool)]).ravel()
    far2 = (far + 1) % n
    boundary = interleaved(keep, Boundary(verts, sigma, moved(far)),
                           Boundary(verts[far2], HALF_PI - sigma[far2], moved(far2)))
    return SphericalBody(boundary, meta={
        "kind": "constant_diameter_odd_gon", "n": n,
        "corner_radii": [float(s) for s in sigma],
        "diagonals": [float(k) for k in spec.diagonals]})


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
        phi = rng.uniform(0.0, TWO_PI, size=n)
        s = np.sqrt(1.0 - z * z)
        pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z]) @ q.T
        try:
            return hull_from_points(pts)
        except LunesError:
            continue
    raise InvalidSpec("could not draw a nondegenerate polygon")
