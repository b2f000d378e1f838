"""Primitives on the unit sphere: distances, frames and lunes.

All points are unit vectors in E^3 stored as numpy arrays of shape (3,).
Angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLune

# below this separation (or above pi minus it) paired points stop defining
# a great circle / lune reliably
DEGENERATE_TOL = 1e-9


def cross(a, b) -> np.ndarray:
    """a x b over the last axis, by component into one array: np.cross's arithmetic."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x = a1 * b2
    out = np.empty(x.shape + (3,), x.dtype)
    np.subtract(x, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def norm(v) -> np.ndarray:
    """Length over the last axis of 3: np.linalg.norm's formula for real
    arrays, its squares added in np.add.reduce's order."""
    p = v * v
    return np.sqrt(p[..., 0] + p[..., 1] + p[..., 2])


def dot(a, b) -> np.ndarray:
    """a . b over the last axis of 3: np.add.reduce(a * b, axis=-1) bit for
    bit, without its wrapper.  add.reduce sums from its identity, ((0 + x) +
    y) + z; adding 0.0 last gives the same bits, as all it changes is a sum
    of -0.0, to +0.0."""
    p = a * b
    s = p[..., 0] + p[..., 1]
    s += p[..., 2]
    s += 0.0
    return s


def normalize(v) -> np.ndarray:
    """Return v scaled to unit length (works on batches along the last axis)."""
    v = np.asarray(v, dtype=float)
    n = norm(v)[..., None]
    if (n < 1e-15).any():
        raise ValueError("cannot normalize a zero vector")
    return v / n


def dist(a, b):
    """Great-circle distance in [0, pi].

    Uses atan2(|a x b|, a.b), which stays accurate near 0 and near pi
    where acos of a dot product loses digits.  Broadcasts over leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.arctan2(norm(cross(a, b)), dot(a, b))


@dataclass(frozen=True)
class Lune:
    """Intersection of two hemispheres G and H with distinct, non-opposite centers.

    g, h:    the unit centers of G and H, {p : p . g >= 0} and {p : p . h >= 0}.
    corners: the two points where the bounding great circles cross.
    mid_g:   midpoint of the bounding semicircle lying on bd(G).
    mid_h:   midpoint of the bounding semicircle lying on bd(H).
    thickness: distance between the two semicircle midpoints, in (0, pi).
    """

    g: np.ndarray
    h: np.ndarray
    corners: tuple
    mid_g: np.ndarray
    mid_h: np.ndarray
    thickness: float


def lune_make(g, h) -> Lune:
    """Build the lune G intersect H from the centers of G and H, normalized here.

    The midpoint of the semicircle bd(G) inside H is the point of bd(G)
    nearest h's center, its projection (ch - (cg . ch) cg) / sin, which is
    corner x cg for the unit corner (cg x ch) / sin; symmetrically,
    ch x corner for H.  The cross products keep the digits that the
    projection loses at nearly equal or antipodal centers.  Both centers are
    normalized in one pass and both midpoints crossed in one; each pass is
    elementwise, so its bits are those of one vector at a time.
    """
    cg, ch = normalize(np.array([g, h], dtype=float))
    ang = float(dist(cg, ch))
    if ang < DEGENERATE_TOL or ang > math.pi - DEGENERATE_TOL:
        raise DegenerateLune("hemisphere centers equal or antipodal")
    # cg x ch = cg x (ch - cg) = cg x (ch + cg): the shorter of ch -/+ cg is
    # exact where cg x ch would cancel
    corner = normalize(cross(cg, ch - cg if cg @ ch > 0.0 else ch + cg))
    mid_g, mid_h = cross(np.array([corner, ch]), np.array([cg, corner]))
    thickness = float(dist(mid_g, mid_h))
    return Lune(g=cg, h=ch, corners=(corner, -corner), mid_g=mid_g, mid_h=mid_h,
                thickness=thickness)


def lune_contains(lune: Lune, body, tol: float = 1e-10) -> bool:
    """True when the body lies inside both hemispheres of the lune.

    `body` is a SphericalBody: its arc table gives the support minima.
    """
    dirs = np.array([lune.g, lune.h])
    return bool(np.all(body.arcs.support_extreme(dirs) >= -tol))


def orthonormal_frame(n) -> tuple:
    """Deterministic right-handed tangent basis (u, v) with u x v = n."""
    n = normalize(n)
    ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = normalize(cross(ref, n))
    v = cross(n, u)
    return u, v
