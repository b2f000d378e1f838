"""Shared fixtures: reference bodies, random-corpus generators, acceptance log."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from lunes import body as bd
from lunes import construct, wulff
from lunes.sphere import orthonormal_frame as sphere_frame
from lunes.errors import LunesError

HALF_PI = math.pi / 2

# One line per acceptance criterion, echoed in the terminal summary so the
# pass/fail status of each is visible even when every test passes.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"FAIL  criterion {num:2d}: {text}")
        raise
    ACCEPTANCE_LINES.append(f"PASS  criterion {num:2d}: {text}")


# -- random generators -------------------------------------------------------


def cap_points(rng: np.random.Generator, k: int, cap_rad: float) -> np.ndarray:
    """k points uniform on the cap of the given radius around the z-axis."""
    z = rng.uniform(math.cos(cap_rad), 1.0, size=k)
    az = rng.uniform(0.0, 2 * math.pi, size=k)
    r = np.sqrt(1.0 - z ** 2)
    return np.c_[r * np.cos(az), r * np.sin(az), z]


def random_unit(rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    v = rng.normal(size=3 if k is None else (k, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_cd_triangle_vertices(rng: np.random.Generator,
                                cap_rad: float = math.pi / 4) -> np.ndarray:
    """Vertex triple in the cap, rejection-sampled until all corner radii >= 0."""
    while True:
        v = cap_points(rng, 3, cap_rad)
        try:
            construct.solve_corner_radii(v)
        except LunesError:
            continue
        return v


def random_cd_gon_vertices(rng: np.random.Generator, n: int, cap_rad: float,
                           min_gap: float = 0.15) -> np.ndarray:
    """n-gon vertices in convex position with a solvable corner-radius system."""
    while True:
        az = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
        gaps = np.diff(np.concatenate([az, [az[0] + 2 * math.pi]]))
        if gaps.min() < min_gap:
            continue
        pol = rng.uniform(0.3 * cap_rad, cap_rad, size=n)
        v = np.c_[np.sin(pol) * np.cos(az), np.sin(pol) * np.sin(az),
                  np.cos(pol)]
        try:
            construct.solve_corner_radii(v)
        except LunesError:
            continue
        return v


def mixed_cd_triangle_vertices(a: float, eps: float = 0.0) -> np.ndarray:
    """Triangle over (0, 0, 1), (sin a, 0, cos a) and (sin a cos phi,
    sin a sin phi, cos a), phi chosen so the far side is 2a - pi/2 + 2 eps
    long.  The corner radius at (0, 0, 1) is eps: at eps = 0 its
    constant-diameter body has 5 arcs, one of them great."""
    cos_phi = (math.sin(2 * a + 2 * eps) - math.cos(a) ** 2) / math.sin(a) ** 2
    sin_phi = math.sqrt(1.0 - cos_phi ** 2)
    return np.array([[0.0, 0.0, 1.0], [math.sin(a), 0.0, math.cos(a)],
                     [math.sin(a) * cos_phi, math.sin(a) * sin_phi, math.cos(a)]])


def facing(v: np.ndarray):
    """Per side i of the odd gon v (from vertex i to i + 1, counterclockwise),
    the distance of the vertex i + k + 1 that faces it from its great circle,
    and how far that vertex's foot lies outside the side, along the circle
    (negative inside)."""
    n = len(v)
    a, b, w = v, np.roll(v, -1, axis=0), np.roll(v, -(n // 2 + 1), axis=0)
    pole = np.cross(a, b)
    pole /= np.linalg.norm(pole, axis=1)[:, None]
    ahead = np.cross(pole, a)
    dist = np.arctan2(np.sum(w * pole, axis=1), np.linalg.norm(np.cross(w, pole), axis=1))
    along = np.arctan2(np.sum(w * ahead, axis=1), np.sum(w * a, axis=1))
    length = np.arctan2(np.sum(b * ahead, axis=1), np.sum(b * a, axis=1))
    return dist, np.maximum(-along, along - length)


def equidistant_gon_vertices(rng: np.random.Generator, n: int, thickness: float,
                             jitter=(0.003, 0.03)) -> np.ndarray | None:
    """The vertices of an odd n-gon near the regular one of the given
    thickness (below pi/2), each vertex at that distance from the side it
    faces: each regular vertex moved by a random jitter (radians, uniform in
    the given range) in a random direction, then Gauss-Newton steps,
    least-norm on the tangent planes, to a residual of 1e-15.  None when
    the steps do not settle."""
    v = construct.regular_odd_gon(n, thickness).vertices
    frames = np.array([sphere_frame(p) for p in v])
    turn = rng.uniform(0.0, 2 * math.pi, n)[:, None]
    v = v + rng.uniform(*jitter, n)[:, None] * (np.cos(turn) * frames[:, 0]
                                                + np.sin(turn) * frames[:, 1])
    v /= np.linalg.norm(v, axis=1)[:, None]
    for _ in range(40):
        r = facing(v)[0] - thickness
        if np.abs(r).max() <= 1e-15:
            return v
        frames = np.array([sphere_frame(p) for p in v])
        jac = np.empty((n, 2 * n))
        for j in range(2 * n):
            moved = v.copy()
            moved[j // 2] += 1e-7 * frames[j // 2, j % 2]
            moved[j // 2] /= np.linalg.norm(moved[j // 2])
            jac[:, j] = (facing(moved)[0] - thickness - r) / 1e-7
        delta = np.linalg.lstsq(jac, -r, rcond=None)[0].reshape(n, 2)
        v = v + np.einsum("ij,ijk->ik", delta, frames)
        v /= np.linalg.norm(v, axis=1)[:, None]
    return None


def reduced_gon_vertices(rng: np.random.Generator, n: int, thickness: float,
                         jitter=(0.003, 0.03)) -> np.ndarray | None:
    """equidistant_gon_vertices kept only when every vertex's foot lies
    inside the side it faces: by Lassak's rule (Colloq. Math. 138, 2015) a
    reduced polygon; None otherwise."""
    v = equidistant_gon_vertices(rng, n, thickness, jitter)
    return v if v is not None and (facing(v)[1] < 0.0).all() else None


def cd_induced() -> bd.SphericalBody:
    """The 720-arc polygon over the projection of a constant-diameter
    triangle: its image's vertices, lifted as a vertex-only shape, which
    keeps no source to lift instead."""
    tri = construct.constant_diameter_triangle(
        np.array([0.6, 0.0, 0.8]), np.array([-0.3, 0.52, 0.8]), np.array([-0.3, -0.52, 0.8]))
    frame = wulff.frame_at(tri.enclosing_center)
    shape = wulff.WulffShape(wulff.project_to_plane(tri, frame, n=720).vertices)
    return wulff.induce_spherical(shape, frame)


def lens(c1, r1, c2, r2) -> bd.SphericalBody:
    """The intersection of the caps of radius r1 about c1 and r2 about c2,
    as two arcs: about c1 from the corner on the side of c2 x c1 to the one
    on the side of c1 x c2, and back about c2.  The circles must cross."""
    c1, c2 = (np.asarray(c, dtype=float) / np.linalg.norm(c) for c in (c1, c2))
    g = float(c1 @ c2)
    alpha, beta = np.linalg.solve([[1.0, g], [g, 1.0]], [math.cos(r1), math.cos(r2)])
    base, a = alpha * c1 + beta * c2, np.cross(c1, c2)
    h = a * math.sqrt(1.0 - base @ base) / np.linalg.norm(a)
    return bd.SphericalBody(bd.Boundary(np.array([c1, c2]), np.array([r1, r2]),
                                        np.array([base - h, base + h])))


# the polar dual of this lens is the stadium: 4 arcs, 0 corners, and widths
# on its curved arcs up to 0.459 above its thickness
STADIUM_LENS = ((math.sin(0.25), 0.0, math.cos(0.25)), 1.0,
                (-math.sin(0.25), 0.0, math.cos(0.25)), 1.0)


# -- shared reference bodies --------------------------------------------------


@pytest.fixture(scope="session")
def octant():
    return bd.polygon_from_vertices(np.eye(3))


@pytest.fixture(scope="session")
def quarter_cap():
    return construct.cap(np.array([0.0, 0.0, 1.0]), math.pi / 4)


@pytest.fixture(scope="session")
def cd_triangle():
    """One fixed nontrivial constant-diameter triangle body (all radii > 0)."""
    rng = np.random.default_rng(42)
    v = random_cd_triangle_vertices(rng)
    return construct.constant_diameter_triangle(v[0], v[1], v[2])


@pytest.fixture(scope="session")
def regular_gons():
    """Regular odd-gons for the thickness sweep, built once per session."""
    out = {}
    for n in (3, 5, 7):
        for tgt in (0.6, 1.0, 1.4, HALF_PI):
            out[(n, tgt)] = construct.regular_odd_gon(n, tgt)
    return out


@pytest.fixture(scope="session")
def random_polygons():
    """A shared batch of deterministic random convex polygons."""
    return [construct.random_convex_polygon(seed, n=4 + seed % 5,
                                            max_diam=0.6 + 0.1 * (seed % 7))
            for seed in range(12)]
