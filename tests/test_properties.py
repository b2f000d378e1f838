"""Property tests on generated bodies and polygons: the closed-form farthest
point and the width/diameter identities built on it, the planar hull against
Qhull, the support-function polygon Hausdorff distance, the exact Wulff dual,
the polar-dual involution, lossless persistence and boundary validation.

Example counts are bounded and the search is derandomized, so the suite is
deterministic and its runtime fixed; it lives apart from the acceptance gate.
"""

import math
import os
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from lunes import body as bd
from lunes import construct, io, metrics, wulff
from lunes.errors import (DegenerateHull, InconsistentVerdicts,
                          InvariantViolation, LunesError)
from lunes.sphere import dist, orthonormal_frame

DENSE = 4096  # boundary samples of the brute-force farthest-point oracle

BOUNDED = settings(max_examples=20, deadline=None, derandomize=True)

units = st.builds(lambda z, az: np.array([math.sqrt(1.0 - z * z) * math.cos(az),
                                          math.sqrt(1.0 - z * z) * math.sin(az), z]),
                  st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi))


def _cap_point(axis, polar, azimuth):
    u, v = orthonormal_frame(axis)
    return (math.sin(polar) * (math.cos(azimuth) * u + math.sin(azimuth) * v)
            + math.cos(polar) * axis)


@st.composite
def cap_points(draw, count, radius):
    axis = draw(units)
    angles = st.tuples(st.floats(0.0, radius), st.floats(0.0, 2 * math.pi))
    return np.stack([_cap_point(axis, *draw(angles)) for _ in range(count)])


@st.composite
def polygons(draw):
    pts = draw(cap_points(draw(st.integers(3, 9)), draw(st.floats(0.2, 1.2))))
    try:
        return bd.hull_from_points(pts)
    except LunesError:
        assume(False)


@st.composite
def caps(draw):
    return construct.cap(draw(units), draw(st.floats(0.05, 1.5)))


@st.composite
def cd_triangles(draw):
    v = draw(cap_points(3, math.pi / 4))
    try:
        return construct.constant_diameter_triangle(*v)
    except LunesError:
        assume(False)


bodies = st.one_of(polygons(), caps(), cd_triangles())


# a sliver triangle 5e-5 thick: its dual curve has points nearly pi apart,
# where arccos of a dot product loses digits
SLIVER = bd.polygon_from_vertices([_cap_point(np.array([0.0, 0.0, 1.0]), polar, az)
                                   for polar, az in ((0.5, 0.0), (5e-5, math.pi / 2),
                                                     (0.5, math.pi))])


def _curves(body):
    return (body.arcs, body.dual_arcs)


@settings(BOUNDED, max_examples=30)
@given(bodies)
@example(SLIVER)
def test_farthest_point_beats_dense_sampling(body):
    for arcs in _curves(body):
        _, queries = arcs.sample_points(64)
        vals, params = arcs.support_min_at(queries)
        assert np.array_equal(vals, arcs.support_extreme(queries))
        farthest = arcs.point_at(params)
        # the returned point attains the returned minimum ...
        assert np.max(np.abs(np.sum(queries * farthest, axis=1) - vals)) <= 1e-12
        # ... and no boundary point lies farther
        far = metrics._farthest(arcs, queries)
        _, dense = arcs.sample_points(DENSE)
        brute = dist(queries[:, None, :], dense[None, :, :]).max(axis=1)
        assert np.all(far >= brute - 1e-12)


@BOUNDED
@given(bodies)
def test_thickness_at_most_diameter(body):
    assert metrics.thickness(body).value <= metrics.diameter(body).value + 1e-12


@BOUNDED
@given(bodies)
def test_thickness_plus_dual_diameter_is_pi(body):
    dual = bd.polar_dual(body)
    assert abs(metrics.thickness(body).value + metrics.diameter(dual).value
               - math.pi) <= 1e-9
    assert abs(metrics.thickness(dual).value + metrics.diameter(body).value
               - math.pi) <= 1e-9


# -- planar hull ---------------------------------------------------------------

# coordinates on a 1/64 grid make every turn of three points exactly zero or
# at least 2**-12, so no generated set sits on the roundoff threshold, where
# the two hulls may legitimately differ
coords = st.integers(-64, 64).map(lambda k: k / 64)
clouds = st.lists(st.tuples(coords, coords), min_size=3, max_size=40).map(np.array)


@st.composite
def edge_samples(draw):
    """Points along the edges of a convex grid polygon: long collinear runs."""
    cloud = draw(clouds)
    try:
        verts = cloud[ConvexHull(cloud).vertices]
    except QhullError:
        assume(False)
    per_edge = draw(st.sampled_from([1, 2, 4, 8]))
    t = np.arange(per_edge) / per_edge
    edges = np.roll(verts, -1, axis=0) - verts
    pts = (verts[:, None, :] + t[None, :, None] * edges[:, None, :]).reshape(-1, 2)
    return pts[draw(st.permutations(range(len(pts))))]


@st.composite
def with_twins(draw):
    """A cloud with some points repeated exactly or within roundoff."""
    pts = draw(clouds)
    picks = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=6))
    shift = draw(st.sampled_from([0.0, 1e-16, 2e-16]))
    return np.concatenate([pts, pts[picks] * (1.0 + shift)])


@st.composite
def star_sets(draw):
    """A cloud in order of angle about the origin."""
    pts = draw(clouds)
    return pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]), kind="stable")]


def _pentagon_gamma_points():
    """wulff_shape's dual points for the gamma of a regular pentagon: every
    corner appears twice, within 1e-16 (an edge-normal angle and a grid
    angle)."""
    shape = wulff.WulffShape(0.7 * np.column_stack(
        [np.cos(2 * math.pi * np.arange(5) / 5), np.sin(2 * math.pi * np.arange(5) / 5)]))
    gamma = wulff.polygon_gamma(shape)
    ang = np.unique(np.concatenate([2 * math.pi * np.arange(720) / 720, gamma.angles]))
    return np.column_stack([np.cos(ang), np.sin(ang)]) / gamma(ang)[:, None]


@settings(BOUNDED, max_examples=80)
@given(st.one_of(clouds, edge_samples(), with_twins(), star_sets()))
@example(_pentagon_gamma_points())
@example(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
@example(np.array([[0.0, 0.0], [1.0, 1.0]]))
def test_planar_hull_matches_qhull(pts):
    try:
        expected = pts[ConvexHull(pts).vertices]
    except QhullError:
        with pytest.raises(DegenerateHull):
            bd.planar_hull(pts)
        return
    got = pts[bd.planar_hull(pts)]
    # the same vertex set, counterclockwise and strictly convex
    scale = float(np.max(np.abs(pts)))
    assert len(got) == len(expected)
    gap = np.linalg.norm(got[:, None, :] - expected[None, :, :], axis=2)
    assert np.all(gap.min(axis=1) <= 1e-12 * scale)
    assert np.all(gap.min(axis=0) <= 1e-12 * scale)
    edges = np.roll(got, -1, axis=0) - got
    nxt = np.roll(edges, -1, axis=0)
    assert np.all(edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0] > 0.0)


def test_degenerate_hull_inputs_rejected():
    arc = np.array([[math.cos(t), math.sin(t), 0.0] for t in (0.0, 0.2, 0.5, 0.9)])
    for pts in (arc, arc[:2]):  # on one great circle; two points
        with pytest.raises(DegenerateHull):
            bd.hull_from_points(pts)


# -- polygon Hausdorff distance ------------------------------------------------


def _polygon_point_distance(p, verts):
    """Distance from p to the convex polygon (0 inside), by brute force."""
    edges = np.roll(verts, -1, axis=0) - verts
    rel = p - verts
    if np.all(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0] >= 0.0):
        return 0.0
    t = np.clip(np.sum(rel * edges, axis=1) / np.sum(edges * edges, axis=1), 0.0, 1.0)
    return float(np.min(np.linalg.norm(rel - t[:, None] * edges, axis=1)))


def _brute_hausdorff(a, b):
    """Reference: the largest vertex-to-polygon distance either way (the
    distance to a convex set is convex, so a vertex attains the maximum)."""
    return max(max(_polygon_point_distance(p, b) for p in a),
               max(_polygon_point_distance(p, a) for p in b))


@st.composite
def convex_polygons(draw):
    k = draw(st.integers(3, 12))
    pts = np.array(draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                 min_size=k, max_size=k)))
    try:
        hull = ConvexHull(pts)
    except QhullError:
        assume(False)
    assume(hull.volume > 1e-2)
    return pts[hull.vertices]  # counterclockwise


def _near_collinear(verts, lift):
    """verts with a vertex added at every edge midpoint, pushed out by
    lift times the edge length (0 puts it on the edge)."""
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    mids = verts + 0.5 * edges + lift * normals
    return np.stack([verts, mids], axis=1).reshape(-1, 2)


@st.composite
def polygon_pairs(draw):
    a = draw(convex_polygons())
    relation = draw(st.sampled_from(
        ["nested", "disjoint", "overlapping", "identical", "near_collinear"]))
    if relation == "nested":
        center = a.mean(axis=0)
        b = center + draw(st.floats(0.1, 0.9)) * (a - center)
    elif relation == "disjoint":
        b = draw(convex_polygons()) + np.array([3.0, draw(st.floats(-3.0, 3.0))])
    elif relation == "overlapping":
        b = draw(convex_polygons()) + np.array([draw(st.floats(-0.5, 0.5)),
                                                draw(st.floats(-0.5, 0.5))])
    elif relation == "identical":
        b = a.copy()
    else:
        b = _near_collinear(a, draw(st.sampled_from([0.0, 1e-12, 1e-9])))
    if draw(st.booleans()):
        a, b = b, a
    return a, b


@settings(BOUNDED, max_examples=60)
@given(polygon_pairs())
def test_hausdorff_polygons_matches_brute_force(pair):
    a, b = pair
    got = wulff.hausdorff_polygons(SimpleNamespace(vertices=a), SimpleNamespace(vertices=b))
    assert abs(got - _brute_hausdorff(a, b)) <= 1e-12


# -- exact Wulff dual ----------------------------------------------------------


def _centered(verts):
    """A WulffShape of the polygon moved so its vertex mean, an interior
    point, sits at the origin."""
    return wulff.WulffShape(verts - verts.mean(axis=0))


@BOUNDED
@given(convex_polygons())
def test_dual_wulff_is_an_involution(verts):
    shape = _centered(verts)
    twice = wulff.dual_wulff(wulff.dual_wulff(shape))
    scale = float(np.max(np.abs(shape.vertices)))
    assert wulff.hausdorff_polygons(twice, shape) <= 1e-12 * scale


@BOUNDED
@given(convex_polygons())
def test_dual_support_is_reciprocal_radial(verts):
    # the dual's support is gamma_bar(theta) = 1 / w(theta + pi), checked on
    # a fine grid united with the dual's edge normals
    shape = _centered(verts)
    g = wulff.polygon_gamma(wulff.dual_wulff(shape))
    w = wulff.radial_w(shape, g.angles + math.pi)
    assert np.max(np.abs(g.values * w - 1.0)) <= 1e-12


def test_report_raises_on_disagreeing_verdicts(octant, monkeypatch):
    # the projected octant is exactly self-dual (a strict pass); a constant
    # width verdict failing far beyond tolerance contradicts it
    def failing_width(body, tol=1e-6, n=720):
        verdict = metrics.is_constant_width(body, tol=tol, n=n)
        return replace(verdict, passed=False, deviation=1.0)

    fr = wulff.frame_at(octant.enclosing_center)
    shape = wulff.project_to_plane(octant, fr, n=720)
    monkeypatch.setattr(wulff, "is_constant_width", failing_width)
    with pytest.raises(InconsistentVerdicts):
        wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720)


# -- bodies: polar dual, persistence, validation --------------------------------


def _ends(body):
    """Each arc's end: the next arc's start."""
    return np.roll(body.starts, -1, axis=0)


def _cyclic_gap(body, other):
    """Largest array difference between two boundaries under the best cyclic
    relabelling of the arcs (inf when the arc counts differ)."""
    if len(other.radii) != len(body.radii):
        return math.inf
    return min(max(float(np.max(np.abs(np.roll(x, s, axis=0) - y)))
                   for x, y in zip((other.centers, other.radii, other.starts, _ends(other)),
                                   (body.centers, body.radii, body.starts, _ends(body))))
               for s in range(len(body.radii)))


@BOUNDED
@given(bodies)
def test_double_polar_dual_reproduces_body(body):
    twice = bd.polar_dual(bd.polar_dual(body))
    assert _cyclic_gap(body, twice) <= 1e-12


@BOUNDED
@given(bodies)
def test_save_load_save_is_byte_identical(body):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        io.save_body(body, first)
        io.save_body(io.load_body(first), second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def _rotated(x, axis, angle):
    """x rotated by angle about the unit axis (Rodrigues)."""
    return (x * math.cos(angle) + np.cross(axis, x) * math.sin(angle)
            + axis * (axis @ x) * (1.0 - math.cos(angle)))


def _arcs(body):
    return [list(row) for row in zip(body.centers, body.radii, body.starts, _ends(body))]


def _open_boundary(body):
    arcs = _arcs(body)
    center, _, _, end = arcs[0]
    arcs[0][3] = _rotated(end, center, -0.1)  # slide the end back along its circle
    return arcs


def _off_radius(body):
    arcs = _arcs(body)
    center, _, _, end = arcs[0]
    away = np.cross(center, end)
    arcs[0][3] = _rotated(end, away / np.linalg.norm(away), 1e-9)
    return arcs


def _full_circle_added(body):
    cap = construct.cap(body.enclosing_center, 0.01)
    return _arcs(body) + _arcs(cap)


@BOUNDED
@given(bodies, st.sampled_from([(_open_boundary, "closed boundary"),
                                (_off_radius, "segment radius"),
                                (_full_circle_added, "closed boundary")]))
def test_broken_boundaries_rejected(body, breakage):
    breaker, invariant = breakage
    with pytest.raises(InvariantViolation, match=invariant):
        bd.SphericalBody(breaker(body))


@BOUNDED
@given(polygons(), st.integers(0, 8), st.floats(0.05, 0.5))
def test_reflex_junction_rejected(poly, k, depth):
    # vertex k is reflected across the chord of its neighbours, so the
    # junction there turns right; it must start at least 1e-3 off the chord
    # for the dent to exceed the boundary tolerances
    verts = np.array(poly.vertices)
    n = len(verts)
    assume(n >= 4)
    k %= n
    prev, nxt = verts[k - 1], verts[(k + 1) % n]
    chord = np.cross(prev, nxt)
    assume(abs(verts[k] @ chord) >= 1e-3 * np.linalg.norm(chord))
    mid = (prev + nxt) / np.linalg.norm(prev + nxt)
    dent = mid - depth * (verts[k] - mid)
    verts[k] = dent / np.linalg.norm(dent)
    succ = np.roll(verts, -1, axis=0)
    poles = np.cross(verts, succ)
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    with pytest.raises(InvariantViolation):
        bd.SphericalBody([(c, math.pi / 2, a, b) for c, a, b in zip(poles, verts, succ)])


@BOUNDED
@given(polygons(), st.integers(0, 8), st.floats(0.1, 0.9), st.floats(0.5, 2.0))
def test_tiny_reflex_dent_rejected(poly, k, at, depth):
    # two vertices 8.4e-9 apart on edge k with a third between them pushed
    # inward by about that much: a dent far below the sampled winding check,
    # which the signed junction turn must report as a convexity fault
    verts = np.array(poly.vertices)
    k %= len(verts)
    a, b = verts[k], verts[(k + 1) % len(verts)]
    pole = np.cross(a, b)
    pole /= np.linalg.norm(pole)
    p = _rotated(a, pole, at * float(dist(a, b)))
    q = _rotated(p, pole, 8.4e-9)
    dent = 0.5 * (p + q) + depth * 8.4e-9 * pole  # the interior is left of a -> b
    dented = np.insert(verts, k + 1, [p, dent / np.linalg.norm(dent), q], axis=0)
    with pytest.raises(InvariantViolation, match="convexity: reflex junction"):
        bd.polygon_from_vertices(dented)
