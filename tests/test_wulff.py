"""Wulff shapes: construction, radial/dual functions, projection bridge."""

import json
import math

import numpy as np
import pytest

from lunes import body as bd
from lunes import construct, io, metrics, sphere, wulff
from lunes.errors import (EmptyInterior, InvalidSpec, InvariantViolation,
                          NotInHemisphere, PoleNotInterior)

from conftest import mixed_cd_triangle_vertices, random_cd_triangle_vertices

Z = np.array([0.0, 0.0, 1.0])
SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
DIAMOND = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
# Hausdorff gap between the 360-gon circumscribing the unit circle and its
# dual, the 360-gon inscribed in it
DISK_GAP = 1.0 / math.cos(math.pi / 360) - math.cos(math.pi / 360)


@pytest.fixture(scope="module")
def square():
    return wulff.WulffShape(SQUARE.copy())


@pytest.fixture(scope="module")
def disk():
    return wulff.wulff_shape(wulff.GammaFn.constant(1.0), n=360)


class TestGammaFn:
    def test_constant_and_callable(self):
        g = wulff.GammaFn.constant(2.0)
        assert g(0.0) == 2.0 and g(5.0) == 2.0
        ang = 2 * math.pi * np.arange(256) / 256
        h = wulff.GammaFn(ang, 1.0 + 0.5 * np.cos(ang) ** 2)
        assert h(0.0) == pytest.approx(1.5, abs=1e-4)
        assert h(math.pi / 2) == pytest.approx(1.0, abs=1e-4)

    def test_periodic_interpolation(self):
        ang = np.array([0.0, math.pi])
        g = wulff.GammaFn(ang, np.array([1.0, 3.0]))
        assert g(0.0) == pytest.approx(1.0)
        assert g(2 * math.pi) == pytest.approx(1.0)
        assert g(math.pi / 2) == pytest.approx(2.0)
        assert g(3 * math.pi / 2) == pytest.approx(2.0)  # wraps around

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSpec):
            wulff.GammaFn.constant(-1.0)
        with pytest.raises(InvalidSpec):
            wulff.GammaFn(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


class TestWulffShape:
    def test_unit_gamma_circumscribes_disk(self, disk):
        theta = np.linspace(0.0, 2 * math.pi, 511)
        r = disk.radial(theta)
        assert np.all(r >= 1.0 - 1e-12)
        assert np.all(r <= 1.0 / math.cos(math.pi / 360) + 1e-12)

    def test_square_radial_values(self, square):
        assert square.radial(0.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert square.radial(math.pi / 4)[0] == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        theta = np.linspace(0.0, 2 * math.pi, 97)
        assert np.allclose(square.radial(theta),
                           square.radial(theta + 2 * math.pi),
                           atol=1e-12)

    def test_support_sampled_square(self, square):
        ang = 2 * math.pi * np.arange(360) / 360
        g = wulff.GammaFn(ang, np.abs(np.cos(ang)) + np.abs(np.sin(ang)))
        shape = wulff.wulff_shape(g, n=360)
        assert wulff.hausdorff_polygons(shape, square) <= 1e-3

    def test_inactive_halfplane_ignored(self):
        # a huge gamma value contributes no face; the shape only changes
        # inside the wedge whose face disappeared
        ang = 2 * math.pi * np.arange(64) / 64
        spiked = np.ones(64)
        spiked[17] = 50.0
        a = wulff.wulff_shape(wulff.GammaFn(ang, np.ones(64)), n=64)
        b = wulff.wulff_shape(wulff.GammaFn(ang, spiked), n=64)
        assert len(a.vertices) == 64 and len(b.vertices) == 63
        assert all(b.contains(v, tol=1e-12) for v in a.vertices)
        theta = ang[np.abs(np.arange(64) - 17) > 1]
        assert np.allclose(b.radial(theta), a.radial(theta), atol=1e-12)

    @pytest.mark.parametrize("far", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_one_far_sample(self, far):
        # one of 8 samples far from the other seven: its dual point lies
        # 1 / far out, or deep inside, and the dual points are centered on
        # size 1 so no product of two leaves the range.  A tiny sample is a
        # face beside the origin; a huge one is no face, so the shape is the
        # one a nearer sample (far ** 0.1) gives, bit for bit
        ang = 2 * math.pi * np.arange(8) / 8
        gamma = wulff.GammaFn(ang, np.array([far] + [1.0] * 7))
        near = wulff.wulff_shape(wulff.GammaFn(ang, np.array([far ** 0.1] + [1.0] * 7)))
        shape = wulff.wulff_shape(gamma)
        dirs = np.unique(np.concatenate([2 * math.pi * np.arange(720) / 720, ang]))
        u = np.column_stack([np.cos(dirs), np.sin(dirs)])
        assert float(np.max(shape.vertices @ u.T - gamma(dirs))) <= 1e-13
        assert len(shape.vertices) == len(near.vertices)
        if far > 1.0:
            assert np.array_equal(shape.vertices, near.vertices)

    @pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
    def test_vertices_checked_as_given(self, scale):
        # nothing is merged: a repeated vertex, a ring closed by a copy of
        # its first vertex and a NaN are rejected at every scale, and a tiny
        # square keeps its four vertices
        nan = float("nan")
        for verts, message in [
                (np.insert(SQUARE, 2, SQUARE[1], axis=0), "repeated vertex"),
                (np.vstack([SQUARE, SQUARE[:1]]), "repeated vertex"),
                ([[nan, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "non-finite vertex")]:
            with pytest.raises(InvalidSpec, match=message):
                wulff.WulffShape(scale * np.array(verts))
        tiny = wulff.WulffShape(1e-15 * SQUARE)
        assert np.array_equal(tiny.vertices, 1e-15 * SQUARE)

    @pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
    def test_pentagram_rejected(self, scale):
        # a {5/2} pentagram turns left at every vertex, has a positive
        # signed area and the origin inside every edge, but winds twice
        star = [[math.cos(0.8 * math.pi * k), math.sin(0.8 * math.pi * k)]
                for k in range(5)]
        with pytest.raises(InvariantViolation, match="do not wind once"):
            wulff.WulffShape(scale * np.array(star))

    def test_contains_and_origin_interior(self, square):
        assert square.contains(np.array([0.9, -0.9]))
        assert not square.contains(np.array([1.2, 0.0]))
        with pytest.raises(EmptyInterior):
            wulff.WulffShape(SQUARE + 5.0)

    def test_polygon_gamma_round_trip(self, square):
        g = wulff.polygon_gamma(square)
        for n in (360, 720, 1440):
            rebuilt = wulff.wulff_shape(g, n=n)
            assert wulff.hausdorff_polygons(rebuilt, square) <= 1e-12


class TestDualWulff:
    def test_dual_gamma_times_radial_is_one(self, square):
        # the dual's support is gamma_bar(theta) = 1 / w(theta + pi)
        g = wulff.polygon_gamma(wulff.dual_wulff(square))
        w = square.radial(g.angles + math.pi)
        assert np.max(np.abs(g.values * w - 1.0)) <= 1e-12

    def test_square_dual_is_diamond(self, square):
        d = wulff.dual_wulff(square, n=720)
        assert wulff.hausdorff_polygons(d, wulff.WulffShape(DIAMOND.copy())) \
            <= 1e-9
        ok, gap = wulff.is_self_dual(square, tol=1e-6, n=720)
        assert not ok
        assert gap == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_disk_self_dual(self, disk):
        # the 360-gon circumscribes the unit circle and its dual inscribes it
        ok, gap = wulff.is_self_dual(disk, tol=1e-6)
        assert not ok
        assert gap == pytest.approx(DISK_GAP, abs=1e-12)
        ok, _ = wulff.is_self_dual(disk, tol=1e-4)
        assert ok

    def test_involution_small_gap(self):
        ang = 2 * math.pi * np.arange(720) / 720
        g = wulff.GammaFn(ang, 1.0 + 0.3 * np.cos(2 * ang))
        shape = wulff.wulff_shape(g, n=720)
        twice = wulff.dual_wulff(wulff.dual_wulff(shape))
        assert wulff.hausdorff_polygons(twice, shape) <= 1e-12

    def test_scale_covariance(self, square):
        s = 1.7
        a = wulff.dual_wulff(square.scaled(s), n=360)
        b = wulff.dual_wulff(square, n=360).scaled(1.0 / s)
        assert wulff.hausdorff_polygons(a, b) <= 1e-9

    @pytest.mark.parametrize("values", [
        lambda ang: np.ones_like(ang),
        lambda ang: 0.5 * (1.0 + 0.08 * np.cos(3 * ang + 1.1)),
    ], ids=["constant", "build_style"])
    def test_every_vertex_kept_at_every_scale(self, values):
        # W(s gamma) = s W(gamma) and its dual is dual(W(gamma)) / s, vertex
        # for vertex, from s = 1e-15 to 1e15; the lists may start apart
        ang = 2 * math.pi * np.arange(720) / 720
        one = wulff.wulff_shape(wulff.GammaFn(ang, values(ang)))
        dual = wulff.dual_wulff(one)
        for s in 10.0 ** np.arange(-15, 16, 3):
            shape = wulff.wulff_shape(wulff.GammaFn(ang, s * values(ang)))
            assert len(shape.vertices) == len(one.vertices), s
            assert wulff.hausdorff_polygons(shape, one.scaled(s)) <= 1e-12 * s
            d = wulff.dual_wulff(shape)
            assert wulff.hausdorff_polygons(d, dual.scaled(1.0 / s)) <= 1e-12 / s
            assert wulff.hausdorff_polygons(wulff.dual_wulff(d), shape) <= 1e-12 * s

    @pytest.mark.parametrize("values", [
        lambda ang: np.ones_like(ang),
        lambda ang: 0.5 * (1.0 + 0.08 * np.cos(3 * ang + 1.1)),
    ], ids=["constant", "build_style"])
    def test_power_of_two_scale_is_exact(self, values):
        # W(2^j gamma) = 2^j W(gamma) and its dual is 2^-j dual(W(gamma)),
        # bit for bit, across the normal float range
        ang = 2 * math.pi * np.arange(720) / 720
        one = wulff.wulff_shape(wulff.GammaFn(ang, values(ang)))
        dual = wulff.dual_wulff(one)
        for j in range(-1000, 1001, 50):
            shape = wulff.wulff_shape(wulff.GammaFn(ang, np.ldexp(values(ang), j)))
            assert np.array_equal(shape.vertices, np.ldexp(one.vertices, j)), j
            assert np.array_equal(shape.normals, one.normals), j
            assert np.array_equal(shape.offsets, np.ldexp(one.offsets, j)), j
            d = wulff.dual_wulff(shape)
            assert np.array_equal(d.vertices, np.ldexp(dual.vertices, -j)), j


class TestProjection:
    def test_frame_is_orthonormal(self):
        fr = wulff.frame_at(np.array([1.0, 1.0, 1.0]))
        m = np.array([fr.u, fr.v, fr.pole])
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)

    def test_quarter_cap_projects_to_unit_disk(self, quarter_cap):
        fr = wulff.frame_at(Z)
        shape = wulff.project_to_plane(quarter_cap, fr, n=720)
        r = shape.radial(np.linspace(0, 2 * math.pi, 257))
        assert np.all(np.abs(r - 1.0) <= 1e-4)

    def test_polygon_round_trip_exact(self):
        poly = construct.random_convex_polygon(13, n=7, max_diam=1.0)
        fr = wulff.frame_at(poly.enclosing_center)
        shape = wulff.project_to_plane(poly, fr, n=720)
        back = wulff.induce_spherical(shape, fr, n=720)
        assert bd.hausdorff_bodies(poly, back, n=360) <= 1e-9

    @pytest.mark.parametrize("which", ["random_polygon", "cd_triangle"])
    def test_induce_lifts_vertices(self, which, cd_triangle):
        body = (construct.random_convex_polygon(13, n=7, max_diam=1.0)
                if which == "random_polygon" else cd_triangle)
        fr = wulff.frame_at(body.enclosing_center)
        shape = wulff.project_to_plane(body, fr, n=720)
        induced = wulff.induce_spherical(shape, fr)
        xy = shape.vertices
        lifts = sphere.normalize(fr.pole + xy[:, :1] * fr.u + xy[:, 1:] * fr.v)
        assert len(induced.radii) == len(xy)
        # the junction at the end of edge i is the lift of vertex i + 1
        assert np.max(np.abs(induced.vertices - np.roll(lifts, -1, axis=0))) <= 1e-15

    @pytest.mark.parametrize("seed, k", [(13, 7), (1, 8), (5, 4)])
    def test_polygon_projects_its_vertices(self, seed, k):
        # the image of a polygon is the polygon over its projected vertices,
        # listed from the projection of starts[0] on
        poly = construct.random_convex_polygon(seed, n=k, max_diam=1.0)
        fr = wulff.frame_at(poly.enclosing_center)
        shape = wulff.project_to_plane(poly, fr, n=720)
        xy = _projected(poly.starts, fr)
        assert shape.vertices.shape == xy.shape
        assert np.max(np.abs(shape.vertices - xy)) <= 1e-15

    def test_tiny_corner_radius_round_trip(self):
        # a corner arc of radius 3e-8: the body builds, and the round trip
        # through its projection reports all five conditions
        body = construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.0, 3e-8))
        fr = wulff.frame_at(body.enclosing_center)
        shape = wulff.project_to_plane(body, fr, n=720)
        assert all(wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720).booleans)

    @pytest.mark.parametrize("a", [0.8, 1.0, 1.3])
    def test_great_arc_projects_to_one_edge(self, a):
        # a constant-diameter triangle with one zero corner radius: 5 arcs,
        # one great.  Its image is one segment from the projection of the
        # great arc's start to that of the next arc's start, and the
        # round-trip report is all True.
        body = construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(a))
        great = np.flatnonzero(body.radii == bd.HALF_PI)
        assert len(body.radii) == 5 and len(great) == 1
        fr = wulff.frame_at(body.enclosing_center)
        shape = wulff.project_to_plane(body, fr, n=720)
        ends = _projected(body.starts[[great[0], (great[0] + 1) % 5]], fr)
        i = int(np.argmin(np.linalg.norm(shape.vertices - ends[0], axis=1)))
        got = shape.vertices[[i, (i + 1) % len(shape.vertices)]]
        assert np.max(np.abs(got - ends)) <= 1e-15
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720)
        assert rep.booleans == [True] * 5

    def test_square_induces_known_diameter(self, square):
        fr = wulff.frame_at(Z)
        body = wulff.induce_spherical(square, fr, n=240)
        got = metrics.diameter(body, n=240).value
        assert got == pytest.approx(2 * math.atan(math.sqrt(2.0)), abs=1e-9)

    def test_body_outside_hemisphere_rejected(self):
        cap = construct.cap(Z, 0.3)
        with pytest.raises(NotInHemisphere):
            wulff.project_to_plane(cap, wulff.frame_at(np.array([1.0, 0, 0])))

    def test_pole_outside_body_rejected(self):
        cap = construct.cap(Z, 0.3)
        pole = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
        with pytest.raises(PoleNotInterior):
            wulff.project_to_plane(cap, wulff.frame_at(pole))


    def test_close_vertices_induce(self):
        # gamma sampled at 360 angles: wulff_shape returns two vertices
        # 8.7e-8 apart, whose great-circle pole must still be accurate to
        # well under the 1e-10 segment-radius tolerance
        theta = 2 * math.pi * np.arange(360) / 360
        gamma = wulff.GammaFn(theta, 0.5 * (1.0 + 0.08551392504081906 * np.cos(
            3 * theta + 1.1785438675345856)))
        pole = np.array([-0.7185475129856403, 0.20469931595145033, 0.6646710928204711])
        shape = wulff.wulff_shape(gamma)
        gaps = np.linalg.norm(np.roll(shape.vertices, -1, axis=0) - shape.vertices, axis=1)
        assert gaps.min() < 1e-7
        body = wulff.induce_spherical(shape, wulff.frame_at(pole))
        assert body.is_polygon and len(body.radii) > 600


def _projected(pts, fr):
    """Central projection of points at the frame's pole."""
    return np.column_stack([pts @ fr.u, pts @ fr.v]) / (pts @ fr.pole)[:, None]


def _lifted(shape, fr):
    """The shape's vertices lifted as induce_spherical lifts them."""
    x, y = shape.vertices.T
    return sphere.normalize(fr.pole + x[:, None] * fr.u + y[:, None] * fr.v)


def _roundtrip_shapes():
    """Projections at their own enclosing centers: eight constant-diameter
    triangles and four random polygons of seed 1, then the triangle that the
    CI smoke step projects."""
    rng = np.random.default_rng(1)
    bodies = [construct.constant_diameter_triangle(*random_cd_triangle_vertices(rng))
              for _ in range(8)]
    bodies += [construct.random_convex_polygon(1 + k, n=4 + 2 * k, max_diam=1.0)
               for k in range(4)]
    bodies.append(construct.constant_diameter_triangle(
        np.array([0.6, 0.0, 0.8]), np.array([-0.3, 0.52, 0.8]), np.array([-0.3, -0.52, 0.8])))
    for body in bodies:
        fr = wulff.frame_at(body.enclosing_center)
        yield wulff.project_to_plane(body, fr, n=720), fr


class TestInducedCenter:
    def test_pole_is_the_enclosing_center(self):
        # the pole replaces the searched center, and nothing a report reads
        # depends on which one the body holds
        for shape, fr in _roundtrip_shapes():
            induced = wulff.induce_spherical(shape, fr)
            assert np.array_equal(induced.enclosing_center, fr.pole)
            searched = bd.polygon_from_vertices(_lifted(shape, fr))
            assert not np.array_equal(searched.enclosing_center, fr.pole)
            docs = [json.dumps(io.report_to_doc(metrics.classify(b, tol=1e-4, n=720)))
                    for b in (induced, searched)]
            assert docs[0] == docs[1]

    def test_edge_near_the_pole_falls_back_to_the_search(self):
        # gamma 1e-8 at angle 0: an edge line 1e-8 from the origin, whose
        # great circle passes asin(1e-8) from the pole, under INTERIOR_MIN
        theta = 2 * math.pi * np.arange(720) / 720
        gamma = wulff.GammaFn(theta, np.where(np.arange(720) == 0, 1e-8, 1.0))
        shape, fr = wulff.wulff_shape(gamma), wulff.frame_at(Z)
        assert shape.offsets.min() == pytest.approx(1e-8, rel=1e-6)
        induced = wulff.induce_spherical(shape, fr)
        plain = bd.polygon_from_vertices(_lifted(shape, fr))
        for got, want in zip((induced.centers, induced.radii, induced.starts),
                             (plain.centers, plain.radii, plain.starts)):
            assert np.array_equal(got, want)
        assert np.array_equal(induced.enclosing_center, plain.enclosing_center)
        assert induced.enclosing_center @ fr.pole < 0.99

    def test_refused_pole_validates_once(self, monkeypatch):
        # the body that refuses the pole searches its own center: the
        # boundary and its dual are validated once each, not rebuilt
        calls = []
        validated = bd._validated
        monkeypatch.setattr(bd, "_validated", lambda *a: calls.append(1) or validated(*a))
        theta = 2 * math.pi * np.arange(720) / 720
        gamma = wulff.GammaFn(theta, np.where(np.arange(720) == 0, 1e-8, 1.0))
        shape, fr = wulff.wulff_shape(gamma), wulff.frame_at(Z)
        induced = wulff.induce_spherical(shape, fr)
        assert not np.array_equal(induced.enclosing_center, fr.pole)
        assert len(calls) == 2

    @pytest.mark.parametrize("x0, kept", [(-1.5e-6, True), (-1e-8, False)])
    def test_pole_kept_unless_the_body_refuses_it(self, x0, kept):
        # an edge line |x0| from the origin lifts to a great circle
        # asin(|x0|) from the pole: 1.5e-6 clears INTERIOR_MIN, 1e-8 does
        # not, and the body builds about a searched center
        shape = wulff.WulffShape(np.array([[x0, -1.0], [1.0, -1.0], [1.0, 1.0], [x0, 1.0]]))
        fr = wulff.frame_at(Z)
        induced = wulff.induce_spherical(shape, fr)
        assert np.array_equal(induced.enclosing_center, fr.pole) == kept
        assert induced.arcs.count == 4


class TestSelfDualReport:
    def test_disk_all_true(self, disk):
        rep = wulff.self_dual_equivalence_report(disk, wulff.frame_at(Z),
                                                 tol=1e-4, n=360)
        assert rep.booleans == [True] * 5
        assert rep.hausdorff_gap == pytest.approx(DISK_GAP, abs=1e-12)

    def test_square_all_false(self, square):
        rep = wulff.self_dual_equivalence_report(square, wulff.frame_at(Z),
                                                 tol=1e-4, n=360)
        assert rep.booleans == [False] * 5
        assert rep.hausdorff_gap > 0.1

    def test_cd_triangle_all_true(self, cd_triangle):
        fr = wulff.frame_at(cd_triangle.enclosing_center)
        shape = wulff.project_to_plane(cd_triangle, fr, n=720)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720,
                                                 dual_n=2880)
        assert rep.booleans == [True] * 5

    def test_octant_projection_self_dual(self, octant):
        # the projected octant is a triangle with corners, exactly self-dual
        fr = wulff.frame_at(octant.enclosing_center)
        shape = wulff.project_to_plane(octant, fr, n=720)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-6, n=720)
        assert rep.booleans == [True] * 5
        assert rep.hausdorff_gap <= 1e-12
