"""Wulff shapes: construction, radial/dual functions, projection bridge."""

import json
import math

import numpy as np
import pytest

from lunes import body as bd
from lunes import construct, io, metrics, sphere, wulff
from lunes.errors import (EmptyInterior, InvalidSpec, InvariantViolation,
                          NotInHemisphere, PoleNotInterior)

from conftest import lens, mixed_cd_triangle_vertices, random_cd_triangle_vertices

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

    @pytest.mark.parametrize("k", range(-20, 21, 5))
    def test_contains_is_scale_free(self, k):
        # the tolerance is relative to the shape's size: a vertex is in, a
        # point 1e-9 of the half-width past a face is out, at any scale
        scale = 10.0 ** k
        shape = wulff.WulffShape(scale * SQUARE)
        assert shape.contains(scale * SQUARE[0])
        assert not shape.contains(np.array([scale * (1 + 1e-9), 0.0]))
        assert not shape.contains(np.array([0.0, -scale * (1 + 1e-9)]))

    def test_subnormal_shape_refused(self):
        # a gamma of 1.4481e-319 would give a 720-gon on the 4.9e-324 grid,
        # breaking its own half-planes; the least normal float still builds
        with pytest.raises(InvalidSpec, match="below the normal float range"):
            wulff.wulff_shape(wulff.GammaFn.constant(1.4481e-319))
        with pytest.raises(InvalidSpec, match="below the normal float range"):
            wulff.WulffShape(5e-324 * SQUARE)
        tiny = np.finfo(float).tiny
        assert np.array_equal(wulff.WulffShape(tiny * SQUARE).vertices, tiny * SQUARE)

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

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", [96, 720, 1440])
    def test_dual_gamma_angles_in_range(self, k, n):
        # some of these duals have an edge normal within 4.4e-16 below angle
        # 0, which np.mod(., 2 pi) rounds up to 2 pi
        ang = 0.5 * math.pi * np.arange(4)
        g = wulff.GammaFn(ang, 1.0 + 0.05 * k * np.cos(2 * ang))
        dual = wulff.dual_wulff(wulff.wulff_shape(g, n=n))
        got = wulff.polygon_gamma(dual)
        assert got.angles[0] == 0.0 and got.angles[-1] < 2 * math.pi
        assert got(0.0) == np.max(dual.vertices[:, 0])  # the support along angle 0

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

    @pytest.mark.parametrize("pole", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0], [0.0, 0.0, 0.0]])
    def test_bad_pole_refused(self, pole):
        # a NaN basis fails no "> tol" test, so the frame requires "<= tol"
        with pytest.raises(InvalidSpec):
            wulff.frame_at(pole)
        with pytest.raises(InvalidSpec):
            wulff.ProjectionFrame(pole=pole, u=[1.0, 0.0, 0.0], v=[0.0, 1.0, 0.0])

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
        # a shape built from the image's vertices keeps no source, so it
        # lifts as the polygon over its lifted vertices
        body = (construct.random_convex_polygon(13, n=7, max_diam=1.0)
                if which == "random_polygon" else cd_triangle)
        fr = wulff.frame_at(body.enclosing_center)
        shape = wulff.WulffShape(wulff.project_to_plane(body, fr, n=720).vertices)
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

    @pytest.mark.parametrize("eps", [1e-9, 1.78e-9, 3.16e-9, 5.62e-9, 1e-8])
    def test_tiny_corner_radius_round_trip_below_1e_8(self, eps):
        # the polygon over the 720 samples of a corner arc this small has an
        # edge whose great circle misses its end by over 1e-10; the lift
        # returns the body's own arcs, so all five conditions hold
        body = construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.0, eps))
        fr = wulff.frame_at(body.enclosing_center)
        shape = wulff.project_to_plane(body, fr, n=720)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720)
        assert rep.booleans == [True] * 5
        assert rep.induced_body.arcs.count == len(body.radii)

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

    def test_refused_pole_raises_every_time(self):
        # a body answers each center once, but every projection at a
        # refused pole raises, with a fresh exception
        cap = construct.cap(Z, 0.3)
        for pole, error in ((np.array([1.0, 0, 0]), NotInHemisphere),
                            (np.array([math.sin(0.5), 0.0, math.cos(0.5)]), PoleNotInterior)):
            raised = []
            for _ in range(2):
                with pytest.raises(error) as info:
                    wulff.project_to_plane(cap, wulff.frame_at(pole))
                raised.append(info.value)
            assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


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
    """Vertex-only shapes over the projections at their own enclosing
    centers, so that each lifts as a polygon: eight constant-diameter
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
        yield wulff.WulffShape(wulff.project_to_plane(body, fr, n=720).vertices), fr


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


def _lift_cases():
    """(body, frame) pairs: a constant-diameter triangle, a random polygon,
    the octant and a triangle with a corner arc of radius 1e-9, each at its
    own enclosing center."""
    bodies = {
        "cd_triangle": construct.constant_diameter_triangle(
            np.array([0.6, 0.0, 0.8]), np.array([-0.3, 0.52, 0.8]),
            np.array([-0.3, -0.52, 0.8])),
        "random_polygon": construct.random_convex_polygon(13, n=7, max_diam=1.0),
        "octant": bd.polygon_from_vertices(np.eye(3)),
        "tiny_corner": construct.constant_diameter_triangle(
            *mixed_cd_triangle_vertices(1.0, 1e-9)),
    }
    return {k: (b, wulff.frame_at(b.enclosing_center)) for k, b in bodies.items()}


LIFT_CASES = ["cd_triangle", "random_polygon", "octant", "tiny_corner"]


def _two_tangent_error(body, frame, n):
    """How far the body's exact image can reach past the polygon of its n
    samples, as project_to_plane keeps them: a test oracle.  Every piece of
    curve between two samples lies on one arc, and its image is a convex
    arc inside the triangle that the chord cuts off the two end tangents,
    of height |c| / (cot a + cot b) over a chord c at angles a and b to
    them (none when a + b reaches pi); a great arc's piece is its chord."""
    arcs = body.arcs
    _, arc, t, pts = arcs.samples(max(n, arcs.count))
    keep = (arcs.radii[arc] < bd.HALF_PI) | (t == 0.0)
    arc, t, pts = arc[keep], t[keep], pts[keep]
    w = pts @ frame.pole
    xy = np.column_stack([pts @ frame.u / w, pts @ frame.v / w])
    nxt = np.roll(t, -1)
    end = np.where((np.roll(arc, -1) == arc) & (nxt > t), nxt, arcs.sweeps[arc])
    basis = np.column_stack([frame.u, frame.v, frame.pole])
    p = np.concatenate([pts, np.roll(pts, -1, axis=0)]) @ basis
    d = arcs._tangent(np.tile(arc, 2), np.concatenate([t, end])) @ basis
    tangents = np.column_stack([d[:, 0] * p[:, 2] - p[:, 0] * d[:, 2],
                                d[:, 1] * p[:, 2] - p[:, 1] * d[:, 2]])
    chord = np.tile(np.roll(xy, -1, axis=0) - xy, (2, 1))
    with np.errstate(divide="ignore"):
        cot = (np.sum(chord * tangents, axis=1)
               / np.abs(chord[:, 0] * tangents[:, 1] - chord[:, 1] * tangents[:, 0]))
        cot = cot.reshape(2, -1).sum(axis=0)
        sag = np.where(cot > 0.0, np.hypot(*chord[:len(cot)].T) / cot, np.inf)
    sag[arcs.radii[arc] >= bd.HALF_PI] = 0.0
    return float(sag.max())


def _gap_cases():
    """_lift_cases, a lens, and caps of radius 0.6, pi/4 + 1e-3 and 1 about
    the z axis, each at its own enclosing center."""
    h = 0.2
    bodies = {"lens": lens((math.sin(h), 0.0, math.cos(h)), 0.5,
                           (-math.sin(h), 0.0, math.cos(h)), 0.4)}
    bodies.update({f"cap_{r:.3g}": construct.cap(Z, r) for r in (0.6, math.pi / 4 + 1e-3, 1.0)})
    return {**_lift_cases(), **{k: (b, wulff.frame_at(b.enclosing_center))
                                for k, b in bodies.items()}}


class TestExactLift:
    @pytest.mark.parametrize("which", LIFT_CASES)
    def test_own_frame_returns_the_body(self, which):
        body, fr = _lift_cases()[which]
        induced = wulff.induce_spherical(wulff.project_to_plane(body, fr, n=720), fr)
        for got, want in zip((induced.centers, induced.radii, induced.starts),
                             (body.centers, body.radii, body.starts)):
            assert np.array_equal(got, want)
        assert np.array_equal(induced.enclosing_center, fr.pole)
        assert induced.meta == {"kind": "induced"}

    @pytest.mark.parametrize("which", LIFT_CASES[:3])
    def test_other_frame_lifts_the_polygon(self, which):
        # a second pole inside the body, and the projection pole with its
        # tangent basis turned a quarter: the source is the body as seen
        # from the projection frame only, so in these the shape lifts as
        # the polygon over its lifted vertices, as a vertex-only shape does.
        # Not the tiny corner: that polygon's edges over a corner arc of
        # radius 1e-9 miss their ends by over 1e-10
        body, fr = _lift_cases()[which]
        shape = wulff.project_to_plane(body, fr, n=720)
        tilted = wulff.frame_at(sphere.normalize(fr.pole + 0.02 * fr.u - 0.01 * fr.v))
        turned = wulff.ProjectionFrame(pole=fr.pole, u=fr.v, v=-fr.u)
        for other in (tilted, turned):
            assert body.refusal(other.pole) is None
            induced = wulff.induce_spherical(shape, other)
            polygon = wulff.induce_spherical(wulff.WulffShape(shape.vertices), other)
            assert induced.is_polygon and induced.arcs.count == len(shape.vertices)
            for got, want in zip((induced.centers, induced.radii, induced.starts),
                                 (polygon.centers, polygon.radii, polygon.starts)):
                assert np.array_equal(got, want)
            assert np.array_equal(induced.enclosing_center, other.pole)

    @pytest.mark.parametrize("which", LIFT_CASES)
    def test_own_frame_projection_makes_no_support_query(self, which, monkeypatch):
        # the body's constructor answered the refusal of its enclosing
        # center, so projecting with that center as the pole queries nothing
        body = _lift_cases()[which][0]
        center, queries, support = body.enclosing_center, [], bd._Arcs._support
        frame = wulff.ProjectionFrame(center, *sphere.orthonormal_frame(center))
        monkeypatch.setattr(bd._Arcs, "_support",
                            lambda arcs, d: queries.append(d) or support(arcs, d))
        wulff.project_to_plane(body, frame, n=720)
        assert queries == []

    @pytest.mark.parametrize("which", LIFT_CASES)
    def test_roundtrip_builds_one_body(self, which, monkeypatch, tmp_path):
        # load -> frame_at -> project_to_plane -> report, as lunes roundtrip
        # runs it: the load validates the boundary and its dual and samples
        # its center probe; the lift shares the loaded body's tables, and the
        # projection and the report's profile read one sampling of 720
        path = str(tmp_path / "body.json")
        io.save_body(_lift_cases()[which][0], path)
        calls = {"validated": 0, "init": 0, "params": []}
        validated, init, placed = bd._validated, bd.SphericalBody.__init__, bd._Arcs._placed

        def count_validated(*a):
            calls["validated"] += 1
            return validated(*a)

        def count_init(self, *a, **k):
            calls["init"] += 1
            init(self, *a, **k)

        monkeypatch.setattr(bd, "_validated", count_validated)
        monkeypatch.setattr(bd.SphericalBody, "__init__", count_init)
        monkeypatch.setattr(bd._Arcs, "_placed",
                            lambda self, n: calls["params"].append((self, n)) or placed(self, n))
        body = io.load_body(path)
        fr = wulff.frame_at(body.enclosing_center)
        rep = wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=720), fr,
                                                 tol=1e-4, n=720)
        induced = rep.induced_body
        sampled = sum(n == 720 and arcs in (body.arcs, induced.arcs) for arcs, n in calls["params"])
        shared = induced.arcs is body.arcs and induced.dual_arcs is body.dual_arcs
        assert (calls["validated"], calls["init"], sampled, shared) == (2, 1, 1, True)

    def test_sourceless_shapes_lift_as_polygons(self):
        # only the shape project_to_plane returns keeps its source: a shape
        # from a gamma, from the image's vertices, its dual and its multiple
        # lift as the polygons over their lifted vertices
        body, fr = _lift_cases()["cd_triangle"]
        shape = wulff.project_to_plane(body, fr, n=720)
        assert wulff.induce_spherical(shape, fr).arcs.count == 6
        theta = 2 * math.pi * np.arange(360) / 360
        gamma = wulff.GammaFn(theta, 1.0 + 0.05 * np.cos(3 * theta))
        for other in (wulff.wulff_shape(gamma), wulff.WulffShape(shape.vertices),
                      wulff.dual_wulff(shape), shape.scaled(0.5)):
            induced = wulff.induce_spherical(other, fr)
            assert induced.is_polygon and induced.arcs.count == len(other.vertices)
            lifts = _lifted(other, fr)
            assert np.max(np.abs(induced.vertices - np.roll(lifts, -1, axis=0))) <= 1e-15


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
        # the conditions and the gap are read off the body's own 6 arcs and
        # their polar dual, to roundoff
        assert rep.induced_body.arcs.count == 6
        assert max(v.deviation for v in rep.four_conditions.values()) <= 1e-12
        assert rep.hausdorff_gap <= 1e-12

    @pytest.mark.parametrize("n", [64, 200])
    def test_cd_triangle_coarse_samples(self, cd_triangle, n):
        # the gap is the exact image's, read off the body and its polar
        # dual, so a coarse image decides as a fine one: all five hold at
        # a tolerance of 1e-12
        fr = wulff.frame_at(cd_triangle.enclosing_center)
        shape = wulff.project_to_plane(cd_triangle, fr, n=n)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-12, n=n)
        assert rep.booleans == [True] * 5
        assert rep.hausdorff_gap <= 1e-12
        assert max(v.deviation for v in rep.four_conditions.values()) <= 1e-12

    @pytest.mark.parametrize("eps", [None, 1e-9, 1.78e-9, 3.16e-9, 5.62e-9, 1e-8])
    def test_self_dual_triangles_at_16_samples(self, eps):
        # the README's triangle (eps None), and triangles with a corner arc
        # of radius eps: at 16 samples the gap is roundoff, and all five
        # hold at 1e-12
        if eps is None:
            body = _lift_cases()["cd_triangle"][0]
        else:
            body = construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.0, eps))
        fr = wulff.frame_at(body.enclosing_center)
        rep = wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=16), fr,
                                                 tol=1e-12, n=16)
        assert rep.hausdorff_gap <= 1e-12
        assert rep.booleans == [True] * 5

    @pytest.mark.parametrize("r", [0.6, math.pi / 4 + 1e-3, 1.0])
    def test_cap_gap_is_exact(self, r):
        # a cap of radius r projects about its center to the disk of radius
        # tan r, whose dual is the disk of radius cot r: the gap is |tan r -
        # cot r|, here as |2 / tan 2r|, which does not cancel, at any count.
        # The gap is a difference of two cotangents near 1, so it holds
        # their roundoff, 1e-15 (4.5 ulps of 1), beside 1e-14 relative
        body = construct.cap(Z, r)
        fr = wulff.frame_at(Z)
        exact = abs(2.0 / math.tan(2.0 * r))
        for n in (8, 16, 64, 200, 720):
            rep = wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=n), fr,
                                                     tol=1e-4, n=720)
            assert abs(rep.hausdorff_gap - exact) <= 1e-14 * exact + 1e-15

    def test_coarse_samples_exclude(self):
        # a cap just wider than pi/4 is not self-dual, by a gap of 0.004:
        # read off the body, the gap excludes it at 16 samples as at 720
        body = construct.cap(Z, math.pi / 4 + 1e-3)
        fr = wulff.frame_at(Z)
        for n in (16, 720):
            rep = wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=n), fr,
                                                     tol=1e-4, n=n)
            assert rep.booleans == [False] * 5
            assert rep.hausdorff_gap == pytest.approx(0.004, rel=1e-5)

    @pytest.mark.parametrize("which", LIFT_CASES + ["lens", "cap_0.6", "cap_0.786", "cap_1"])
    def test_sampled_gap_within_the_two_tangent_bound(self, which):
        # the samples' polygon P lies in the exact image W, and W within h
        # of P (_two_tangent_error), so their supports differ by at most h,
        # and those of their duals, the reciprocal radial functions, by at
        # most h / rho**2, rho being P's least offset: the samples' gap lies
        # within h (1 + 1 / rho**2) of the exact image's, to roundoff
        body, fr = _gap_cases()[which]
        exact = wulff._radial_gap(body, fr)
        for n in (16, 64, 720):
            shape = wulff.project_to_plane(body, fr, n=n)
            sampled = wulff.hausdorff_polygons(shape, wulff.dual_wulff(shape))
            bound = _two_tangent_error(body, fr, n) * (1.0 + 1.0 / float(shape.offsets.min()) ** 2)
            assert abs(sampled - exact) <= bound + 1e-12 * max(1.0, exact)

    @pytest.mark.parametrize("which", LIFT_CASES)
    def test_report_equals_a_fresh_body(self, which):
        # the lift shares the projected body's tables; the report must read,
        # bit for bit, what classify reads off a body validated afresh from
        # the same arrays about the pole
        body, fr = _lift_cases()[which]
        rep = wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=720), fr,
                                                 tol=1e-4, n=720)
        fresh = bd.SphericalBody(bd.Boundary(body.centers, body.radii, body.starts), fr.pole)
        ref = metrics.classify(fresh, tol=1e-4, n=720)
        assert rep.induced_body.arcs is not fresh.arcs
        got = metrics.classify(rep.induced_body, tol=1e-4, n=720)
        assert json.dumps(io.report_to_doc(got)) == json.dumps(io.report_to_doc(ref))
        for name, (base, value) in {
                "constant_width_half_pi": (ref.constant_width, ref.constant_width.witness["w_mean"]),
                "reduced_thickness_half_pi": (ref.reduced, ref.thickness.value),
                "reduced_diameter_half_pi": (ref.reduced, ref.diameter.value),
                "constant_diameter_half_pi": (ref.constant_diameter, ref.diameter.value)}.items():
            v = rep.four_conditions[name]
            assert v.witness == {"value": value, "base_kind": base.kind,
                                 "base_deviation": base.deviation}
            assert v.deviation == max(base.deviation, abs(value - bd.HALF_PI))
            assert v.passed == (base.passed and v.deviation <= 1e-4)
        for got_arr, want in zip((rep.induced_body.enclosing_center, rep.induced_body.centers,
                                  rep.induced_body.radii, rep.induced_body.starts),
                                 (fresh.enclosing_center, fresh.centers, fresh.radii,
                                  fresh.starts)):
            assert np.array_equal(got_arr, want)

    @pytest.mark.parametrize("which", ["random_polygon", "octant"])
    def test_polygon_gap_is_exact(self, which):
        # a polygon's image is a polygon, its samples: the report takes its
        # polygon gap, and the body's radial gap agrees, the premise of the
        # polygon branch; the shape of its vertices alone reads the same
        body, fr = _lift_cases()[which]
        shape = wulff.project_to_plane(body, fr, n=720)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720)
        polygon = wulff.hausdorff_polygons(shape, wulff.dual_wulff(shape))
        assert rep.hausdorff_gap == polygon
        assert abs(wulff._radial_gap(body, fr) - polygon) <= 1e-12 * max(1.0, polygon)
        vertex_only = wulff.self_dual_equivalence_report(wulff.WulffShape(shape.vertices), fr,
                                                         tol=1e-4, n=720)
        assert vertex_only.hausdorff_gap == polygon
        assert rep.booleans == vertex_only.booleans

    def test_octant_projection_self_dual(self, octant):
        # the projected octant is a triangle with corners, exactly self-dual
        fr = wulff.frame_at(octant.enclosing_center)
        shape = wulff.project_to_plane(octant, fr, n=720)
        rep = wulff.self_dual_equivalence_report(shape, fr, tol=1e-6, n=720)
        assert rep.booleans == [True] * 5
        assert rep.hausdorff_gap <= 1e-12
