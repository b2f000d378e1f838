"""Constructors: caps, regular odd-gons, constant-diameter bodies."""

import math

import numpy as np
import pytest
from conftest import (cap_points, mixed_cd_triangle_vertices,
                      random_cd_gon_vertices, random_cd_triangle_vertices)

from lunes import body as bd
from lunes import construct, metrics, sphere
from lunes.errors import BadRadius, EvenN, InvalidSpec, InvariantViolation

HALF_PI = math.pi / 2
Z = np.array([0.0, 0.0, 1.0])


def prolongation(v_from, v_toward, radius):
    """Point at the given distance beyond v_from, away from v_toward."""
    t = sphere.normalize(v_toward - (v_toward @ v_from) * v_from)
    return math.cos(radius) * v_from - math.sin(radius) * t


class TestCap:
    def test_radius_domain(self):
        for bad in (0.0, HALF_PI, 2.0, -0.1):
            with pytest.raises(BadRadius):
                construct.cap(Z, bad)

    def test_single_full_circle_segment(self):
        cap = construct.cap(Z, 0.4)
        assert len(cap.radii) == 1
        assert cap.is_full_circle
        assert cap.radii[0] == pytest.approx(0.4, abs=1e-15)
        assert np.allclose(cap.centers[0], Z)

    @pytest.mark.parametrize("rho", [1e-8, 1e-7])
    def test_below_interior_min_has_empty_interior(self, rho):
        # the dual arc of radius pi/2 - rho keeps its start on its circle, so
        # the only complaint is the cap's own size, below asin(INTERIOR_MIN)
        with pytest.raises(InvariantViolation, match="nonempty interior"):
            construct.cap(np.array([0.6, 0.0, 0.8]), rho)

    def test_at_interior_min_builds(self):
        cap = construct.cap(np.array([0.6, 0.0, 0.8]), 1e-6)
        assert metrics.thickness(cap).value == pytest.approx(2e-6, rel=1e-9)


class TestRegularOddGon:
    def test_thickness_round_trip(self):
        # the circumradius has a closed form, so the target is met to roundoff
        for n in (3, 5, 7, 9):
            for tgt in (0.05, 0.3, 0.8, 1.2, 1.5, HALF_PI):
                body = construct.regular_odd_gon(n, tgt)
                assert len(body.radii) == n
                th = metrics.thickness(body, n=720).value
                assert th == pytest.approx(tgt, abs=1e-12)

    def test_half_pi_triangle_is_octant_congruent(self):
        body = construct.regular_odd_gon(3, HALF_PI)
        # circumradius arccos(1/sqrt 3) and three great-circle sides pin the
        # octant triangle up to rotation
        assert body.meta["circumradius"] == pytest.approx(
            math.acos(1.0 / math.sqrt(3.0)), abs=1e-9)
        assert all(abs(r - HALF_PI) < 1e-12 for r in body.radii)

    def test_rejects_even_or_overwide(self):
        with pytest.raises(EvenN):
            construct.regular_odd_gon(4, 1.0)
        with pytest.raises(EvenN):
            construct.regular_odd_gon(1, 1.0)
        with pytest.raises(InvalidSpec):
            construct.regular_odd_gon(5, HALF_PI + 0.01)

    def test_custom_center(self):
        c = sphere.normalize([1.0, 2.0, 2.0])
        body = construct.regular_odd_gon(5, 1.0, center=c)
        assert np.allclose(body.enclosing_center, c, atol=1e-9)


class TestCornerRadii:
    def test_triangle_balance_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = random_cd_triangle_vertices(rng)
            spec = construct.solve_corner_radii(v)
            s, verts = spec.corner_radii, spec.vertices
            for i in range(3):
                j = (i + 1) % 3
                kappa = sphere.dist(verts[i], verts[j])
                assert s[i] + kappa + s[j] == pytest.approx(HALF_PI,
                                                            abs=1e-12)

    def test_odd_gon_balance_identities(self):
        rng = np.random.default_rng(22)
        for n, cap_rad in ((5, 0.55), (7, 0.45)):
            for _ in range(6):
                v = random_cd_gon_vertices(rng, n, cap_rad)
                spec = construct.solve_corner_radii(v)
                m = (n - 1) // 2
                for i in range(n):
                    kappa = sphere.dist(spec.vertices[i],
                                        spec.vertices[(i + m) % n])
                    assert kappa == pytest.approx(spec.diagonals[i],
                                                  abs=1e-12)
                    total = (spec.corner_radii[i]
                             + spec.corner_radii[(i + m) % n] + kappa)
                    assert total == pytest.approx(HALF_PI, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 21])
    def test_closed_form_matches_the_linear_solve(self, n):
        # a regular n-gon's vertices jittered by up to 1 % in radius and in
        # spacing; the reference solves the n x n system itself
        rng = np.random.default_rng(n)
        az = 2 * math.pi * (np.arange(n) + rng.uniform(-0.01, 0.01, n)) / n
        pol = 0.3 * (1.0 + rng.uniform(-0.01, 0.01, n))
        v = np.c_[np.sin(pol) * np.cos(az), np.sin(pol) * np.sin(az), np.cos(pol)]
        spec = construct.solve_corner_radii(v)
        m, idx = (n - 1) // 2, np.arange(n)
        a = np.zeros((n, n))
        a[idx, idx] += 1.0
        a[idx, (idx + m) % n] += 1.0
        want = np.linalg.solve(a, HALF_PI - spec.diagonals)
        assert np.max(np.abs(spec.corner_radii - want)) <= 1e-14

    def test_prolongations_quarter_circle_apart(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = random_cd_triangle_vertices(rng)
            spec = construct.solve_corner_radii(v)
            s, verts = spec.corner_radii, spec.vertices
            for i in range(3):
                j = (i + 1) % 3
                wij = prolongation(verts[i], verts[j], s[i])
                wji = prolongation(verts[j], verts[i], s[j])
                assert sphere.dist(wij, wji) == pytest.approx(HALF_PI,
                                                              abs=1e-10)

    def test_negative_radius_rejected(self):
        # side pattern (1.0, 0.2, 1.0) forces a negative corner radius
        v1 = Z
        v2 = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
        cos_phi = (math.cos(0.2) - math.cos(1.0) ** 2) / math.sin(1.0) ** 2
        phi = math.acos(cos_phi)
        v3 = np.array([math.sin(1.0) * math.cos(phi),
                       math.sin(1.0) * math.sin(phi), math.cos(1.0)])
        assert sphere.dist(v2, v3) == pytest.approx(0.2, abs=1e-12)
        with pytest.raises(InvalidSpec):
            construct.solve_corner_radii(np.array([v1, v2, v3]))

    def test_even_count_rejected(self):
        verts = construct.regular_polygon_vertices(4, 0.5)
        with pytest.raises(EvenN):
            construct.solve_corner_radii(verts)


class TestConstantDiameterTriangle:
    def test_equilateral_closed_form(self):
        verts = construct.regular_polygon_vertices(3, 0.6)
        spec = construct.solve_corner_radii(verts)
        kappa = sphere.dist(verts[0], verts[1])
        want = math.pi / 4 - kappa / 2
        assert np.max(np.abs(spec.corner_radii - want)) < 1e-13

    def test_linear_solve_matches_closed_form(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            v = random_cd_triangle_vertices(rng)
            spec = construct.solve_corner_radii(v)
            sv = spec.vertices   # canonical (possibly reversed) order
            k12 = sphere.dist(sv[0], sv[1])
            k23 = sphere.dist(sv[1], sv[2])
            k31 = sphere.dist(sv[2], sv[0])
            want0 = (HALF_PI - k12 - k31 + k23) / 2
            assert spec.corner_radii[0] == pytest.approx(want0, abs=1e-12)

    def test_unit_axes_give_octant(self, octant):
        body = construct.constant_diameter_triangle(*np.eye(3))
        assert bd.hausdorff_bodies(body, octant, n=240) <= 1e-9

    def test_shrinking_triangle_approaches_quarter_cap(self):
        eps = 1e-6
        v1 = Z
        v2 = sphere.normalize(Z + np.array([eps, 0.0, 0.0]))
        v3 = sphere.normalize(Z + np.array([0.0, eps, 0.0]))
        body = construct.constant_diameter_triangle(v1, v2, v3)
        cap = construct.cap(v1, math.pi / 4)
        assert bd.hausdorff_bodies(body, cap, n=240) <= 1e-4

    def test_six_smooth_arcs(self, cd_triangle):
        assert len(cd_triangle.radii) == 6
        radii = sorted(cd_triangle.radii)
        # three corner arcs and three far arcs, pairwise complementary
        for small, big in zip(radii[:3], sorted(radii[3:], reverse=True)):
            assert small + big == pytest.approx(HALF_PI, abs=1e-12)


class TestConstantDiameterOddGon:
    def test_triangle_specialization(self):
        rng = np.random.default_rng(25)
        v = random_cd_triangle_vertices(rng)
        a = construct.constant_diameter_odd_gon(v)
        b = construct.constant_diameter_triangle(v[0], v[1], v[2])
        assert bd.hausdorff_bodies(a, b, n=240) <= 1e-10

    def test_regular_five_gon_closed_form(self):
        verts = construct.regular_polygon_vertices(5, 0.5)
        spec = construct.solve_corner_radii(verts)
        kappa = sphere.dist(verts[0], verts[2])
        want = (HALF_PI - kappa) / 2
        assert np.max(np.abs(spec.corner_radii - want)) < 1e-12

    def test_clockwise_input_equivalent(self):
        rng = np.random.default_rng(26)
        v = random_cd_gon_vertices(rng, 5, 0.55)
        a = construct.constant_diameter_odd_gon(v)
        b = construct.constant_diameter_odd_gon(v[::-1])
        assert bd.hausdorff_bodies(a, b, n=240) <= 1e-12

    def test_star_order_rejected(self):
        # vertices sorted by azimuth but not in convex position
        rng = np.random.default_rng(27)
        while True:
            pts = cap_points(rng, 7, 0.45)
            pts = pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))]
            if len(bd.hull_from_points(pts).vertices) < 7:
                break
        with pytest.raises(InvalidSpec):
            construct.constant_diameter_odd_gon(pts)

    @pytest.mark.parametrize("eps", [1e-16, 5e-16])
    def test_nearly_coincident_vertices_rejected(self, eps):
        # vertex 1's far vertex is vertex 0, eps away: the great arc from one
        # to the other has no direction left to roundoff
        verts = np.array([[0.0, 0.0, 1.0], [eps, 0.0, 1.0], [0.0, eps, 1.0]])
        with pytest.raises(InvalidSpec, match="too close together"):
            construct.constant_diameter_triangle(*verts)
        with pytest.raises(InvalidSpec, match="too close together"):
            construct.constant_diameter_odd_gon(verts)

    def test_close_vertices_build(self):
        # 1e-15 apart the arc still has a direction: the body builds
        verts = np.array([[0.0, 0.0, 1.0], [1e-15, 0.0, 1.0], [0.0, 1e-15, 1.0]])
        body = construct.constant_diameter_triangle(*verts)
        assert metrics.diameter(body).value == pytest.approx(HALF_PI, abs=1e-12)

    @pytest.mark.parametrize("eps", [1.8e-9, 1e-8, 3e-8])
    def test_tiny_corner_radius(self, eps):
        # a corner arc of radius eps: its dual arc, of radius pi/2 - eps,
        # starts on its circle, and the corner pieces about its ends close
        body = construct.constant_diameter_odd_gon(mixed_cd_triangle_vertices(1.0, eps))
        assert len(body.radii) == 6
        assert float(np.min(body.radii)) == pytest.approx(eps, rel=1e-6)
        assert metrics.diameter(body).value == pytest.approx(HALF_PI, abs=1e-12)


class TestRandomPolygon:
    def test_deterministic_per_seed(self):
        a = construct.random_convex_polygon(7, n=8, max_diam=1.0)
        b = construct.random_convex_polygon(7, n=8, max_diam=1.0)
        assert np.array_equal(a.vertices, b.vertices)
        c = construct.random_convex_polygon(8, n=8, max_diam=1.0)
        assert not np.array_equal(a.vertices, c.vertices)

    def test_diameter_bound_honored(self):
        for seed in range(8):
            maxd = 0.5 + 0.1 * seed
            poly = construct.random_convex_polygon(seed, n=7, max_diam=maxd)
            assert metrics.diameter(poly, n=240).value <= maxd + 1e-9
