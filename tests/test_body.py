"""Convex bodies: hulls, membership, sampling, extreme points, polar duals."""

import math

import numpy as np
import pytest
from conftest import cap_points, random_unit

from lunes import body as bd
from lunes import construct, sphere
from lunes.errors import InvariantViolation, NoEnclosingHemisphere

E1, E2, E3 = np.eye(3)
Z = np.array([0.0, 0.0, 1.0])


def vertex_sets_match(a, b, tol=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    used = set()
    for p in a:
        hits = [j for j in range(len(b))
                if j not in used and np.linalg.norm(p - b[j]) <= tol]
        if not hits:
            return False
        used.add(hits[0])
    return True


class TestHull:
    def test_octant_from_unit_axes(self):
        hull = bd.hull_from_points(np.eye(3))
        assert len(hull.radii) == 3
        assert all(abs(r - math.pi / 2) < 1e-12 for r in hull.radii)
        assert vertex_sets_match(hull.vertices, np.eye(3), tol=1e-12)

    def test_interior_point_absorbed(self):
        pts = np.vstack([np.eye(3), sphere.unit_vec(1.0, 1.0, 1.0)])
        hull = bd.hull_from_points(pts)
        assert vertex_sets_match(hull.vertices, np.eye(3), tol=1e-12)

    def test_antipodal_pair_rejected(self):
        pts = np.array([E1, -E1, E2])
        with pytest.raises(NoEnclosingHemisphere):
            bd.hull_from_points(pts)

    def test_idempotent_on_polygon_samples(self, random_polygons):
        for poly in random_polygons[:6]:
            again = bd.hull_from_points(bd.boundary_sample(poly, 48))
            assert vertex_sets_match(again.vertices, poly.vertices, tol=1e-9)
            assert bd.hausdorff_bodies(poly, again, n=240) <= 1e-9


class TestMembership:
    def test_center_in_antipode_out(self, octant):
        assert octant.contains(octant.enclosing_center)
        assert not octant.contains(-octant.enclosing_center)

    def test_boundary_points_contained(self, octant, quarter_cap):
        for body in (octant, quarter_cap):
            for p in bd.boundary_sample(body, 64):
                assert body.contains(p, tol=1e-9)

    def test_contains_many_matches_scalar(self, cd_triangle):
        rng = np.random.default_rng(8)
        pts = random_unit(rng, 128)
        many = cd_triangle.contains_many(pts, tol=1e-9)
        single = np.array([cd_triangle.contains(p, tol=1e-9) for p in pts])
        assert np.array_equal(many, single)

    def test_geodesic_convexity(self, random_polygons, cd_triangle):
        rng = np.random.default_rng(9)
        for body in [cd_triangle] + random_polygons[:2]:
            pts = bd.boundary_sample(body, 100)
            done = 0
            while done < 350:
                i, j = rng.integers(0, len(pts), size=2)
                if np.linalg.norm(pts[i] - pts[j]) < 1e-9:
                    continue
                p = sphere.geodesic_point(pts[i], pts[j], rng.uniform())
                assert body.contains(p, tol=1e-9)
                done += 1


class TestBoundarySample:
    def test_octant_three_samples_hit_vertices(self, octant):
        pts = bd.boundary_sample(octant, 3)
        assert vertex_sets_match(pts, np.eye(3), tol=1e-12)

    def test_cap_samples_azimuthally_even(self, quarter_cap):
        pts = bd.boundary_sample(quarter_cap, 360)
        az = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
        spacing = np.diff(az)
        assert np.all(np.abs(np.abs(spacing) - 2 * math.pi / 360) < 1e-9)

    def test_too_few_samples_rejected(self, octant):
        with pytest.raises(ValueError):
            bd.boundary_sample(octant, 2)


class TestExtremePoints:
    def test_octant_vertices_isolated(self, octant):
        ext = bd.extreme_points(octant)
        assert vertex_sets_match(ext.isolated, np.eye(3), tol=1e-12)
        assert len(ext.strict_arcs) == 0
        assert not ext.smooth

    def test_cap_boundary_all_strict(self, quarter_cap):
        ext = bd.extreme_points(quarter_cap)
        assert len(ext.isolated) == 0
        assert len(ext.strict_arcs) == 1
        assert ext.smooth

    def test_cd_triangle_smooth_with_strict_arcs(self, cd_triangle):
        ext = bd.extreme_points(cd_triangle)
        assert len(ext.isolated) == 0
        assert len(ext.strict_arcs) == len(cd_triangle.radii) == 6
        assert ext.smooth

    def test_lune_corner_is_extreme(self):
        # hull of interior points plus one lune corner keeps that corner
        rng = np.random.default_rng(10)
        hits = 0
        while hits < 100:
            g, h = random_unit(rng), random_unit(rng)
            if not 0.5 < sphere.dist(g, h) < math.pi - 0.5:
                continue
            lune = sphere.lune_make(g, h)
            corner = lune.corners[0]
            inner = []
            while len(inner) < 6:
                q = random_unit(rng)
                if q @ g > 0.05 and q @ h > 0.05:
                    inner.append(sphere.geodesic_point(
                        corner, q, rng.uniform(0.2, 0.8)))
            hull = bd.hull_from_points([corner] + inner)
            ext = bd.extreme_points(hull)
            assert any(np.linalg.norm(v - corner) <= 1e-9
                       for v in ext.isolated)
            hits += 1


class TestSupportingCenters:
    def test_cap_centers_lie_on_offset_circle(self):
        cap = construct.cap(Z, 0.3)
        centers = bd.supporting_hemisphere_centers(cap, n=90)
        d = np.arccos(np.clip(centers @ Z, -1.0, 1.0))
        assert np.max(np.abs(d - (math.pi / 2 - 0.3))) < 1e-9

    def test_octant_edge_poles_present(self, octant):
        centers = bd.supporting_hemisphere_centers(octant, n=48)
        for e in np.eye(3):
            assert np.min(np.linalg.norm(centers - e, axis=1)) < 1e-9

    def test_centers_actually_support(self, octant, quarter_cap, cd_triangle):
        for body in (octant, quarter_cap, cd_triangle):
            for c in bd.supporting_hemisphere_centers(body, n=48):
                # containment with the boundary touching partial H(c)
                assert abs(np.asarray(body.support_min(c)).item()) < 1e-10


class TestPolarDual:
    def test_cap_dual_is_complementary_cap(self):
        cap = construct.cap(Z, 0.5)
        want = construct.cap(Z, math.pi / 2 - 0.5)
        assert bd.hausdorff_bodies(bd.polar_dual(cap), want, n=240) <= 1e-12

    def test_octant_self_polar(self, octant):
        assert bd.hausdorff_bodies(bd.polar_dual(octant), octant,
                                   n=240) <= 1e-12

    def test_involution_on_polygons(self):
        for seed in range(50):
            poly = construct.random_convex_polygon(seed + 100, n=4 + seed % 5,
                                                   max_diam=1.0)
            twice = bd.polar_dual(bd.polar_dual(poly))
            assert bd.hausdorff_bodies(poly, twice, n=240) <= 1e-6

    def test_distance_to_body(self, quarter_cap):
        on = bd.boundary_sample(quarter_cap, 16)
        off = np.array([sphere.unit_vec(0.0, 0.0, 1.0),
                        sphere.unit_vec(1.0, 0.0, 0.0)])
        d_on = bd.distance_to_body(quarter_cap, on)
        d_off = bd.distance_to_body(quarter_cap, off)
        assert np.max(np.abs(d_on)) < 1e-12
        assert d_off[0] == pytest.approx(0.0, abs=1e-12)  # interior: 0
        assert d_off[1] == pytest.approx(math.pi / 2 - math.pi / 4, abs=1e-9)


    @staticmethod
    def _pentagon_with_midpoint(outward):
        """regular_polygon_vertices(5, 0.5) with the midpoint of edge 0
        inserted as a sixth vertex, moved `outward` rad off the edge."""
        verts = construct.regular_polygon_vertices(5, 0.5)
        pole = sphere.normalize(np.cross(verts[0], verts[1]))  # inward normal
        mid = sphere.normalize(verts[0] + verts[1])
        mid = math.cos(outward) * mid - math.sin(outward) * pole
        return np.insert(verts, 1, mid, axis=0)

    def test_near_smooth_corner_dual_closes(self):
        # the junction at the midpoint turns by 6.8e-9: a corner, whose dual
        # great arc is kept, so the dual's arcs meet within CLOSURE_TOL
        body = bd.polygon_from_vertices(self._pentagon_with_midpoint(1e-9))
        twice = bd.polar_dual(bd.polar_dual(body))
        assert len(body.corners) == 6
        assert len(twice.radii) == 6
        # the same arcs, up to where the boundary starts
        gap = min(max(np.max(np.abs(np.roll(twice.starts, k, axis=0) - body.starts)),
                      np.max(np.abs(np.roll(twice.centers, k, axis=0) - body.centers)))
                  for k in range(6))
        assert gap <= 1e-12

    def test_slightly_reflex_junction_rejected(self):
        # a turn of -6.8e-10 is reflex, not smooth
        with pytest.raises(InvariantViolation, match="reflex junction"):
            bd.polygon_from_vertices(self._pentagon_with_midpoint(-1e-10))

    def test_distance_to_body_exact_near_zero(self):
        cap = construct.cap(Z, 0.5)
        pts = np.array([[math.sin(0.5 + eps), 0.0, math.cos(0.5 + eps)]
                        for eps in (3e-9, 1e-8)])
        d = bd.distance_to_body(cap, pts)
        assert d == pytest.approx([3e-9, 1e-8], rel=1e-6)

    def test_hausdorff_bodies_exact_near_zero(self):
        gap = bd.hausdorff_bodies(construct.cap(Z, 0.5),
                                  construct.cap(Z, 0.5 + 5e-9), n=240)
        assert gap == pytest.approx(5e-9, rel=1e-6)


class TestDiameterExtremes:
    def test_diameter_realized_at_extreme_points(self):
        # for a polygon well below thickness pi/2 the diameter endpoints
        # are vertices
        from lunes import metrics
        rng = np.random.default_rng(11)
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            poly = construct.random_convex_polygon(seed + 500,
                                                   n=4 + seed % 5,
                                                   max_diam=1.0)
            res = metrics.diameter(poly, n=240)
            if res.value >= math.pi / 2 - 0.05:
                continue
            verts = poly.vertices
            for p in (res.p, res.q):
                assert np.min(np.linalg.norm(verts - p, axis=1)) <= 1e-6
            count += 1
