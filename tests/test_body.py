"""Convex bodies: hulls, membership, sampling, extreme points, polar duals."""

import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import cap_points, random_unit

from lunes import body as bd
from lunes import construct, sphere
from lunes.errors import (DegenerateHull, InvariantViolation,
                          NoEnclosingHemisphere)

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
        pts = np.vstack([np.eye(3), sphere.normalize([1.0, 1.0, 1.0])])
        hull = bd.hull_from_points(pts)
        assert vertex_sets_match(hull.vertices, np.eye(3), tol=1e-12)

    def test_antipodal_pair_rejected(self):
        pts = np.array([E1, -E1, E2])
        with pytest.raises(NoEnclosingHemisphere):
            bd.hull_from_points(pts)

    def test_idempotent_on_polygon_samples(self, random_polygons):
        for poly in random_polygons[:6]:
            again = bd.hull_from_points(poly.arcs.sample_points(48)[1])
            assert vertex_sets_match(again.vertices, poly.vertices, tol=1e-9)
            assert bd.hausdorff_bodies(poly, again, n=240) <= 1e-9

    def test_near_copy_of_a_vertex_merged(self):
        # a copy of vertex 0 moved 5e-13, and an interior point that sorts
        # between the two: the copies are neighbours in hull order only
        hexagon = construct.regular_polygon_vertices(6, 0.5)
        pts = sphere.normalize(np.vstack([hexagon, hexagon[0] + [4e-13, 0.0, -3e-13],
                                          [2e-13, -0.2, 0.98]]))
        hull = bd.hull_from_points(pts)
        assert vertex_sets_match(hull.vertices, hexagon, tol=1e-12)

    @pytest.mark.parametrize("k", [0, 17, 49, 50, 52])
    def test_lopsided_hull_keeps_its_vertices_beside_a_near_copy(self, k):
        # the center comes from the smallest enclosing cap, which must not
        # put its circle through the two copies
        pts = TestEnclosingCenter._lopsided()
        step = np.cross(pts[k], E3)
        copied = np.vstack([pts, pts[k] + 5e-13 * step / np.linalg.norm(step)])
        hull = bd.hull_from_points(pts)
        assert len(hull.radii) == 6
        assert vertex_sets_match(bd.hull_from_points(copied).vertices, hull.vertices,
                                 tol=1e-12)


class TestGivenCenter:
    def test_center_outside_the_polygon_is_replaced_by_the_search(self, random_polygons):
        # a given center is tried first; refused, it is searched for as if
        # none were given, and the body is the same
        for poly in random_polygons[:4]:
            verts = poly.vertices
            plain = bd.polygon_from_vertices(verts)
            for center in (-plain.enclosing_center, sphere.normalize(verts[0] - 0.5 * verts[1])):
                assert plain.refusal(center) is not None
                got = bd.polygon_from_vertices(verts, enclosing_center=center)
                for x, y in zip((got.centers, got.radii, got.starts, got.enclosing_center),
                                (plain.centers, plain.radii, plain.starts, plain.enclosing_center)):
                    assert np.array_equal(x, y)

    def test_refusal_names_the_failed_rule(self):
        cap = construct.cap(Z, 0.3)
        assert cap.refusal(Z) is None
        assert cap.refusal(-Z).invariant == "enclosing hemisphere"
        edge = sphere.normalize(np.array([math.sin(0.3), 0.0, math.cos(0.3)]))
        assert cap.refusal(edge).invariant == "nonempty interior"
        assert cap.refusal(np.full(3, math.nan)).invariant == "enclosing hemisphere"


class TestEnclosingCenter:
    @staticmethod
    def _lopsided():
        """50 points near (1, 0, 0.02) and three near the equator: the
        mean's margin is -0.9995, the best margin 0.0099995."""
        near = [[1.0, 0.01 * math.sin(j), 0.02 + 0.001 * math.cos(j)]
                for j in range(50)]
        equator = [[math.cos(a), math.sin(a), 0.01]
                   for a in (math.pi / 2, math.pi, 1.5 * math.pi)]
        return sphere.normalize(np.array(near + equator))

    def test_lopsided_set_needs_no_scipy(self, monkeypatch):
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        pts = self._lopsided()
        mean = pts.mean(axis=0)
        assert np.min(pts @ (mean / np.linalg.norm(mean))) < 0.0
        assert np.min(pts @ bd.find_enclosing_center(pts)) >= 0.0099

    def test_repeated_points(self):
        # roundoff must not put a cap's circle through two copies of a point
        pts = self._lopsided()
        once = np.min(pts @ bd.find_enclosing_center(pts))
        twice = np.min(pts @ bd.find_enclosing_center(np.repeat(pts, 2, axis=0)))
        assert twice == pytest.approx(once, abs=1e-15)

    @pytest.mark.parametrize("pts", [
        [E1, -E1],
        [E1, -E1, E2],
        [[1.0, 0.0, 0.0], [-0.5, math.sqrt(0.75), 0.0], [-0.5, -math.sqrt(0.75), 0.0]],
        [[math.cos(a), math.sin(a), 0.0] for a in 2 * math.pi * np.arange(8) / 8],
        [E1, E2, E3, -sphere.normalize([1.0, 1.0, 1.0])],
    ], ids=["antipodal pair", "antipodal in three", "equilateral on a great circle",
            "octagon on a great circle", "tetrahedron"])
    def test_no_hemisphere_raises(self, pts):
        with pytest.raises(NoEnclosingHemisphere):
            bd.find_enclosing_center(np.array(pts, dtype=float))

    def test_package_imports_stdlib_numpy_and_itself_only(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "lunes"}
        for path in Path(bd.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, (path.name, name)


_TRIANGLE = bd.polygon_from_vertices(np.eye(3))
_NAN_START = np.array(_TRIANGLE.starts)
_NAN_START[1, 0] = math.nan


@pytest.mark.parametrize("call, error, match", [
    (lambda: bd.find_enclosing_center([[math.inf, 0.0, 1.0], E1, E2]),
     NoEnclosingHemisphere, "non-finite point"),
    (lambda: bd.hull_from_points([E1, E2, E3, [math.nan, 0.0, 1.0]]),
     DegenerateHull, "non-finite point"),
    (lambda: bd.polygon_from_vertices([E1, E2, [math.nan, 0.0, 1.0]]),
     InvariantViolation, "unit norm"),
    (lambda: bd.SphericalBody(bd.Boundary(_TRIANGLE.centers, _TRIANGLE.radii,
                                          _NAN_START)),
     InvariantViolation, "unit norm"),
], ids=["find_enclosing_center", "hull_from_points", "polygon_from_vertices",
        "SphericalBody"])
def test_non_finite_points_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _slid(p, c, angle):
    """p turned by angle about the unit vector c: it stays on its circle
    about c (Rodrigues' rotation)."""
    return (math.cos(angle) * p + math.sin(angle) * np.cross(c, p)
            + (1.0 - math.cos(angle)) * (c @ p) * c)


class TestValidationOrder:
    """_validated checks every center before any start, and every start
    before any end (the next arc's start): with two faults, the error names
    the one found first in that order, not the lower segment."""

    @staticmethod
    def _rows(body):
        return [np.array(x) for x in (body.centers, body.radii, body.starts)]

    def test_bad_start_and_later_bad_center(self):
        c, r, s = self._rows(bd.polygon_from_vertices(
            construct.regular_polygon_vertices(5, 0.5)))
        s[0] *= 1.1
        c[2] *= 1.1
        with pytest.raises(InvariantViolation,
                           match=r"^unit norm: segment 2 center has norm 1\.1"):
            bd.SphericalBody(bd.Boundary(c, r, s))
        c[2] /= 1.1
        with pytest.raises(InvariantViolation,
                           match=r"^unit norm: segment 0 start has norm 1\.1"):
            bd.SphericalBody(bd.Boundary(c, r, s))

    @pytest.mark.parametrize("body", [
        bd.polygon_from_vertices(construct.regular_polygon_vertices(5, 0.5)),
        construct.constant_diameter_odd_gon(construct.regular_polygon_vertices(5, 0.4)),
    ], ids=["pentagon", "cd_pentagon"])
    def test_bad_start_and_earlier_bad_end(self, body):
        # starts[3] slides along arc 2's circle: start 3 is off its circle,
        # end 2 is not; starts[1] slides along arc 1's circle: end 0 is off
        c, r, s = self._rows(body)
        m = len(r)
        j = m - 2
        s[j] = _slid(s[j], c[j - 1], 0.05)
        s[1] = _slid(s[1], c[1], 0.05)
        with pytest.raises(InvariantViolation, match=(
                rf"^segment radius: segment {j} start at distance \S+ from center, "
                rf"radius {re.escape(repr(float(r[j])))}$")):
            bd.SphericalBody(bd.Boundary(c, r, s))
        s[j] = body.starts[j]
        with pytest.raises(InvariantViolation, match=(
                r"^segment radius: segment 0 end at distance \S+ from center, "
                rf"radius {re.escape(repr(float(r[0])))}$")):
            bd.SphericalBody(bd.Boundary(c, r, s))

    def test_radius_below_zero_radius_names_the_interval(self):
        r = 0.5 * bd.ZERO_RADIUS
        start = np.array([math.sin(r), 0.0, math.cos(r)])
        with pytest.raises(InvariantViolation, match=(
                rf"^radius range: radius {re.escape(repr(r))} outside "
                rf"\[{re.escape(repr(bd.ZERO_RADIUS))}, pi/2\]$")):
            bd.SphericalBody(bd.Boundary(Z[None], [r], start[None]))


class TestJunctionTolerance:
    """CLOSURE_TOL also puts each endpoint on its circle."""

    @staticmethod
    def _cap_moved_out(off):
        # the cap's lone start, which is also its end, turned `off` away
        # from the center in the plane of the two
        cap = construct.cap(np.array([0.6, 0.0, 0.8]), 0.5)
        c, s = cap.centers[0], cap.starts[0]
        moved = _slid(s, sphere.normalize(np.cross(c, s)), off)
        assert float(sphere.dist(c, moved)) - 0.5 == pytest.approx(off, rel=1e-3)
        return bd.Boundary(cap.centers, cap.radii, moved[None])

    def test_endpoint_within_tolerance_validates(self):
        bd.SphericalBody(self._cap_moved_out(0.5 * bd.CLOSURE_TOL))

    def test_endpoint_past_tolerance_rejected(self):
        with pytest.raises(InvariantViolation, match="^segment radius: segment 0 start"):
            bd.SphericalBody(self._cap_moved_out(2 * bd.CLOSURE_TOL))


class TestSupportKernel:
    """The rules of _closed_form and _Arcs._reduce."""

    def test_closed_form_angle_outside_sweep_or_nan_gives_inf(self):
        # (a, b) = (-1, 0): angle 2 pi; (1, 0): angle pi; NaN: a NaN angle
        a = np.array([[-1.0, 1.0, 1.0, math.nan, 0.6]])
        b = np.array([[0.0, 0.0, 0.0, 0.0, -0.8]])
        c = np.array([[0.5, 0.5, 0.5, 0.5, 0.25]])
        sweeps = np.array([2 * math.pi, math.pi, math.pi - 1e-12, 6.0, 6.0])
        _, crit, t = bd._closed_form(a, b, c, sweeps)
        assert crit.tolist() == [[-0.5, -0.5, math.inf, math.inf, -0.75]]
        assert t[0, 0] == 2 * math.pi and t[0, 1] == math.pi and math.isnan(t[0, 3])

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_is_its_formula(self, seed):
        # bit for bit c + a, np.where(t <= sweeps, c - sqrt(a^2 + b^2), inf)
        # and t, with sweeps broadcast and c an array or a scalar, NaNs included
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 40, 7))
        a[rng.uniform(size=a.shape) < 0.1] = math.nan
        b[rng.uniform(size=b.shape) < 0.1] = math.nan
        sweeps = rng.uniform(0.0, 2 * math.pi, size=(40, 1))
        for cc in (c, 0.0):
            t = np.arctan2(b, a) + math.pi
            want = (cc + a, np.where(t <= sweeps, cc - np.sqrt(a * a + b * b), math.inf), t)
            for x, y in zip(bd._closed_form(a, b, cc, sweeps), want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    # candidates of 5 arcs in 5 directions: a start tied with a critical
    # value; starts tied; critical values tied; a critical value strictly
    # lower; critical values tied below every start
    INF = math.inf
    START = [[2.0, 1.0, 3.0, 1.5, 4.0], [2.0, 1.0, 1.0, 3.0, 1.0], [5.0] * 5,
             [2.0, 1.0, 4.0, 1.0, 3.0], [1.0] * 5]
    CRIT = [[1.0, INF, 5.0, INF, INF], [INF] * 5, [INF, 1.0, 1.0, INF, 1.0],
            [INF, INF, 0.5, INF, 0.5], [1.0, 0.5, 0.5, 2.0, INF]]
    T = np.arange(1.0, 26.0).reshape(5, 5) / 10.0
    WANT_VALS = [1.0, 1.0, 1.0, 0.5, 0.5]
    WANT_SLOT = [1, 1, 1, 2, 1]
    WANT_T = [0.0, 0.0, 1.2, 1.8, 2.2]

    @pytest.fixture
    def pentagon_arcs(self):
        return bd.polygon_from_vertices(construct.regular_polygon_vertices(5, 0.5)).arcs

    def test_reduce_ties_on_the_whole_table(self, pentagon_arcs, monkeypatch):
        # _whole's candidates are laid out arcs first and numbered by the
        # 1-D arcs: the start wins a tie with a critical value, and the
        # lowest arc wins among equals
        crafted = [np.array(x, dtype=float).T.copy() for x in (self.START, self.CRIT, self.T)]
        monkeypatch.setattr(bd, "_closed_form", lambda *_: crafted)
        vals, arc, t = pentagon_arcs._support(np.tile(Z, (5, 1)))
        assert vals.tolist() == self.WANT_VALS
        assert arc.tolist() == self.WANT_SLOT
        assert t.tolist() == self.WANT_T

    def test_reduce_ties_on_a_window(self, pentagon_arcs, monkeypatch):
        # _windowed's rows each number their own window of arcs (2-D)
        rows = np.minimum(np.arange(bd._STRIDE), 4)
        crafted = [np.array(x, dtype=float)[rows][None] for x in (self.START, self.CRIT, self.T)]
        monkeypatch.setattr(bd, "_closed_form", lambda *_: crafted)
        win = np.array([[3, 4, 0, 1, 2]])
        vals, arc, t = pentagon_arcs._windowed(win, np.tile(Z, (1, bd._STRIDE, 1)))
        assert vals[:5].tolist() == self.WANT_VALS
        assert arc[:5].tolist() == win[0, self.WANT_SLOT].tolist()
        assert t[:5].tolist() == self.WANT_T


class TestMembership:
    def test_center_in_antipode_out(self, octant):
        assert octant.contains(octant.enclosing_center)
        assert not octant.contains(-octant.enclosing_center)

    def test_boundary_points_contained(self, octant, quarter_cap):
        for body in (octant, quarter_cap):
            for p in body.arcs.sample_points(64)[1]:
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
            pts = body.arcs.sample_points(100)[1]
            done = 0
            while done < 350:
                i, j = rng.integers(0, len(pts), size=2)
                if np.linalg.norm(pts[i] - pts[j]) < 1e-9:
                    continue
                t = rng.uniform()
                p = sphere.normalize((1 - t) * pts[i] + t * pts[j])
                assert body.contains(p, tol=1e-9)
                done += 1


class TestBoundarySample:
    def test_octant_three_samples_hit_vertices(self, octant):
        pts = octant.arcs.sample_points(3)[1]
        assert vertex_sets_match(pts, np.eye(3), tol=1e-12)

    def test_cap_samples_azimuthally_even(self, quarter_cap):
        pts = quarter_cap.arcs.sample_points(360)[1]
        az = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
        spacing = np.diff(az)
        assert np.all(np.abs(np.abs(spacing) - 2 * math.pi / 360) < 1e-9)


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
                    t = rng.uniform(0.2, 0.8)
                    inner.append(sphere.normalize((1 - t) * corner + t * q))
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
                assert abs(np.asarray(body.arcs.support_extreme(c)).item()) < 1e-10


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
        on = quarter_cap.arcs.sample_points(16)[1]
        off = np.array([sphere.normalize([0.0, 0.0, 1.0]),
                        sphere.normalize([1.0, 0.0, 0.0])])
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
