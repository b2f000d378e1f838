"""Width, thickness, diameter, and the property verdicts."""

import math

import numpy as np
import pytest
from conftest import random_cd_triangle_vertices

from lunes import body as bd
from lunes import construct, io, metrics, sphere
from lunes.errors import InvalidResolution, NotSupporting

HALF_PI = math.pi / 2
Z = np.array([0.0, 0.0, 1.0])


class TestWidthAt:
    def test_cap_width_twice_radius(self):
        rho = 0.6
        cap = construct.cap(Z, rho)
        c = np.array([math.sin(HALF_PI - rho), 0.0, math.cos(HALF_PI - rho)])
        sample = metrics.width_at(cap, c, n=240)
        assert sample.width == pytest.approx(2 * rho, abs=1e-9)
        lune = sphere.lune_make(sample.support_center, sample.opposing_center)
        assert lune.thickness == pytest.approx(sample.width, abs=1e-9)
        assert sphere.lune_contains(lune, cap, tol=1e-8)

    def test_octant_width_half_pi(self, octant):
        sample = metrics.width_at(octant, np.array([1.0, 0.0, 0.0]), n=240)
        assert sample.width == pytest.approx(HALF_PI, abs=1e-9)

    def test_brute_force_oracle_on_polygon(self):
        poly = construct.random_convex_polygon(31, n=6, max_diam=1.0)
        c = bd.supporting_hemisphere_centers(poly, n=240)[7]
        got = metrics.width_at(poly, c, n=240).width
        # oracle: minimum over a dense grid of supporting lunes through c;
        # the grid only overestimates the true minimum
        free = bd.supporting_hemisphere_centers(poly, n=4096)
        free = free[np.linalg.norm(free - c, axis=1) > 1e-9]
        angles = np.arccos(np.clip(free @ c, -1.0, 1.0))
        want = math.pi - float(angles.max())
        assert got <= want + 1e-9
        assert got == pytest.approx(want, abs=5e-6)

    def test_non_supporting_center_rejected(self, octant):
        with pytest.raises(NotSupporting):
            metrics.width_at(octant, sphere.unit_vec(1.0, 1.0, 1.0))
        with pytest.raises(NotSupporting):
            metrics.width_at(octant, -np.array([1.0, 0.0, 0.0]))


class TestThicknessDiameter:
    def test_cap_values(self):
        for rho in (0.3, math.pi / 4, 1.0):
            cap = construct.cap(Z, rho)
            assert metrics.thickness(cap, n=240).value == pytest.approx(
                2 * rho, abs=1e-9)
            assert metrics.diameter(cap, n=240).value == pytest.approx(
                2 * rho, abs=1e-9)

    def test_octant_values(self, octant):
        assert metrics.thickness(octant, n=240).value == pytest.approx(
            HALF_PI, abs=1e-9)
        assert metrics.diameter(octant, n=240).value == pytest.approx(
            HALF_PI, abs=1e-9)

    def test_thickness_witness_lune_contains_body(self, cd_triangle):
        res = metrics.thickness(cd_triangle, n=240)
        lune = sphere.lune_make(res.witness.support_center,
                                res.witness.opposing_center)
        assert lune.thickness == pytest.approx(res.value, abs=1e-8)
        assert sphere.lune_contains(lune, cd_triangle, tol=1e-6)

    def test_diameter_endpoints_on_body(self, cd_triangle):
        res = metrics.diameter(cd_triangle, n=240)
        assert res.value == pytest.approx(HALF_PI, abs=1e-9)
        assert cd_triangle.contains(res.p, tol=1e-9)
        assert cd_triangle.contains(res.q, tol=1e-9)
        assert sphere.dist(res.p, res.q) == pytest.approx(res.value,
                                                          abs=1e-12)


class TestConstantWidth:
    def test_quarter_cap_passes_at_half_pi(self, quarter_cap):
        v = metrics.is_constant_width(quarter_cap, tol=1e-6, n=240)
        assert v.passed
        assert v.witness["w_mean"] == pytest.approx(HALF_PI, abs=1e-9)

    def test_cd_triangle_passes(self, cd_triangle):
        v = metrics.is_constant_width(cd_triangle, tol=1e-6, n=240)
        assert v.passed and v.deviation <= 1e-9

    def test_random_polygon_fails(self):
        poly = construct.random_convex_polygon(5, n=6, max_diam=1.0)
        v = metrics.is_constant_width(poly, tol=1e-6, n=240)
        assert not v.passed and v.deviation > 1e-3


class TestConstantDiameter:
    def test_cap_passes(self):
        cap = construct.cap(Z, 0.7)
        v = metrics.is_constant_diameter(cap, tol=1e-6, n=240)
        assert v.passed
        assert v.witness["delta"] == pytest.approx(1.4, abs=1e-9)

    def test_octant_passes(self, octant):
        assert metrics.is_constant_diameter(octant, tol=1e-6, n=240).passed

    def test_half_pi_gon_passes(self, regular_gons):
        v = metrics.is_constant_diameter(regular_gons[(5, HALF_PI)],
                                         tol=1e-6, n=240)
        assert v.passed

    def test_random_polygon_fails(self):
        poly = construct.random_convex_polygon(6, n=6, max_diam=1.0)
        v = metrics.is_constant_diameter(poly, tol=1e-6, n=240)
        assert not v.passed

    def test_equivalent_to_constant_width(self, cd_triangle, quarter_cap):
        for body in (cd_triangle, quarter_cap):
            cw = metrics.is_constant_width(body, tol=1e-6, n=240)
            cd = metrics.is_constant_diameter(body, tol=1e-6, n=240)
            assert cw.passed == cd.passed


class TestReduced:
    def test_narrow_five_gon_passes(self, regular_gons):
        v = metrics.reduced_check(regular_gons[(5, 1.2)]
                                  if (5, 1.2) in regular_gons
                                  else construct.regular_odd_gon(5, 1.2),
                                  tol=1e-6, n=240)
        assert v.passed

    def test_cap_passes(self, quarter_cap):
        assert metrics.reduced_check(quarter_cap, tol=1e-6, n=240).passed

    def test_square_fails(self):
        verts = construct.regular_polygon_vertices(4, 0.7)
        square = bd.polygon_from_vertices(verts)
        v = metrics.reduced_check(square, tol=1e-6, n=240)
        assert not v.passed

    def test_failing_verdict_independent_of_labelling(self):
        # the worst corner is reported, wherever the boundary starts
        poly = construct.random_convex_polygon(5, n=8, max_diam=0.8)
        verts = poly.vertices
        seen = []
        for k in range(len(verts)):
            rolled = bd.polygon_from_vertices(
                np.roll(verts, k, axis=0), enclosing_center=poly.enclosing_center)
            seen.append(metrics.reduced_check(rolled, tol=1e-6, n=240))
        assert not any(v.passed for v in seen)
        for v in seen[1:]:
            assert v.deviation == pytest.approx(seen[0].deviation, abs=1e-12)
            assert v.witness["mode"] == seen[0].witness["mode"]
            assert np.allclose(v.witness["corner"], seen[0].witness["corner"],
                               rtol=0.0, atol=1e-12)


class TestClassify:
    def test_half_pi_five_gon(self, regular_gons):
        rep = metrics.classify(regular_gons[(5, HALF_PI)], tol=1e-6, n=240)
        assert rep.thickness.value == pytest.approx(HALF_PI, abs=1e-6)
        assert rep.diameter.value == pytest.approx(HALF_PI, abs=1e-6)
        assert rep.constant_width.passed
        assert rep.constant_diameter.passed
        assert rep.reduced.passed
        assert all(rep.checks.values())

    def test_narrow_five_gon(self, regular_gons):
        rep = metrics.classify(regular_gons[(5, 1.0)], tol=1e-6, n=240)
        assert rep.thickness.value == pytest.approx(1.0, abs=1e-6)
        assert rep.diameter.value < HALF_PI
        assert not rep.constant_width.passed
        assert rep.reduced.passed
        assert all(rep.checks.values())

    def test_wide_cap_thickness_equals_diameter(self):
        # above pi/2 the thickness and diameter coincide
        rep = metrics.classify(construct.cap(Z, 1.0), tol=1e-6, n=240)
        assert rep.thickness.value == pytest.approx(2.0, abs=1e-9)
        assert rep.diameter.value == pytest.approx(2.0, abs=1e-9)
        assert rep.checks["thickness_equals_diameter_above_halfpi"]
        assert rep.checks["halfpi_sign_agreement"]

    def test_thickness_never_exceeds_diameter(self, random_polygons):
        for poly in random_polygons[:8]:
            rep = metrics.classify(poly, tol=1e-6, n=240)
            assert rep.thickness.value <= rep.diameter.value + 1e-8
            assert rep.checks["thickness_le_diameter"]


class TestDualityRoutes:
    def test_thickness_against_polar_diameter(self, random_polygons):
        for poly in random_polygons[:6]:
            th = metrics.thickness(poly, n=240).value
            dual_diam = metrics.diameter(bd.polar_dual(poly), n=240).value
            assert th + dual_diam == pytest.approx(math.pi, abs=1e-6)

    def test_width_internal_cross_check_everywhere(self, random_polygons):
        # width_at verifies its lune against the dual-form route at 1e-8
        # internally and raises ConsistencyError on mismatch
        rng = np.random.default_rng(32)
        for poly in random_polygons[:4]:
            centers = bd.supporting_hemisphere_centers(poly, n=64)
            for c in centers[rng.choice(len(centers), size=8, replace=False)]:
                metrics.width_at(poly, c, n=240)

    def test_reduced_theorems_on_sweep(self, regular_gons, tmp_path):
        # regular odd-gons are reduced, as built and after save -> load
        # (which recomputes the enclosing center)
        for (n, tgt), built in regular_gons.items():
            path = str(tmp_path / f"gon-{n}-{tgt}.json")
            io.save_body(built, path)
            for body in (built, io.load_body(path)):
                red = metrics.reduced_check(body, tol=1e-6, n=240)
                assert red.passed, ((n, tgt), red.witness)
                th = metrics.thickness(body, n=240).value
                dm = metrics.diameter(body, n=240).value
                if th >= HALF_PI - 1e-8:
                    cw = metrics.is_constant_width(body, tol=1e-6, n=240)
                    assert cw.passed
                    assert th == pytest.approx(dm, abs=1e-6)
                if th <= HALF_PI + 1e-8:
                    assert dm <= HALF_PI + 1e-6
                if th < HALF_PI - 0.05:
                    assert dm < HALF_PI - 1e-6


class TestResolution:
    @pytest.mark.parametrize("fn", [
        metrics.thickness, metrics.diameter, metrics.is_constant_width,
        metrics.is_constant_diameter, metrics.reduced_check, metrics.classify])
    def test_sample_count_below_one_rejected(self, octant, fn):
        for n in (0, -5):
            with pytest.raises(InvalidResolution):
                fn(octant, n=n)

    def test_width_at_rejects_sample_count_below_one(self, octant):
        with pytest.raises(InvalidResolution):
            metrics.width_at(octant, np.array([1.0, 0.0, 0.0]), n=0)
