"""Width, thickness, diameter, and the property verdicts."""

import math

import numpy as np
import pytest
from conftest import STADIUM_LENS, cd_induced, lens, random_cd_triangle_vertices

from lunes import body as bd
from lunes import construct, io, metrics, sphere
from lunes.errors import InvalidResolution, InvalidSpec, NotSupporting

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
            metrics.width_at(octant, sphere.normalize([1.0, 1.0, 1.0]))
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

    @pytest.mark.parametrize("make", [
        lambda: construct.random_convex_polygon(8, n=7, max_diam=1.2),
        lambda: construct.cap(Z, 0.7),
        lambda: construct.constant_diameter_triangle(
            *random_cd_triangle_vertices(np.random.default_rng(3)))],
        ids=["polygon", "cap", "cd_triangle"])
    def test_verdicts_reuse_the_profile(self, monkeypatch, make):
        # thickness and diameter sample both curves and find every sample's
        # farthest point; the two verdicts read those profiles and query
        # no sampling of n directions again; every support query, values
        # only or with points, passes through the kernel _support
        body, n = make(), 240
        metrics.thickness(body, n=n)
        metrics.diameter(body, n=n)
        query = bd._Arcs._support

        def small_only(arcs, dirs):
            assert len(np.atleast_2d(dirs)) < n, "a new query of n directions"
            return query(arcs, dirs)

        monkeypatch.setattr(bd._Arcs, "_support", small_only)
        metrics.is_constant_width(body, n=n)
        metrics.is_constant_diameter(body, n=n)

    @pytest.mark.parametrize("make", [
        lambda: construct.random_convex_polygon(8, n=7, max_diam=1.2),
        lambda: construct.regular_odd_gon(5, 1.0)],
        ids=["polygon", "regular_5_gon"])
    def test_classify_builds_the_witness_lune_once(self, monkeypatch, make):
        # reduced_check on a body with corners reads the thickness that
        # classify already measured: one witness lune, checked once
        body, made = make(), []

        def counted(k, kp):
            made.append(1)
            return sphere.lune_make(k, kp)

        monkeypatch.setattr(metrics, "lune_make", counted)
        metrics.classify(body, n=240)
        assert len(made) == 1

    @pytest.mark.parametrize("make", [
        lambda: construct.constant_diameter_triangle(
            *random_cd_triangle_vertices(np.random.default_rng(3))),
        lambda: construct.cap(Z, 0.7)], ids=["cd_triangle", "cap"])
    def test_settled_curves_query_nothing_past_their_profiles(self, monkeypatch, make):
        # classify's thickness and diameter read their curves' best samples
        # off the profiles: past each profile, _curve_diameter makes no
        # support query (no climb, no set-up, no re-query of p and q)
        body, inside, queries = make(), [], []
        curve_diameter, support = metrics._curve_diameter, bd._Arcs._support

        def profiled_first(arcs, n):
            metrics._profile(arcs, n)
            inside.append(arcs)
            try:
                return curve_diameter(arcs, n)
            finally:
                inside.pop()

        def counted(arcs, dirs):
            if inside:
                queries.append(len(np.atleast_2d(dirs)))
            return support(arcs, dirs)

        monkeypatch.setattr(metrics, "_curve_diameter", profiled_first)
        monkeypatch.setattr(bd._Arcs, "_support", counted)
        report = metrics.classify(body, tol=1e-6, n=720)
        assert queries == []
        assert report.constant_width.passed and report.constant_diameter.passed

    def test_unsettled_sample_still_climbs(self):
        # the polar dual of this lens has its best profile sample off the
        # maximum: its one-sided slopes do not settle it, and the climb
        # moves it by 3.7e-6, bit for bit as the climb route alone does
        h = 0.2
        arcs = lens((math.sin(h), 0.0, math.cos(h)), 0.5,
                    (-math.sin(h), 0.0, math.cos(h)), 0.4).dual_arcs
        params, _, far, far_pts = metrics._profile(arcs, 720)
        i = metrics._first_tied(far, far.max(), far.max())
        assert not metrics._settled(arcs, len(params), i, far_pts[i])

        def fn(s, rows):
            p, tangent = arcs.tangent_at(s)
            q = arcs.far_point(p)
            return -sphere.dot(p, q), -sphere.dot(tangent, q)

        grid = np.concatenate([params[-1:] - arcs.total, params, params[:1] + arcs.total])
        p, tangent = arcs.tangent_at(params[i:i + 1])
        start = -sphere.dot(p, far_pts[i]), -sphere.dot(tangent, far_pts[i])
        p = arcs.point_at(metrics._climb(fn, grid[None], np.array([i + 1]), *start)[0])[0]
        climbed = float(sphere.dist(p, arcs.far_point(p)[0]))
        assert metrics._curve_diameter(arcs, 720)[0] == climbed > far.max() + 1e-6

    def test_unsettled_climb_starts_from_the_settled_slope(self, monkeypatch):
        # the climb on that lens starts from the best sample's value and the
        # right slope _settled formed: one tangent_at per climb step, and
        # none for the start (5 calls when the start was looked up again)
        h = 0.2
        arcs = lens((math.sin(h), 0.0, math.cos(h)), 0.5,
                    (-math.sin(h), 0.0, math.cos(h)), 0.4).dual_arcs
        metrics._profile(arcs, 720)
        calls, tangent_at = [], bd._Arcs.tangent_at
        monkeypatch.setattr(bd._Arcs, "tangent_at",
                            lambda self, s: calls.append(len(s)) or tangent_at(self, s))
        metrics._curve_diameter(arcs, 720)
        assert calls == [1, 1, 1, 1]

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


class TestTiedWitnesses:
    @staticmethod
    def _witnesses(body):
        cw = metrics.is_constant_width(body, tol=1e-6, n=240).witness
        cd = metrics.is_constant_diameter(body, tol=1e-6, n=240).witness
        th = metrics.thickness(body, n=240).witness
        dm = metrics.diameter(body, n=240)
        return np.stack([cw["argmin_center"], cw["argmax_center"], cd["worst_point"],
                         th.support_center, th.opposing_center, dm.p, dm.q])

    def test_cap_witnesses_are_first_samples(self):
        # every width and farthest distance of a cap ties: each witness is
        # the first sample of its profile, or that sample's farthest point
        cap = construct.cap(np.array([0.6, 0.0, 0.8]), 0.7)
        dual, arcs = (metrics._profile(a, 240) for a in (cap.dual_arcs, cap.arcs))
        first = [dual[1][0], dual[1][0], arcs[1][0], dual[1][0], dual[3][0],
                 arcs[1][0], arcs[3][0]]
        assert np.array_equal(self._witnesses(cap), np.stack(first))

    def test_one_ulp_leaves_witnesses_in_place(self, cd_triangle):
        # the profile of a constant-diameter body ties to roundoff, so a
        # radius one ulp longer leaves each witness at its sample
        b = cd_triangle
        nudged = bd.SphericalBody(bd.Boundary(b.centers, np.nextafter(b.radii, 4.0), b.starts))
        moved = sphere.dist(self._witnesses(b), self._witnesses(nudged))
        assert np.all(moved <= 1e-12)


class TestReduced:
    def test_stadium_fails_on_its_arcs(self):
        # no corner to probe: its widths on the curved arcs reach 0.459
        # above the thickness, which the theorem checks would read as the
        # paper's theorem failing
        stadium = bd.polar_dual(lens(*STADIUM_LENS))
        assert len(stadium.corners) == 0
        v = metrics.reduced_check(stadium, tol=1e-6, n=720)
        assert not v.passed and v.witness["mode"] == "arc_width"
        assert v.deviation == pytest.approx(0.4585176964777, abs=1e-9)
        thick = metrics.thickness(stadium, n=720).value
        assert v.witness["width"] - thick == pytest.approx(v.deviation, abs=1e-15)
        # the witness point is where its supporting hemisphere touches
        assert abs(v.witness["point"] @ v.witness["support_center"]) <= 1e-12
        assert all(metrics.classify(stadium, tol=1e-6, n=720).checks.values())

    @pytest.mark.parametrize("r1, r2, d", [(0.3, 0.3, 0.5), (1.2, 0.4, 1.1), (0.8, 1.5, 1.0)])
    def test_lens_duals_fail_on_their_arcs(self, r1, r2, d):
        body = bd.polar_dual(lens(Z, r1, [math.sin(d), 0.0, math.cos(d)], r2))
        v = metrics.reduced_check(body, tol=1e-6, n=720)
        assert not v.passed and v.witness["mode"] == "arc_width"

    def test_reduced_smooth_bodies_pass_their_arc_screen(self, cd_triangle):
        # caps and constant-diameter bodies, and their polar duals: every
        # width on the curved arcs is the thickness, to roundoff
        gon = construct.constant_diameter_odd_gon(
            construct.regular_polygon_vertices(5, 0.4, phase=0.3))
        for body in (construct.cap(Z, 0.2), construct.cap(Z, 1.3), cd_triangle, gon):
            for b in (body, bd.polar_dual(body)):
                v = metrics.reduced_check(b, tol=1e-6, n=720)
                assert v.passed, v.witness
                assert v.witness["arc_samples"] >= 720
                assert v.witness["arc_width_excess"] <= 1e-12

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

    TOLS = [1e-6, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2, 1.0, 1e308]

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("target", [0.01, 1.0])
    def test_regular_gons_pass_at_every_tolerance(self, n, target):
        # the cap-cut probe is bounded by the body, depth min(10 tol,
        # thickness / 2): an unbounded cut, deeper than about twice the
        # thickness, no longer thins a reduced gon, and at 1e308 its depth
        # overflowed
        gon = construct.regular_odd_gon(n, target)
        for tol in self.TOLS:
            v = metrics.reduced_check(gon, tol=tol, n=720)
            assert v.passed, (tol, v.witness)

    def test_bounded_cut_still_fails_the_square_and_random_polygons(self):
        square = bd.polygon_from_vertices(construct.regular_polygon_vertices(4, 0.7))
        for tol in self.TOLS[:8]:
            assert not metrics.reduced_check(square, tol=tol, n=720).passed, tol
        for seed in range(30):
            body = construct.random_convex_polygon(seed)
            assert not metrics.reduced_check(body, tol=1e-6, n=720).passed, seed

    @staticmethod
    def _dense_margin(body, samples):
        """The best lune of a dense scan along each probed corner's dual
        arc; the worst corner's."""
        thick = metrics.thickness(body, n=720).value
        idx = metrics._probed_corners(body)
        rows = body._corner_row[idx]
        dual = body.dual_arcs
        phis = np.linspace(dual.cum[rows], dual.cum[rows + 1], samples, axis=1)
        corners = np.repeat(body.vertices[idx], samples, axis=0)
        partners = (-math.cos(thick) * dual.point_at(phis.ravel())
                    + math.sin(thick) * corners)
        return body.arcs.support_extreme(partners).reshape(len(rows), samples).max(axis=1).min()

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("target", [0.4, 1.0, HALF_PI])
    def test_lune_search_beats_dense_scan(self, n, target):
        # the reported margin is the worst corner's best lune; no point of a
        # dense scan along any corner's dual arc finds a better lune there
        gon = construct.regular_odd_gon(n, target)
        v = metrics.reduced_check(gon, tol=1e-6, n=720)
        assert v.passed
        assert v.witness["worst_support_margin"] >= self._dense_margin(gon, 4001) - 1e-15

    def test_lune_search_beats_dense_scan_on_induced_body(self, monkeypatch):
        # 720 arcs, each corner's dual arc about 0.009 long: the scan takes
        # a few samples at the profile's spacing, and the climb still finds
        # every probed corner's best lune
        body = cd_induced()
        assert len(body.corners) > metrics.MAX_PROBES
        scans, climb = [], metrics._climb

        def recorded(fn, grid, j, *start):
            scans.append(grid.shape)
            return climb(fn, grid, j, *start)
        monkeypatch.setattr(metrics, "_climb", recorded)
        v = metrics.reduced_check(body, tol=1e-4, n=720)
        assert v.passed
        assert scans[-1][0] == metrics.MAX_PROBES and 3 <= scans[-1][1] <= 8
        assert v.witness["worst_support_margin"] >= self._dense_margin(body, 1001) - 1e-15

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("target", [0.4, 1.0, HALF_PI])
    def test_lune_search_settles_kink_in_few_evaluations(self, monkeypatch, n, target):
        # every corner's best lune touches the gon at two points: a kink on
        # the middle scan sample, which the search must settle at once
        gon = construct.regular_odd_gon(n, target)
        metrics.thickness(gon, n=720)  # the diameter search runs here, once
        evals, climb = [], metrics._climb

        def counted(fn, grid, j, *start):
            evals.append(0)

            def fn_counted(s, rows):
                evals[-1] += 1
                return fn(s, rows)
            return climb(fn_counted, grid, j, *start)
        monkeypatch.setattr(metrics, "_climb", counted)
        assert metrics.reduced_check(gon, tol=1e-6, n=720).passed
        assert len(evals) == 1 and evals[0] <= 6

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

    def test_probes_independent_of_labelling(self):
        # a hull of 114 corners, more than MAX_PROBES: the probed corners are
        # those of largest turn, so every relabelling probes the same ones
        rng = np.random.default_rng(3)
        u, v = sphere.orthonormal_frame(Z)
        polar = 0.6 * (1.0 + 0.001 * rng.uniform(-1.0, 1.0, 200))
        az = rng.uniform(0.0, 2 * math.pi, 200)
        pts = (np.sin(polar)[:, None] * (np.cos(az)[:, None] * u + np.sin(az)[:, None] * v)
               + np.cos(polar)[:, None] * Z)
        hull = bd.hull_from_points(pts)
        assert len(hull.corners) > metrics.MAX_PROBES
        seen = []
        for k in range(0, len(hull.vertices), 15):
            rolled = bd.polygon_from_vertices(np.roll(hull.vertices, k, axis=0),
                                              enclosing_center=hull.enclosing_center)
            seen.append(metrics.reduced_check(rolled, tol=1e-6, n=720))
        assert not any(v.passed for v in seen)
        for v in seen[1:]:
            assert v.deviation == pytest.approx(seen[0].deviation, abs=1e-12)
            assert v.witness["mode"] == seen[0].witness["mode"]


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

    @pytest.mark.parametrize("rho", [1.57079, 1e-5])
    def test_extreme_caps_at_tight_tolerance(self, rho):
        # nearly a hemisphere, or tiny: the widths' lunes have nearly equal
        # or nearly antipodal centers, where their midpoints must keep
        # their digits for every theorem check to hold at tol 1e-12
        rep = metrics.classify(construct.cap(np.array([0.6, 0.0, 0.8]), rho), tol=1e-12)
        assert abs(rep.thickness.value - 2 * rho) <= 1e-15
        assert abs(rep.diameter.value - 2 * rho) <= 1e-15
        assert all(rep.checks.values())

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

    @pytest.mark.parametrize("fn", [
        metrics.is_constant_width, metrics.is_constant_diameter, metrics.reduced_check,
        metrics.classify])
    @pytest.mark.parametrize("tol", [math.nan, -1e-6])
    def test_nan_or_negative_tolerance_rejected(self, fn, tol):
        # a NaN tolerance passed every comparison it failed: the square
        # passed reduced_check, and classify reported thickness_le_diameter
        # False
        square = bd.polygon_from_vertices(construct.regular_polygon_vertices(4, 0.7))
        with pytest.raises(InvalidSpec, match="tolerance"):
            fn(square, tol=tol, n=240)

    def test_width_at_rejects_sample_count_below_one(self, octant):
        with pytest.raises(InvalidResolution):
            metrics.width_at(octant, np.array([1.0, 0.0, 0.0]), n=0)
