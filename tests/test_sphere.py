"""Geodesic primitives: distances, lunes, frames."""

import math

import numpy as np
import pytest
from conftest import random_unit

from lunes import sphere
from lunes.errors import DegenerateLune

E1, E2, E3 = np.eye(3)


def lune_thickness_by_definition(g, h):
    """Distance between the midpoints of the two bounding semicircles.

    The semicircle of the g-circle inside H(h) has its midpoint at the point
    of that circle nearest to h, i.e. the normalized component of h
    orthogonal to g; symmetrically for the other side.
    """
    mid_g = sphere.normalize(h - (h @ g) * g)
    mid_h = sphere.normalize(g - (g @ h) * h)
    return sphere.dist(mid_g, mid_h)


class TestDist:
    def test_known_angles(self):
        assert sphere.dist(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)
        assert sphere.dist(E1, E1) == 0.0
        assert sphere.dist(E1, -E1) == pytest.approx(math.pi, abs=1e-15)
        p = sphere.normalize([1.0, 1.0, 0.0])
        assert sphere.dist(E1, p) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_unit(rng, 10_000) for _ in range(3))
        ab = np.array([sphere.dist(x, y) for x, y in zip(a, b)])
        ba = np.array([sphere.dist(y, x) for x, y in zip(a, b)])
        bc = np.array([sphere.dist(x, y) for x, y in zip(b, c)])
        ac = np.array([sphere.dist(x, y) for x, y in zip(a, c)])
        assert np.max(np.abs(ab - ba)) == 0.0
        assert np.all(ac <= ab + bc + 1e-12)

    def test_precise_for_tiny_angles(self):
        # the cross/dot form keeps relative accuracy where arccos loses it
        eps = 1e-8
        p = sphere.normalize([math.sin(eps), 0.0, math.cos(eps)])
        assert sphere.dist(E3, p) == pytest.approx(eps, rel=1e-9)


class TestGeodesic:
    def test_orthonormal_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = random_unit(rng)
            u, v = sphere.orthonormal_frame(n)
            gram = np.array([u, v, n]) @ np.array([u, v, n]).T
            assert np.allclose(gram, np.eye(3), atol=1e-12)
            assert np.linalg.det(np.array([u, v, n])) == pytest.approx(
                1.0, abs=1e-12)


class TestLune:
    def test_thickness_closed_form_vs_definition(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            g, h = random_unit(rng), random_unit(rng)
            if not 1e-6 < sphere.dist(g, h) < math.pi - 1e-6:
                continue
            lune = sphere.lune_make(g, h)
            want = math.pi - sphere.dist(g, h)
            assert lune.thickness == pytest.approx(want, abs=1e-12)
            assert lune_thickness_by_definition(g, h) == pytest.approx(
                want, abs=1e-10)

    def test_midpoints_and_corners(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g, h = random_unit(rng), random_unit(rng)
            if not 1e-3 < sphere.dist(g, h) < math.pi - 1e-3:
                continue
            lune = sphere.lune_make(g, h)
            assert np.allclose(lune.mid_g,
                               sphere.normalize(h - (h @ g) * g), atol=1e-12)
            assert np.allclose(lune.mid_h,
                               sphere.normalize(g - (g @ h) * h), atol=1e-12)
            c1, c2 = lune.corners
            assert np.allclose(c1, -c2, atol=1e-12)
            for c in (c1, c2):
                assert abs(c @ g) < 1e-12 and abs(c @ h) < 1e-12

    def test_half_pi_dissection(self):
        # a great circle through the hemisphere center cuts it into two
        # lunes of thickness pi/2
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_unit(rng)
            q = sphere.normalize(np.cross(c, random_unit(rng)))
            for pole in (q, -q):
                assert sphere.lune_make(c, pole).thickness == pytest.approx(
                    math.pi / 2, abs=1e-10)

    def test_centers_normalized_once(self):
        # the lune holds the unit centers lune_make normalizes: scaling by 2
        # rounds nothing, so the lune is the same bit for bit, and any scale
        # gives unit centers
        rng = np.random.default_rng(7)
        for _ in range(50):
            g, h = random_unit(rng), random_unit(rng)
            want = sphere.lune_make(g, h)
            got = sphere.lune_make(2 * g, 2 * h)
            for a, b in ((want.g, got.g), (want.h, got.h), (want.mid_g, got.mid_g),
                         (want.mid_h, got.mid_h), (want.corners[0], got.corners[0])):
                assert np.array_equal(a, b)
            assert want.thickness == got.thickness
            lune = sphere.lune_make(2 * g, 3 * h)
            assert np.all(np.abs(np.linalg.norm([lune.g, lune.h], axis=1) - 1.0) <= 1e-15)
            assert np.allclose([lune.g, lune.h], [want.g, want.h], rtol=0.0, atol=1e-15)

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(DegenerateLune):
            sphere.lune_make(E1, E1)
        with pytest.raises(DegenerateLune):
            sphere.lune_make(E1, -E1)

    def test_lune_contains_cap(self, quarter_cap):
        from lunes import construct
        z = np.array([0.0, 0.0, 1.0])
        q = sphere.normalize([0.0, 1.0, 1.0])
        lune = sphere.lune_make(z, q)
        assert sphere.lune_contains(lune, construct.cap(z, 0.3))
        assert not sphere.lune_contains(lune, construct.cap(z, 0.9))
