"""Property tests on generated bodies and polygons: the closed-form farthest
point, the block-pruned support queries, their chord bounds and the profile
walk against a whole-table reference, the walk's fallbacks, the polygon
diameter read off the profile and against every vertex pair, and the
width/diameter identities built on them, classify's theorem checks on lenses and
polar duals, the exact-slope maximiser on synthetic kinks and
smooth maxima, the planar hull against Qhull, the support-function polygon
Hausdorff distance, the exact Wulff dual, the polar-dual involution,
lossless persistence and the document layout, the loaders on mutated
documents, and boundary validation, the winding included.

Example counts are bounded and the search is derandomized, so the suite is
deterministic and its runtime fixed; it lives apart from the acceptance gate.
"""

import contextlib
import copy
import itertools
import json
import math
import os
import tempfile
from dataclasses import replace
from fractions import Fraction
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from lunes import body as bd
from lunes import cli, construct, io, metrics, sphere, wulff
from lunes.errors import (DegenerateHull, InconsistentVerdicts,
                          InvariantViolation, LunesError)
from lunes.sphere import dist, orthonormal_frame

from conftest import (STADIUM_LENS, cd_induced, equidistant_gon_vertices, facing, lens,
                      mixed_cd_triangle_vertices, random_cd_triangle_vertices,
                      reduced_gon_vertices)

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


def _jittered_ring(axis, rng, k, polar):
    """k points at random azimuths about axis, at angular radius polar
    jittered by up to 1 %."""
    polar = polar * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, k))
    return np.stack([_cap_point(axis, r, az) for r, az
                     in zip(polar, rng.uniform(0.0, 2 * math.pi, k))])


@st.composite
def many_arc_bodies(draw):
    """Bodies of more than one block of the pruned support queries:
    constant-diameter regular 9-, 17- and 33-gons (18-66 arcs, with
    symmetric ties), hulls of 17-300 points on a jittered small circle, and
    Wulff bodies of about 720 arcs induced from a smooth gamma."""
    axis = draw(units)
    kind = draw(st.sampled_from(["cd_gon", "hull", "induced"]))
    if kind == "cd_gon":
        verts = construct.regular_polygon_vertices(
            draw(st.sampled_from([9, 17, 33])), draw(st.floats(0.1, 0.75)),
            center=axis, phase=draw(st.floats(0.0, 1.0)))
        return construct.constant_diameter_odd_gon(verts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "hull":
        k = draw(st.integers(17, 300))
        body = bd.hull_from_points(_jittered_ring(axis, rng, k, draw(st.floats(0.2, 1.0))))
        assume(body.arcs.count > bd._BLOCK)
        return body
    theta = 2 * math.pi * np.arange(720) / 720
    gamma = wulff.GammaFn(theta, 0.5 * (1.0 + rng.uniform(0.02, 0.1) * np.cos(
        int(rng.integers(2, 4)) * theta + rng.uniform(0.0, 2 * math.pi))))
    return wulff.induce_spherical(wulff.wulff_shape(gamma), wulff.frame_at(axis))


bodies = st.one_of(polygons(), caps(), cd_triangles(), many_arc_bodies())


# a sliver triangle 5e-5 thick: its dual curve has points nearly pi apart,
# where arccos of a dot product loses digits
SLIVER = bd.polygon_from_vertices([_cap_point(np.array([0.0, 0.0, 1.0]), polar, az)
                                   for polar, az in ((0.5, 0.0), (5e-5, math.pi / 2),
                                                     (0.5, math.pi))])


# a constant-diameter triangle with two vertices 5e-7 apart: the minimum in
# some directions sits at the very end of a corner arc, whose end misses the
# next arc's start by about 5e-11
NEAR_TWINS = construct.constant_diameter_triangle(
    np.array([math.cos(0.5), math.sin(0.5), 0.0]),
    *(v / np.linalg.norm(v) for v in (np.array([1.0, -9e-8, 5e-7]),
                                      np.array([1.0, -1.8e-9, 1e-8]))))


def _curves(body):
    return (body.arcs, body.dual_arcs)


@settings(BOUNDED, max_examples=30)
@given(bodies)
@example(SLIVER)
@example(NEAR_TWINS)
def test_farthest_point_beats_dense_sampling(body):
    for arcs in _curves(body):
        _, queries = arcs.sample_points(64)
        vals, farthest = arcs.support_min_at(queries)
        assert np.array_equal(vals, arcs.support_extreme(queries))
        # the returned point attains the returned minimum ...
        assert np.max(np.abs(np.sum(queries * farthest, axis=1) - vals)) <= 1e-12
        # ... and no boundary point lies farther
        far = dist(queries, arcs.far_point(queries))
        _, dense = arcs.sample_points(DENSE)
        brute = dist(queries[:, None, :], dense[None, :, :]).max(axis=1)
        assert np.all(far >= brute - 1e-12)
        # the diameter is no shorter than any dense sample's exact farthest
        # distance: the slope search settles at the true maximum
        diam, _, _ = metrics._curve_diameter(arcs, 720)
        assert diam >= np.max(dist(dense, arcs.far_point(dense))) - 1e-13


def _whole_table(arcs, dirs):
    """Reference support minimum: the per-arc closed form on every arc.
    Along arc i, p . d = cos r (c . d) + sin r (a cos t + b sin t)."""
    a, b = dirs @ arcs.u0.T, dirs @ arcs.v0.T
    base = arcs.cos_r * (dirs @ arcs.centers.T)
    t = np.mod(np.arctan2(b, a) + math.pi, 2 * math.pi)
    crit = np.where(t <= arcs.sweeps, base - arcs.sin_r * np.hypot(a, b), np.inf)
    return np.minimum(np.min(base + arcs.sin_r * a, axis=1), np.min(crit, axis=1))


@settings(BOUNDED, max_examples=30)
@given(bodies, st.integers(0, 2**32 - 1))
@example(construct.cap(np.array([0.6, 0.0, 0.8]), 1e-5), 0)
@example(construct.cap(np.array([0.6, 0.0, 0.8]), math.pi / 2 - 1e-5), 0)
def test_prescaled_rows_match_unscaled_arcs(body, seed):
    # points, tangents and support minima from the pre-scaled rows agree
    # with the formulas on u0, v0, the centers, cos r and sin r
    rng = np.random.default_rng(seed)
    for arcs in _curves(body):
        s = np.concatenate([arcs.samples(64)[0], rng.uniform(0.0, arcs.total, 64)])
        i = np.minimum(np.searchsorted(arcs.cum, s, side="right") - 1, arcs.count - 1)
        t = ((s - arcs.cum[i]) / arcs.sin_r[i])[:, None]
        along = np.cos(t) * arcs.u0[i] + np.sin(t) * arcs.v0[i]
        want = arcs.cos_r[i, None] * arcs.centers[i] + arcs.sin_r[i, None] * along
        assert np.max(np.abs(arcs.point_at(s) - want)) <= 1e-15
        p, tangent = arcs.tangent_at(s)
        assert np.array_equal(p, arcs.point_at(s))
        derivative = np.cos(t) * arcs.v0[i] - np.sin(t) * arcs.u0[i]  # d want / ds
        assert np.max(np.abs(tangent - derivative)) <= 1e-15
        dirs = sphere.normalize(rng.normal(size=(64, 3)))
        assert np.max(np.abs(arcs.support_extreme(dirs) - _whole_table(arcs, dirs))) <= 1e-15


@settings(BOUNDED, max_examples=12)
@given(many_arc_bodies(), st.integers(0, 2**32 - 1))
def test_pruned_support_matches_whole_table(body, seed):
    assert body.arcs.count > bd._BLOCK
    rng = np.random.default_rng(seed)
    for arcs in _curves(body):
        _, pts = arcs.sample_points(96)
        randoms = rng.normal(size=(96, 3))
        dirs = np.concatenate([pts, -pts, randoms / np.linalg.norm(randoms, axis=1,
                                                                   keepdims=True)])
        ref = _whole_table(arcs, dirs)
        vals, points = arcs.support_min_at(dirs)
        assert np.max(np.abs(vals - ref)) <= 1e-15
        assert np.max(np.abs(arcs.support_extreme(dirs) - ref)) <= 1e-15
        # an exact tie may return either point, but each attains the minimum
        attained = np.sum(dirs * points, axis=1)
        assert np.max(np.abs(attained - vals)) <= 1e-15


@st.composite
def narrow_polygons(draw):
    """Polygons of diameter below pi/2: hulls of 3-120 points near a circle
    of angular radius at most 0.7, most of more than one block of arcs."""
    axis = draw(units)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(3, 120))
    try:
        return bd.hull_from_points(_jittered_ring(axis, rng, k, draw(st.floats(0.1, 0.7))))
    except LunesError:
        assume(False)


@settings(BOUNDED, max_examples=12)
@given(narrow_polygons())
@example(cd_induced())
def test_far_point_from_polygon_is_a_vertex(body):
    # from inside a polygon of diameter at most pi/2 no edge dips to its
    # sinusoid's minimum, so every farthest point is a vertex: one at an
    # edge's end is pinned there, not at the next edge's start (whole table,
    # one direction at a time) or the block that holds it (pruned)
    assert body.is_polygon
    arcs, verts = body.arcs, body.vertices
    _, pts = arcs.sample_points(max(96, arcs.count))
    one_by_one = np.concatenate([arcs.far_point(p) for p in pts])
    for far in (arcs.far_point(pts), one_by_one):
        gaps = sphere.norm(far[:, None, :] - verts[None, :, :]).min(axis=1)
        assert np.max(gaps) <= 1e-15


# -- the profile walk -----------------------------------------------------------


def _regular_gon(k):
    """A regular k-gon 1.0 thick, k odd: from each vertex the two opposite
    vertices are equally far, an exact tie at every vertex."""
    return construct.regular_odd_gon(k, 1.0)


@settings(BOUNDED, max_examples=12)
@given(st.one_of(many_arc_bodies(), narrow_polygons()))
@example(_regular_gon(65))
@example(_regular_gon(101))
@example(cd_induced())
def test_walk_attains_whole_table_minimum(body):
    for arcs in _curves(body):
        for n in (40, 96, 720, 1500):
            params, pts, far = arcs.sample_far(n)
            want_params, want_pts = arcs.sample_points(n)
            assert np.array_equal(params, want_params) and np.array_equal(pts, want_pts)
            attained = np.sum(pts * far, axis=1)
            assert np.max(np.abs(attained - _whole_table(arcs, pts))) <= 1e-15


def _support_rows(monkeypatch, arcs, n):
    """The row counts of the _support queries that sample_far(n) makes: [n]
    when it goes to far_point at once, [coarse, n] when a guard sends it
    there, [coarse] when it walks.  A fallback must return far_point's
    points exactly."""
    _, pts = arcs.sample_points(n)
    want = arcs.far_point(pts)
    rows, support = [], bd._Arcs._support
    with monkeypatch.context() as mp:
        mp.setattr(bd._Arcs, "_support", lambda a, d: rows.append(len(d)) or support(a, d))
        far = arcs.sample_far(n)[2]
    if rows[-1] == n:
        assert np.array_equal(far, want)
    return rows


@pytest.mark.parametrize("make", [lambda: _regular_gon(65), lambda: _regular_gon(101),
                                  cd_induced], ids=["65-gon", "101-gon", "cd-induced"])
def test_profile_walks(monkeypatch, make):
    # ties at every vertex (the gons) and 720 arcs (the induced body) fire
    # no guard at the profile's resolution
    for arcs in _curves(make()):
        assert _support_rows(monkeypatch, arcs, 720) == [45]


def test_walk_needs_more_arcs_than_a_block(monkeypatch):
    for arcs in _curves(_regular_gon(15)):
        assert arcs.count <= bd._BLOCK
        assert _support_rows(monkeypatch, arcs, 720) == [720]
    for arcs in _curves(_regular_gon(17)):
        assert _support_rows(monkeypatch, arcs, 720) == [45]


def test_walk_needs_two_runs(monkeypatch):
    # one run spans at least half the perimeter, at least the diameter, so
    # the guard on long runs sends fewer than two runs to far_point
    arcs = cd_induced().arcs
    assert _support_rows(monkeypatch, arcs, 2 * bd._STRIDE - 1) == [2, 31]


def test_walk_guard_on_long_runs(monkeypatch):
    # 48 samples in 3 runs: each run is a third of the perimeter, more than
    # half the diameter, so a farthest point could lie inside a run; the
    # windows alone would pass
    arcs = cd_induced().arcs
    _, pts = arcs.sample_points(48)
    _, lo, _ = arcs._support(pts[::bd._STRIDE])
    assert 2 * np.max(np.mod(np.roll(lo, -1) - lo, arcs.count) + 1) <= arcs.count
    assert _support_rows(monkeypatch, arcs, 48) == [3, 48]


def test_walk_guard_on_wide_windows(monkeypatch):
    # a coarse winner one arc behind the one before it (ties can do that)
    # makes a window of every arc
    arcs = cd_induced().arcs
    support = bd._Arcs._support

    def wrapped(a, d):
        vals, arc, t = support(a, d)
        if len(d) == 45:
            arc[1] = (arc[0] - 1) % a.count
        return vals, arc, t
    monkeypatch.setattr(bd._Arcs, "_support", wrapped)
    assert _support_rows(monkeypatch, arcs, 720) == [45, 720]


# -- the chord bounds of the pruned support queries ---------------------------


def _to_chords(x, s0, s1):
    """Distance from the points x[b] (blocks x k x 3) to the great arc from
    s0[b] to s1[b], through the pole of its great circle."""
    pole = sphere.normalize(sphere.cross(s0, s1))
    w = sphere.cross(pole, s0)
    xs, xw, xp = (np.einsum("bkj,bj->bk", x, v) for v in (s0, w, pole))
    along = np.arctan2(xw, xs)
    span = dist(s0, s1)[:, None]
    ends = np.minimum(dist(x, s0[:, None]), dist(x, s1[:, None]))
    return np.where((along >= 0.0) & (along <= span),
                    np.arctan2(np.abs(xp), np.hypot(xs, xw)), ends)


def _block_minima(arcs, dirs):
    """Each block's least value in each direction (blocks x rows), by
    _whole_table on the block's own arcs."""
    return np.stack([_whole_table(SimpleNamespace(**{k: getattr(arcs, k)[arc] for k in (
        "u0", "v0", "centers", "cos_r", "sin_r", "sweeps")}), dirs) for arc in arcs._blocks[0]])


@settings(BOUNDED, max_examples=12)
@given(many_arc_bodies(), st.integers(0, 2**32 - 1))
@example(_regular_gon(65), 0)
@example(cd_induced(), 0)
def test_chords_bound_every_block(body, seed):
    # the chords join the blocks' first starts around the curve; every point
    # of a block, its arcs' ends included, lies within the block's slack of
    # its chord, so each block's bound is at most its least value, in random
    # directions and at the chords' ends and their antipodes
    rng = np.random.default_rng(seed)
    for arcs in _curves(body):
        idx, *_, chord, sweep, slack = arcs._blocks
        s0, _, s1 = chord.reshape(3, -1, 3)
        assert np.max(sphere.norm(s0 - arcs.point_at(arcs.cum[idx[:, 0]]))) <= 1e-15
        assert np.array_equal(s1, np.roll(s0, -1, axis=0))
        assert np.max(np.abs(sweep - dist(s0, s1))) <= 1e-15
        tau = np.linspace(0.0, 1.0, 33) * arcs.sweeps[idx][..., None]
        x = arcs._point(np.repeat(idx.ravel(), 33), tau.ravel()).reshape(len(idx), -1, 3)
        assert np.all(_to_chords(x, s0, s1) <= slack[:, None])
        randoms = sphere.normalize(rng.normal(size=(64, 3)))
        dirs = np.concatenate([randoms, s0, -s0, s1, -s1])
        assert np.all(arcs._low(dirs) <= _block_minima(arcs, dirs))


def test_chords_shorter_than_roundoff():
    # a circle 2e-13 across in 32 arcs (an arc table, not a body): each
    # block's chord is shorter than 1e-12 and keeps only its ends, which
    # still bound the block
    c = np.array([0.0, 0.6, 0.8])
    u, v = orthonormal_frame(c)
    az = 2 * math.pi * np.arange(32) / 32
    starts = sphere.normalize(c + 1e-13 * (np.cos(az)[:, None] * u + np.sin(az)[:, None] * v))
    arcs = bd._Arcs(bd.Boundary(np.tile(c, (32, 1)), np.full(32, 1e-13), starts))
    assert np.all(arcs._blocks[-2] == 0.0)
    dirs = sphere.normalize(np.random.default_rng(3).normal(size=(64, 3)))
    assert np.max(np.abs(arcs.support_extreme(dirs) - _whole_table(arcs, dirs))) <= 1e-15
    assert np.all(arcs._low(dirs) <= _block_minima(arcs, dirs))


def test_lune_scan_visits_few_blocks(monkeypatch):
    # on the induced 720-gon a block's slack (median 0.004) is a tenth of the
    # radius of a cap about it: a row of the lune search's scan evaluates
    # about 3.5 of the 45 blocks (bounded by such caps, 7.4)
    body, tally = cd_induced(), []
    pruned, blockwise = bd._Arcs._pruned, bd._Arcs._blockwise

    def rows(arcs, d):
        tally.append([len(d), 0])
        return pruned(arcs, d)

    def blocks(arcs, b, d):
        tally[-1][1] += len(b)
        return blockwise(arcs, b, d)
    monkeypatch.setattr(bd._Arcs, "_pruned", rows)
    monkeypatch.setattr(bd._Arcs, "_blockwise", blocks)
    assert metrics.reduced_check(body, tol=1e-4).passed
    scans = [t for t in tally if t[0] > metrics.MAX_PROBES]
    assert len(scans) == 1 and scans[0][1] <= 4.5 * scans[0][0]


def _climbed_diameter(arcs, n):
    """The diameter climbed from the best sample of a profile that
    far_point makes, as for a curve of arcs that are not all great."""
    params, pts = arcs.sample_points(max(n, arcs.count, 8))
    far = dist(pts, arcs.far_point(pts))

    def fn(s, rows):
        p, tangent = arcs.tangent_at(s)
        q = arcs.far_point(p)
        return -np.sum(p * q, axis=1), -np.sum(tangent * q, axis=1)
    grid = np.concatenate([params[-1:] - arcs.total, params, params[:1] + arcs.total])
    j = np.argmax(far, keepdims=True) + 1
    p = arcs.point_at(metrics._climb(fn, grid[None], j, *fn(grid[j], j))[0])
    return float(dist(p, arcs.far_point(p))[0])


@BOUNDED
@given(st.one_of(polygons(), narrow_polygons()))
@example(cd_induced())
def test_polygon_diameter_is_the_best_sample(body):
    for arcs in (body.arcs, bd.polar_dual(body).arcs):
        assert np.all(arcs.radii == bd.HALF_PI)
        value = metrics._curve_diameter(arcs, 720)[0]
        assert abs(value - _climbed_diameter(arcs, 720)) <= 1e-14


@BOUNDED
@given(st.one_of(polygons(), narrow_polygons()))
@example(cd_induced())
def test_polygon_diameter_is_a_vertex_pair(body):
    # a polygon's diameter has a vertex at one end; up to pi/2 no edge dips
    # to its sinusoid's minimum from inside, so both ends are vertices (the
    # induced 720-gon has diameter pi/2 to roundoff)
    verts = body.vertices
    pairs = float(np.max(dist(verts[:, None, :], verts[None, :, :])))
    value = metrics.diameter(body).value
    if value <= bd.HALF_PI + 1e-12:
        assert abs(value - pairs) <= 1e-12
    else:
        assert value >= pairs - 1e-12


# -- array kernels against numpy's --------------------------------------------

# sphere.cross, sphere.norm, sphere.dot and body._rolled do numpy's arithmetic
# without its wrappers: they must agree with np.cross, np.linalg.norm,
# np.add.reduce and np.roll bit for bit


def _same(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _vectors(seed, k):
    """Two (k, 3) sets: random directions and lengths, plus near-equal and
    near-opposite pairs, where cross products cancel."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, k, 3)) * 10.0 ** rng.uniform(-8, 3, size=(2, k, 1))
    b[::3] = a[::3] * (1.0 + 1e-9 * rng.normal(size=(len(a[::3]), 3)))
    b[1::3] = -a[1::3] + 1e-12 * rng.normal(size=(len(a[1::3]), 3))
    return a, b


@BOUNDED
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_cross_is_numpy_cross(seed, k):
    a, b = _vectors(seed, k)
    for x, y in ((a[0], b[0]), (a, b), (a[0], b), (a, b[-1])):
        assert _same(sphere.cross(x, y), np.cross(x, y))


@BOUNDED
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_dist_and_normalize_are_their_linalg_forms(seed, k):
    a, b = _vectors(seed, k)
    for x in (a[0], a):
        assert _same(sphere.normalize(x), x / np.linalg.norm(x, axis=-1, keepdims=True))
    a, b = sphere.normalize(a), sphere.normalize(b)
    for x, y in ((a[0], b[0]), (a, b), (a[0], b)):
        ref = np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.sum(x * y, axis=-1))
        assert _same(dist(x, y), ref)


@BOUNDED
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_dot_and_norm_are_add_reduce(seed, k):
    a, b = _vectors(seed, k)
    # a row whose products are all -0.0: add.reduce sums it to +0.0
    a[0], b[0] = [1.0, -0.0, 0.0], [-0.0, 2.0, -3.0]
    for x, y in ((a[0], b[0]), (a, b), (a[0], b), (a.reshape(1, k, 3), b)):
        assert _same(sphere.dot(x, y), np.add.reduce(x * y, axis=-1))
        assert _same(sphere.norm(x), np.linalg.norm(x, axis=-1))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (1, 3), (2, 3), (7, 3)])
def test_rolled_is_numpy_roll(shape):
    x = np.arange(math.prod(shape), dtype=float).reshape(shape)
    assert _same(bd._rolled(x), np.roll(x, -1, axis=0))


@BOUNDED
@given(bodies, st.integers(0, 2**32 - 1))
def test_tangent_at_returns_point_at(body, seed):
    # one lookup gives the point and its tangent: the point is point_at's,
    # and the tangent is a unit vector orthogonal to it
    rng = np.random.default_rng(seed)
    for arcs in _curves(body):
        s = np.concatenate([arcs.cum, rng.uniform(-1.0, 2.0, 32) * arcs.total])
        p, t = arcs.tangent_at(s)
        assert _same(p, arcs.point_at(s))
        assert np.max(np.abs(np.linalg.norm(t, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.sum(p * t, axis=1))) <= 1e-12


def _classify_docs():
    """classify report documents on seeded polygons, caps, regular odd-gons
    and constant-diameter gons, each body built afresh."""
    rng = np.random.default_rng(14)
    made = [construct.random_convex_polygon(seed, n=k, max_diam=1.0)
            for seed, k in ((1, 5), (2, 8))]
    made += [construct.cap(np.array([0.0, 0.6, 0.8]), r) for r in (0.3, 1.1)]
    made += [construct.regular_odd_gon(k, t) for k, t in ((3, 0.4), (5, 1.0), (7, 1.4))]
    made += [construct.constant_diameter_odd_gon(construct.regular_polygon_vertices(
        k, float(rng.uniform(0.3, 0.7)), phase=float(rng.uniform()))) for k in (3, 5, 9)]
    return [json.dumps(io.report_to_doc(metrics.classify(b, tol=1e-6, n=720)))
            for b in made]


def test_classify_documents_match_numpy_kernels(monkeypatch):
    ours = _classify_docs()
    for mod in (sphere, bd, metrics, construct, wulff, io):
        if hasattr(mod, "cross"):
            monkeypatch.setattr(mod, "cross", np.cross)
        if hasattr(mod, "norm"):
            monkeypatch.setattr(mod, "norm", lambda v: np.linalg.norm(v, axis=-1))
        if hasattr(mod, "dot"):
            monkeypatch.setattr(mod, "dot", lambda x, y: np.add.reduce(x * y, axis=-1))
        if hasattr(mod, "_rolled"):
            monkeypatch.setattr(mod, "_rolled", lambda x: np.roll(x, -1, axis=0))
    assert ours == _classify_docs()


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


# -- lunes ---------------------------------------------------------------------


@settings(BOUNDED, max_examples=40)
@given(units, units, st.floats(-8.0, -1.0), st.booleans())
@example(np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0]), -8.0, False)
@example(np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0]), -8.0, True)
def test_lune_midpoints_near_equal_and_antipodal_centers(g, w, log_eps, antipodal):
    # centers 1e-8 to 1e-1 from equal (a lune nearly a hemisphere) or from
    # antipodal (a thin lune): the midpoints' distance is pi - dist(g, h),
    # each midpoint lies on its own boundary circle, and the corner on both
    q = sphere.cross(g, w)
    assume(sphere.norm(q) > 1e-3)
    eps = 10.0 ** log_eps
    h = math.cos(eps) * g + math.sin(eps) * sphere.normalize(q)
    h = -h if antipodal else h
    lune = sphere.lune_make(g, h)
    assert all(map(_same, _lune_fields(lune), _lune_one_at_a_time(g, h)))
    assert abs(lune.thickness - (math.pi - float(dist(g, h)))) <= 1e-15
    assert abs(lune.mid_g @ g) <= 1e-15 and abs(lune.mid_h @ h) <= 1e-15
    for x in (lune.mid_g, lune.mid_h, *lune.corners):
        assert abs(sphere.norm(x) - 1.0) <= 1e-15
    assert max(abs(lune.corners[0] @ g), abs(lune.corners[0] @ h)) <= 1e-15


def _lune_one_at_a_time(g, h):
    """lune_make's fields, each vector formed alone: the reference that its
    stacked passes (both centers normalized in one, both midpoints crossed
    in one) must equal bit for bit."""
    cg, ch = sphere.normalize(g), sphere.normalize(h)
    corner = sphere.normalize(sphere.cross(cg, ch - cg if cg @ ch > 0.0 else ch + cg))
    mid_g, mid_h = sphere.cross(corner, cg), sphere.cross(ch, corner)
    return cg, ch, corner, -corner, mid_g, mid_h, float(dist(mid_g, mid_h))


def _lune_fields(lune):
    return (lune.g, lune.h, *lune.corners, lune.mid_g, lune.mid_h, lune.thickness)


def test_lune_make_stacked_passes_match_one_at_a_time():
    # 2,000 pairs of unnormalized centers: a third at random, a third 1e-8
    # to 1e-1 from equal, a third as far from antipodal
    rng = np.random.default_rng(39)
    for k in range(2000):
        g, w = rng.normal(size=(2, 3))
        if k % 3:
            eps = 10.0 ** rng.uniform(-8.0, -1.0)
            u = sphere.normalize(g)
            h = math.cos(eps) * u + math.sin(eps) * sphere.normalize(sphere.cross(u, w))
            h = -h if k % 3 == 2 else h
        else:
            h = w
        want = _lune_one_at_a_time(g, h)
        assert all(map(_same, _lune_fields(sphere.lune_make(g, h)), want)), k


# -- constant width of every width ---------------------------------------------


@st.composite
def reuleaux_gons(draw):
    """A spherical Reuleaux n-gon of width w (n in 3, 5, 7, w in [0.3, pi/2])
    about a random axis, or its polar dual, of constant width pi - w
    (Lassak and Musielak, Aequationes Math. 92, 2018); returns (body, width).

    The regular n-gon's diagonal, from v_0 to v_h with h = (n - 1) / 2,
    spans pi (n - 1) / n of azimuth, so its circumradius R has
    sin R = sin(w / 2) / sin(pi (n - 1) / 2n); the arc from v_j to v_j+1
    has radius w about the opposite vertex v_j+h+1.
    """
    n = draw(st.sampled_from([3, 5, 7]))
    w = draw(st.floats(0.3, math.pi / 2))
    body = _reuleaux(n, w, draw(units), draw(st.floats(0.0, 1.0)))
    return (bd.polar_dual(body), math.pi - w) if draw(st.booleans()) else (body, w)


def _reuleaux(n, w, axis, phase):
    radius = math.asin(math.sin(0.5 * w) / math.sin(0.5 * math.pi * (n - 1) / n))
    v = construct.regular_polygon_vertices(n, radius, center=axis, phase=phase)
    return bd.SphericalBody(bd.Boundary(v[(np.arange(n) + n // 2 + 1) % n], np.full(n, w), v))


def _many_arc_reuleaux_examples(test):
    """Explicit examples: the Reuleaux 65-, 67- and 101-gons of widths 1.0,
    0.5 and 1.4 and their polar duals, bodies of more than one block of
    arcs whose blocks turn far (every arc of a gon has sin r < 1)."""
    axis = sphere.normalize(np.array([0.3, -0.4, 0.85]))
    for n, w in itertools.product((65, 67, 101), (1.0, 0.5, 1.4)):
        body = _reuleaux(n, w, axis, 0.25)
        for case in ((body, w), (bd.polar_dual(body), math.pi - w)):
            test = example(case, axis, 1.0)(test)
    return test


def _widths(body):
    return metrics.thickness(body).value, metrics.diameter(body).value


@BOUNDED
@given(reuleaux_gons(), units, st.floats(0.1, 3.0))
@_many_arc_reuleaux_examples
def test_reuleaux_gons_have_constant_width(case, axis, angle):
    # cornered bodies of constant width off pi/2, and past it in the duals
    body, width = case
    report = metrics.classify(body, tol=1e-6, n=720)
    assert report.constant_width.passed and report.constant_diameter.passed
    assert report.reduced.passed
    assert max(abs(report.thickness.value - width), abs(report.diameter.value - width)) <= 1e-12
    polar = bd.polar_dual(body)
    assert abs(metrics.thickness(body).value + metrics.diameter(polar).value - math.pi) <= 1e-12
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        io.save_body(body, path)
        loaded = io.load_body(path)
    turned = bd.SphericalBody(bd.Boundary(_rotated(body.centers, axis, angle), body.radii,
                                          _rotated(body.starts, axis, angle)))
    for other in (loaded, turned):
        assert np.max(np.abs(np.subtract(_widths(other), width))) <= 1e-12


# -- the paper's theorems on bodies that could break them -----------------------

# classify's checks hold on every body: each encodes a relation that the
# paper proves for reduced bodies, so a False is a wrong verdict or a wrong
# theorem.  Lenses have corners and curved arcs, and their polar duals are
# smooth without constant width.  Only examples whose verdict deviations are
# 0 to roundoff or above 1e-3 are used, so no verdict sits at its tolerance.


@st.composite
def lenses(draw):
    """The intersection of two caps of radii in [0.1, 1.5] whose circles
    cross, the centers at least 0.02 past containment and at most
    r1 + r2 - 0.02 apart."""
    r1, r2 = draw(st.floats(0.1, 1.5)), draw(st.floats(0.1, 1.5))
    d = draw(st.floats(abs(r1 - r2) + 0.02, r1 + r2 - 0.02))
    c1 = draw(units)
    try:
        return lens(c1, r1, _cap_point(c1, d, draw(st.floats(0.0, 2 * math.pi))), r2)
    except LunesError:
        assume(False)


polar_duals = bodies.map(bd.polar_dual)


def _settled(report):
    """Every verdict's deviation is 0 to roundoff or above 1e-3."""
    devs = [v.deviation for v in (report.constant_width, report.constant_diameter,
                                  report.reduced)]
    return all(d <= 1e-9 or d > 1e-3 for d in devs)


@settings(BOUNDED, max_examples=100)
@given(lenses(), st.booleans())
@example(lens(*STADIUM_LENS), True)
def test_lenses_and_their_duals_are_not_reduced(body, dualize):
    report = metrics.classify(bd.polar_dual(body) if dualize else body, tol=1e-6, n=720)
    assume(_settled(report))
    assert not report.reduced.passed
    assert all(report.checks.values()), report.checks


@settings(BOUNDED, max_examples=40)
@given(polar_duals)
def test_theorem_checks_hold_on_polar_duals(body):
    report = metrics.classify(body, tol=1e-6, n=720)
    assume(_settled(report))
    assert all(report.checks.values()), report.checks


@settings(BOUNDED, max_examples=40)
@given(st.one_of(bodies, lenses()))
def test_body_and_dual_share_constant_width(body):
    # width w for C is pi - w for C° (Lassak and Musielak, Aequationes
    # Math. 92, 2018)
    verdicts = [metrics.is_constant_width(b, tol=1e-6, n=720)
                for b in (body, bd.polar_dual(body))]
    assume(all(v.deviation <= 1e-9 or v.deviation > 1e-3 for v in verdicts))
    assert verdicts[0].passed == verdicts[1].passed


# -- placed samples ------------------------------------------------------------

@st.composite
def tiny_corner_triangles(draw):
    """Constant-diameter triangles with a corner arc of radius 1e-3, 1e-6 or
    1e-9, or none (mixed_cd_triangle_vertices)."""
    eps = draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-9]))
    return construct.constant_diameter_triangle(
        *mixed_cd_triangle_vertices(draw(st.floats(0.9, 1.1)), eps))


@settings(BOUNDED, max_examples=40)
@given(st.one_of(bodies, many_arc_bodies(), lenses(), tiny_corner_triangles()))
@example(construct.cap(np.array([0.6, 0.0, 0.8]), 1e-6))
@example(cd_induced())
def test_placed_samples_are_where_locate_puts_them(body):
    # a sample's arc and angle come from its placement, not from a search:
    # they are _locate's for its parameter, bit for bit, on both curves
    for arcs in _curves(body):
        m = arcs.count
        for n in (m, m + 1, 720, 4 * m):
            params, arc, t, _ = arcs.samples(n)
            want_arc, want_t = arcs._locate(params)
            assert _same(arc, want_arc) and _same(t, want_t)


# -- settled diameters ---------------------------------------------------------

# a curve's best profile sample is its diameter when the sample's own one-sided
# slopes settle it (metrics._settled); otherwise _climb refines it


@settings(BOUNDED, max_examples=40)
@given(st.one_of(caps(), cd_triangles(), many_arc_bodies(), lenses(),
                 reuleaux_gons().map(lambda case: case[0])))
def test_diameter_read_off_the_profile_matches_the_climb(body):
    # on both curves: the climb from a far_point profile's best sample
    # reaches the same value, and no diameter is below the best sample by
    # more than the 64-ulp tie that picks it (_first_tied)
    for arcs in _curves(body):
        far = metrics._profile(arcs, 720)[2]
        value = metrics._curve_diameter(arcs, 720)[0]
        assert abs(value - _climbed_diameter(arcs, 720)) <= 1e-14
        assert value >= far.max() - 64 * np.spacing(far.max())


# -- the exact-slope maximiser -------------------------------------------------

# metrics._climb on synthetic (value, slope) functions over a 33-point grid:
# the result lies within 1e-12 of the argmax and never below the best sample
GRID = np.linspace(0.0, 1.0, 33)
STEP = GRID[1]


def _climbed(f, argmax):
    """Run _climb from the best grid sample of f; returns its evaluations,
    the sample's own included."""
    calls = []

    def fn(s, rows):
        calls.append(s)
        return f(s)
    samples = f(GRID)[0]
    j = int(np.argmax(samples))
    best, value = metrics._climb(fn, GRID[None], np.array([j]), *fn(GRID[[j]], np.array([0])))
    assert abs(best[0] - argmax) <= 1e-12
    assert value[0] >= samples[j]
    assert value[0] == f(best)[0][0]
    return len(calls)


def _kink(k, left, right, tie="left"):
    """The lower of two branches through (k, 0), each given as (slope,
    curvature); at the kink the slope is the `tie` branch's."""
    def f(s):
        u = s - k
        a, b = (m * u + 0.5 * c * u * u for m, c in (left, right))
        on_left = (a < b) | ((a == b) & (tie == "left"))
        return np.minimum(a, b), np.where(on_left, left[0] + left[1] * u,
                                          right[0] + right[1] * u)
    return f


# a branch's curvature relative to its slope: concave up to 4 times, convex
# up to once, so each branch keeps its sign of slope over the whole grid and
# the kink is the maximum
slopes, bends = st.floats(0.1, 2.0), st.floats(-4.0, 1.0)


@settings(BOUNDED, max_examples=40)
@given(st.integers(8, 23), st.floats(0.05, 0.95), slopes, slopes)
def test_climb_settles_straight_kink_off_grid(i, at, up, down):
    # where the tangent lines cross is the kink itself
    k = GRID[i] + at * STEP
    assert _climbed(_kink(k, (up, 0.0), (-down, 0.0)), k) <= 8


@settings(BOUNDED, max_examples=40)
@given(st.integers(8, 23), slopes, slopes, bends, bends, st.sampled_from(["left", "right"]))
def test_climb_settles_kink_on_sample(i, up, down, bend_up, bend_down, tie):
    # the kink's sample is one end of the bracket, and its tangent is exact
    # on whichever branch the tie picks
    f = _kink(GRID[i], (up, bend_up * up), (-down, bend_down * down), tie)
    assert _climbed(f, GRID[i]) <= 8


@settings(BOUNDED, max_examples=40)
@given(st.integers(8, 23), st.floats(0.05, 0.95), slopes, slopes, bends, bends)
def test_climb_settles_curved_kink_off_grid(i, at, up, down, bend_up, bend_down):
    # curved branches need their curvature, and convex ones put the tangent
    # crossing on the side just evaluated, so the step must cross over; still
    # far below the 37 evaluations that bisection from a grid step takes
    k = GRID[i] + at * STEP
    f = _kink(k, (up, bend_up * up), (-down, bend_down * down))
    assert _climbed(f, k) <= 16


@settings(BOUNDED, max_examples=40)
@given(st.floats(0.2, 0.8), st.floats(0.5, 2.0), st.floats(-0.25, 0.25),
       st.sampled_from([0.0, 0.7]))
def test_climb_settles_smooth_maximum(m, bend, skew, peak):
    def f(s):
        u = s - m
        return (peak - 0.5 * bend * u * u + skew * bend * u ** 3,
                -bend * u + 3 * skew * bend * u * u)
    assert _climbed(f, m) <= 16


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_climb_keeps_a_maximum_at_a_grid_end(sign):
    # rising toward the end of the grid: the end sample is the maximum; only
    # the last sample has a left slope to ask for
    def f(s):
        return sign * s, np.full_like(s, sign)
    assert _climbed(f, GRID[-1] if sign > 0 else GRID[0]) == (2 if sign > 0 else 1)


def test_climb_stops_on_a_flat_function():
    # the first sample has no left neighbour: its own slope settles it
    assert _climbed(lambda s: (np.zeros_like(s), np.zeros_like(s)), GRID[0]) == 1


def test_climb_evaluates_only_live_rows():
    # row 0 peaks on a kink at its best sample, where the one-sided slopes
    # settle it: fn sees it in the first two calls (the sample, the left
    # slope) and never again, not for the neighbour either, while row 1, a
    # smooth maximum between samples, climbs on
    kink = _kink(GRID[12], (1.0, 0.0), (-1.0, 0.0), tie="right")

    def smooth(s):
        u = s - 0.61
        return 0.3 - 0.5 * u * u + 0.2 * u ** 3, -u + 0.6 * u * u
    calls = []

    def fn(s, rows):
        calls.append(rows.tolist())
        return tuple(np.where(rows == 0, a, b) for a, b in zip(kink(s), smooth(s)))
    j = np.array([int(np.argmax(f(GRID)[0])) for f in (kink, smooth)])
    rows = np.arange(2)
    best, value = metrics._climb(fn, np.stack([GRID, GRID]), j, *fn(GRID[j], rows))
    assert all(0 in rows for rows in calls[:2]) and len(calls) > 4
    assert all(rows == [1] for rows in calls[2:])
    assert abs(best[0] - GRID[12]) <= 1e-12 and abs(best[1] - 0.61) <= 1e-12
    assert value[0] == kink(best[:1])[0][0] and value[1] == smooth(best[1:])[0][0]


@BOUNDED
@given(many_arc_bodies())
@example(construct.regular_odd_gon(3, 0.4))
@example(construct.regular_odd_gon(5, 1.0))
@example(construct.regular_odd_gon(7, 0.4))
def test_sized_lune_scan_matches_full_scan(body):
    # the lune search samples each probed dual arc at the profile's spacing;
    # the climb from those samples reaches the lunes that the most samples,
    # _SCAN[1], lead to.  A regular odd-gon's best lunes sit on kinks inside
    # its long corner arcs, which a climb from the arc ends alone misses.
    # The probes are run directly: reduced_check decides polygons below
    # pi/2 in closed form
    sized = metrics._corner_probes(body, 1e-6, 720)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_SCAN", (metrics._SCAN[1],) * 2)
        full = metrics._corner_probes(body, 1e-6, 720)
    assert sized.passed == full.passed
    assert abs(sized.deviation - full.deviation) <= 1e-12
    for key in ("worst_support_margin", "support_margin", "thickness_drop"):
        assert (key in sized.witness) == (key in full.witness)
        if key in sized.witness:
            assert abs(sized.witness[key] - full.witness[key]) <= 1e-12


# -- reduced polygons in closed form -------------------------------------------


def _cut(v, i, eps=1e-3):
    """The polygon v with vertex i cut off: replaced by the two points eps
    from it along its edges."""
    w = [sphere.normalize(v[i] + eps * (v[j] - v[i])) for j in (i - 1, (i + 1) % len(v))]
    return bd.polygon_from_vertices(np.concatenate([v[:i], w, v[i + 1:]]))


def _cut_drops(v):
    """How much cutting off each vertex (_cut) lowers the thickness: the
    oracle for reducedness, with no lune or corner probe."""
    thick = metrics.thickness(bd.polygon_from_vertices(v), n=720).value
    return np.array([thick - metrics.thickness(_cut(v, i), n=720).value
                     for i in range(len(v))])


@settings(BOUNDED, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 7, 9]),
       thick=st.sampled_from([0.5, 0.9, 1.3]))
def test_reduced_gons_pass_in_closed_form(seed, n, thick):
    # odd gons with every vertex at the thickness from the side it faces,
    # each foot inside: reduced (Lassak, Colloq. Math. 138, 2015), which the
    # cut oracle confirms, and classify's checks hold with reduced passing
    v = reduced_gon_vertices(np.random.default_rng(seed), n, thick)
    assume(v is not None)
    body = bd.polygon_from_vertices(v)
    assert abs(metrics.thickness(body, n=720).value - thick) <= 1e-12
    for tol in (1e-6, 1e-9):
        verdict = metrics.reduced_check(body, tol=tol, n=720)
        assert verdict.passed and verdict.witness["route"] == "closed_form", verdict.witness
        assert verdict.deviation <= 1e-12
    rep = metrics.classify(body, tol=1e-6, n=720)
    assert rep.reduced.passed and all(rep.checks.values())
    assert np.all(_cut_drops(v) >= 1e-9)


@settings(BOUNDED, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([5, 7, 9]),
       thick=st.sampled_from([0.5, 0.9, 1.3]), pulled=st.integers(0, 8))
def test_a_vertex_pulled_outward_fails_on_its_distance(seed, n, thick, pulled):
    # 1e-3 away from the polygon's center: that vertex now lies farther from
    # the side it faces than the thickness
    v = reduced_gon_vertices(np.random.default_rng(seed), n, thick)
    assume(v is not None)
    i = pulled % n
    v[i] = sphere.normalize(v[i] + 1e-3 * (v[i] - sphere.normalize(v.sum(axis=0))))
    verdict = metrics.reduced_check(bd.polygon_from_vertices(v), tol=1e-6, n=720)
    assert not verdict.passed and verdict.witness["mode"] == "vertex_distance"
    assert verdict.deviation > 1e-6


@pytest.mark.parametrize("n, thick, seed, jitter", [
    (5, 0.9, 7, (0.03, 0.1)), (7, 0.5, 0, (0.03, 0.1)), (5, 1.3, 0, (0.03, 0.1))])
def test_a_foot_outside_fails_and_a_cut_lowers_nothing(n, thick, seed, jitter):
    # every vertex at the thickness from the side it faces, but one foot
    # outside its side: not reduced, as a cut that keeps the thickness shows
    v = equidistant_gon_vertices(np.random.default_rng(seed), n, thick, jitter)
    assert v is not None and facing(v)[1].max() > 1e-3
    verdict = metrics.reduced_check(bd.polygon_from_vertices(v), tol=1e-6, n=720)
    assert not verdict.passed and verdict.witness["mode"] == "foot_outside"
    assert verdict.deviation == pytest.approx(facing(v)[1].max(), abs=1e-12)
    assert _cut_drops(v).min() <= 1e-12


def test_closed_form_agrees_with_the_probes():
    # regular 3- to 9-gons (the odd ones reduced, the even ones not) and
    # seeded random polygons, all below pi/2
    regular = [bd.polygon_from_vertices(construct.regular_polygon_vertices(k, r))
               for k in range(3, 10) for r in (0.2, 0.45, 0.7)]
    random = [construct.random_convex_polygon(seed, n=4 + seed % 6) for seed in range(24)]
    for body in regular + random:
        assert metrics.thickness(body, n=720).value < bd.HALF_PI - 1e-6
        verdict = metrics.reduced_check(body, tol=1e-6, n=720)
        assert verdict.passed == metrics._corner_probes(body, 1e-6, 720).passed
        assert verdict.passed == (body in regular and len(body.corners) % 2 == 1)


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


def _exact_hull(pts):
    """The hull's vertices, counterclockwise from the lowest of the leftmost
    points: Andrew's monotone chain in exact rational arithmetic, so a point
    on an edge is not a vertex."""
    rows = sorted({(Fraction(x), Fraction(y)) for x, y in pts.tolist()})

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]
    return chain(rows) + chain(rows[::-1])


def _assert_exact_hull(pts):
    want = _exact_hull(pts)
    if len(want) < 3:
        with pytest.raises(DegenerateHull):
            bd.planar_hull(pts)
        return
    got = [(Fraction(x), Fraction(y)) for x, y in pts[bd.planar_hull(pts)].tolist()]
    assert want[0] in got
    start = got.index(want[0])
    assert got[start:] + got[:start] == want


@settings(BOUNDED, max_examples=40)
@given(clouds, st.integers(4, 14), st.floats(0.0, 2 * math.pi))
def test_planar_hull_exact_beside_a_far_point(pts, scale, azimuth):
    # a point 10**scale away: each turn is taken from differences at its
    # vertex and held against that vertex's own roundoff, so the far point's
    # scale neither hides a near vertex nor cancels its digits.  The oracle is
    # exact, because Qhull also degrades at these scales
    far = 10.0 ** scale * np.array([[math.cos(azimuth), math.sin(azimuth)]])
    _assert_exact_hull(np.concatenate([pts, far]))


@pytest.mark.parametrize("n", [96, 720])
@pytest.mark.parametrize("tiny", [1e-11, 1e-12, 1e-14, 1e-15, 1e-16])
def test_wulff_shape_beside_a_far_dual_point(tiny, n):
    # gamma = tiny at one of 8 samples puts that direction's dual point
    # 1/tiny out; every active half-plane is kept, and the shape breaks none.
    # The points are scanned in their own angular order: from 1e-15 on, the
    # far point drags the centroid too far out for planar_hull's sort
    gamma = wulff.GammaFn(2 * math.pi * np.arange(8) / 8, np.array([tiny] + [1.0] * 7))
    ang = np.unique(np.concatenate([2 * math.pi * np.arange(n) / n, gamma.angles]))
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = u / gamma(ang)[:, None]
    if tiny >= 1e-14:
        _assert_exact_hull(pts)
    shape = wulff.wulff_shape(gamma, n=n)
    assert len(shape.vertices) == len(_exact_hull(pts))
    assert float(np.max(shape.vertices @ u.T - gamma(ang))) <= 1e-13


@settings(BOUNDED, max_examples=40)
@given(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=24),
       st.floats(-300.0, 300.0))
@example([1.0] * 8, -300.0)
@example([1.0] * 8, 300.0)
def test_wulff_shape_scales_with_gamma(values, exponent):
    # W(s gamma) = s W(gamma) for s anywhere in the normal float range: the
    # planar layer works at unit scale whatever the scale it is given.  The
    # bound is the roundoff of the polar's vertex formula, which meets lines
    # delta apart (the least gap between wulff_shape's directions) with a
    # relative error of about 1e-16 / delta, at s near 1 as well
    s = 10.0 ** exponent
    ang = 2 * math.pi * np.arange(len(values)) / len(values)
    dirs = np.unique(np.concatenate([2 * math.pi * np.arange(720) / 720, ang]))
    delta = float(np.diff(np.append(dirs, dirs[0] + 2 * math.pi)).min())
    one = wulff.wulff_shape(wulff.GammaFn(ang, values))
    shape = wulff.wulff_shape(wulff.GammaFn(ang, s * np.array(values)))
    size = s * float(np.max(np.abs(one.vertices)))
    assert wulff.hausdorff_polygons(shape, one.scaled(s)) <= 4e-16 * size / delta


def test_degenerate_hull_inputs_rejected():
    arc = np.array([[math.cos(t), math.sin(t), 0.0] for t in (0.0, 0.2, 0.5, 0.9)])
    for pts in (arc, arc[:2]):  # on one great circle; two points
        with pytest.raises(DegenerateHull):
            bd.hull_from_points(pts)


@settings(BOUNDED, max_examples=16)
@given(bodies)
@example(construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.0)))
@example(construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.3)))
def test_projection_is_in_hull_order(body):
    # the image is the projection of the samples that project_to_plane
    # keeps (every sample of an arc that is not great, a great arc's start
    # alone), from starts[0] on, and already its own hull: planar_hull
    # returns every index, in cyclic order
    fr = wulff.frame_at(body.enclosing_center)
    shape = wulff.project_to_plane(body, fr, n=720)
    arcs = body.arcs
    params, pts = arcs.sample_points(max(720, arcs.count))
    arc = np.searchsorted(arcs.cum, params, side="right") - 1
    kept = pts[(body.radii[arc] < bd.HALF_PI) | (params == arcs.cum[arc])]
    xy = np.column_stack([kept @ fr.u, kept @ fr.v]) / (kept @ fr.pole)[:, None]
    assert shape.vertices.shape == xy.shape
    assert np.max(np.abs(shape.vertices - xy)) <= 1e-15 * max(1.0, float(np.max(np.abs(xy))))
    idx = bd.planar_hull(shape.vertices)
    assert np.array_equal(np.roll(idx, -int(np.argmin(idx))), np.arange(len(xy)))


# -- enclosing center ----------------------------------------------------------


def _fallback_min_dot(pts):
    """A min_dot under which find_enclosing_center skips its mean fast path
    (10 min_dot is at least the mean's margin) and the points' best margin,
    at least cos 1.5 here, still clears it."""
    mean = pts.mean(axis=0)
    return max(float(np.min(pts @ (mean / np.linalg.norm(mean)))), 1e-8) / 9


def _brute_force_margin(pts):
    """The best margin over the centers of all caps with one, two or three
    of the points on their circle; the smallest enclosing cap is one."""
    centers = list(pts)
    for a, b in itertools.combinations(pts, 2):
        centers.append((a + b) / np.linalg.norm(a + b))
    for a, b, c in itertools.combinations(pts, 3):
        n = np.cross(b - a, c - a)
        if np.linalg.norm(n) > 1e-15:
            centers.append(math.copysign(1.0, n @ a) * n / np.linalg.norm(n))
    return max(float(np.min(pts @ c)) for c in centers)


def _slsqp_margin(pts):
    """The best margin SLSQP reaches from the normalized mean and four axes,
    maximizing t subject to pts . x >= t and |x| = 1."""
    cons = [{"type": "ineq", "fun": lambda x: pts @ x[:3] - x[3]},
            {"type": "eq", "fun": lambda x: x[:3] @ x[:3] - 1.0}]
    best = -math.inf
    for seed in [pts.mean(axis=0), (0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)]:
        seed = np.asarray(seed, dtype=float) / np.linalg.norm(seed)
        res = minimize(lambda x: -x[3], np.append(seed, np.min(pts @ seed)),
                       constraints=cons, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-14})
        c = res.x[:3] / np.linalg.norm(res.x[:3])
        best = max(best, float(np.min(pts @ c)))
    return best


def _cap_sets(max_radius):
    """3 to 11 points in a cap of radius 0.05 to max_radius."""
    return st.tuples(st.integers(3, 11), st.floats(0.05, max_radius)).flatmap(
        lambda count_radius: cap_points(*count_radius))


@settings(BOUNDED, max_examples=100)
@given(_cap_sets(1.4))
def test_enclosing_center_is_the_brute_force_optimum(pts):
    c = bd.find_enclosing_center(pts, min_dot=_fallback_min_dot(pts))
    assert abs(float(np.min(pts @ c)) - _brute_force_margin(pts)) <= 1e-12


@settings(BOUNDED, max_examples=30)
@given(_cap_sets(1.5))
def test_enclosing_center_at_least_slsqp(pts):
    c = bd.find_enclosing_center(pts, min_dot=_fallback_min_dot(pts))
    assert float(np.min(pts @ c)) >= _slsqp_margin(pts) - 1e-12


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


def _tiny_corner_image_and_dual():
    """The image of a constant-diameter triangle with a 1e-9 corner at 2880
    samples, and its dual: the dual's edges at the corner are about 2.5e-12
    long, and roundoff turns 90 of its vertices right by up to 0.024 rad."""
    tri = construct.constant_diameter_triangle(*mixed_cd_triangle_vertices(1.0, 1e-9))
    shape = wulff.WulffShape(wulff.project_to_plane(
        tri, wulff.frame_at(tri.enclosing_center), n=2880).vertices)
    return shape.vertices, wulff.dual_wulff(shape).vertices


@settings(BOUNDED, max_examples=60)
@given(polygon_pairs())
@example(_tiny_corner_image_and_dual())
def test_hausdorff_polygons_matches_brute_force(pair):
    a, b = pair
    got = wulff.hausdorff_polygons(SimpleNamespace(vertices=a), SimpleNamespace(vertices=b))
    assert abs(got - _brute_hausdorff(a, b)) <= 1e-12


def test_hausdorff_polygons_on_a_projected_720_gon_and_its_dual():
    # the gap of roundtrip: a constant-diameter triangle's image, 720
    # samples, against its dual; at 2**1000 and 2**-1000 the gap scales by
    # exactly that factor, where the reference's squares would leave the
    # float range
    tri = construct.constant_diameter_triangle(
        np.array([0.6, 0.0, 0.8]), np.array([-0.3, 0.52, 0.8]), np.array([-0.3, -0.52, 0.8]))
    frame = wulff.frame_at(tri.enclosing_center)
    shape = wulff.project_to_plane(tri, frame, n=720)
    dual = wulff.dual_wulff(shape)
    gap = wulff.hausdorff_polygons(shape, dual)
    assert abs(gap - _brute_hausdorff(shape.vertices, dual.vertices)) <= 1e-12
    for j in (1000, -1000):
        assert wulff.hausdorff_polygons(shape.scaled(2.0 ** j), dual.scaled(2.0 ** j)) \
            == math.ldexp(gap, j)


# a square with a straight vertex on its right edge, at each index in turn:
# at index 0, its first and last edges' normal angles tie across 0
STRAIGHT = np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


@pytest.mark.parametrize("shift", range(5))
def test_hausdorff_polygons_with_a_straight_vertex(shift):
    a = np.roll(STRAIGHT, -shift, axis=0)
    for b in (2.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
              0.5 * STRAIGHT, STRAIGHT + 0.1):
        for x, y in ((a, b), (b, a)):
            got = wulff.hausdorff_polygons(SimpleNamespace(vertices=x),
                                           SimpleNamespace(vertices=y))
            assert abs(got - _brute_hausdorff(x, y)) <= 1e-12


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
    w = shape.radial(g.angles + math.pi)
    assert np.max(np.abs(g.values * w - 1.0)) <= 1e-12


def test_report_raises_on_disagreeing_verdicts(octant, monkeypatch):
    # the projected octant is exactly self-dual (a strict pass); a constant
    # width verdict failing far beyond tolerance contradicts it
    original = metrics.is_constant_width

    def failing_width(body, tol=1e-6, n=720):
        verdict = original(body, tol=tol, n=n)
        return replace(verdict, passed=False, deviation=1.0)

    fr = wulff.frame_at(octant.enclosing_center)
    shape = wulff.project_to_plane(octant, fr, n=720)
    monkeypatch.setattr(metrics, "is_constant_width", failing_width)
    with pytest.raises(InconsistentVerdicts):
        wulff.self_dual_equivalence_report(shape, fr, tol=1e-4, n=720)



def test_report_raises_when_the_gap_passes_strictly(cd_triangle, monkeypatch):
    # at tol 1e-3 the exact gap, roundoff, is a strict pass, which a
    # constant width verdict failing far beyond tolerance contradicts
    original = metrics.is_constant_width

    def failing_width(body, tol=1e-6, n=720):
        verdict = original(body, tol=tol, n=n)
        return replace(verdict, passed=False, deviation=1.0)

    fr = wulff.frame_at(cd_triangle.enclosing_center)
    shape = wulff.project_to_plane(cd_triangle, fr, n=720)
    assert wulff.self_dual_equivalence_report(shape, fr, tol=1e-3, n=720).hausdorff_gap <= 1e-12
    monkeypatch.setattr(metrics, "is_constant_width", failing_width)
    with pytest.raises(InconsistentVerdicts):
        wulff.self_dual_equivalence_report(shape, fr, tol=1e-3, n=720)


def _self_dual_body(i):
    """Self-dual body i of 18: a constant-diameter triangle of seed i for i
    below 15, else the regular 3-, 5- or 7-gon of thickness pi/2."""
    if i < 15:
        return construct.constant_diameter_triangle(
            *random_cd_triangle_vertices(np.random.default_rng(i)))
    return construct.regular_odd_gon(2 * (i - 15) + 3, bd.HALF_PI)


@settings(BOUNDED, max_examples=60)
@given(st.integers(0, 17), st.sampled_from([0.0, 5e-324, 1e-17, 1e-16, 1e-15, 1e-12, 1e-6, 1e-3]))
def test_self_dual_bodies_never_read_inconsistent(i, tol):
    # below roundoff a verdict may fail, but a deviation of roundoff is no
    # hard failure: the report does not raise, and `lunes roundtrip` exits
    # with a verdict, 0 or 1, never 2
    body = _self_dual_body(i)
    fr = wulff.frame_at(body.enclosing_center)
    wulff.self_dual_equivalence_report(wulff.project_to_plane(body, fr, n=720), fr,
                                       tol=tol, n=720)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "body.json")
        io.save_body(body, path)
        with contextlib.redirect_stdout(StringIO()):
            assert cli.main(["--tol", repr(tol), "roundtrip", path]) in (0, 1)


@BOUNDED
@given(polygons())
def test_radial_gap_equals_the_polygon_gap_on_polygons(body):
    # a polygon's image is its projected vertices: the gap read off the
    # body and its polar dual is the polygon gap, to roundoff
    fr = wulff.frame_at(body.enclosing_center)
    shape = wulff.project_to_plane(body, fr, n=720)
    polygon = wulff.hausdorff_polygons(shape, wulff.dual_wulff(shape))
    assert abs(wulff._radial_gap(body, fr) - polygon) <= 1e-12 * max(1.0, polygon)


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


def _assert_supporting_centers_on_circles(body):
    """Every piece of the unvalidated dual starts on its circle, and every
    corner's great arc ends pi/2 from the corner, within 1e-15: sin r c -
    cos r w has no cancellation, however small the arc."""
    dual, _, corner_row = bd._dual(bd.Boundary(body.centers, body.radii, body.starts),
                                   body.arcs)
    assert np.max(np.abs(dist(dual.centers, dual.starts) - dual.radii)) <= 1e-15
    rows = corner_row[corner_row >= 0]
    ends = np.roll(dual.starts, -1, axis=0)[rows]
    assert np.all(np.abs(dist(dual.centers[rows], ends) - bd.HALF_PI) <= 1e-15)


@BOUNDED
@given(bodies)
def test_supporting_centers_on_their_circles(body):
    _assert_supporting_centers_on_circles(body)


@pytest.mark.parametrize("rho", [1e-6, math.pi / 2 - 1e-5])
def test_supporting_centers_of_extreme_caps(rho):
    _assert_supporting_centers_on_circles(construct.cap(np.array([0.6, 0.0, 0.8]), rho))


@BOUNDED
@given(bodies)
def test_save_load_save_is_byte_identical(body):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        io.save_body(body, first)
        io.save_body(io.load_body(first), second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def _nested_metadata_body():
    body = construct.constant_diameter_triangle(*np.eye(3))
    body.meta.update({"z": {"list": [1, 2.5, -0.0, {"b": None, "a": "\u00e9\n"}], "e": {}},
                      "a": True, "empty": []})
    return body


@BOUNDED
@given(bodies)
@example(_nested_metadata_body())
@example(bd.polygon_from_vertices([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
@example(construct.cap(np.array([0.6, 0.0, 0.8]), 0.5))
def test_saved_text_is_the_indented_json_document(body):
    # save_body renders the document from the arrays; its bytes are those of
    # json.dump(indent=2, sort_keys=True), and loading gives back the arrays.
    # The examples: a polygon whose arrays hold 0.0 and -0.0 (each number's
    # repr is made once per bit pattern, not per value) and three radii of
    # pi/2, and a cap, whose vertices list is empty
    expected = json.dumps(io.body_to_doc(body), indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        io.save_body(body, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == expected
        loaded = io.load_body(path)
    for name in ("centers", "radii", "starts"):
        assert getattr(loaded, name).tobytes() == getattr(body, name).tobytes(), name
    assert loaded.meta == body.meta


# -- loader fuzz ---------------------------------------------------------------

_CAP = construct.cap(np.array([0.0, 0.0, 1.0]), 0.5)
_ANGLES = 2 * math.pi * np.arange(12) / 12
_DOCS = {
    "body": (io.body_from_doc, [io.body_to_doc(b) for b in (
        _CAP, bd.polygon_from_vertices(np.eye(3)),
        construct.constant_diameter_triangle(*np.eye(3)), construct.regular_odd_gon(5, 1.0))]),
    "gamma": (io.gamma_from_doc, [io.gamma_to_doc(wulff.GammaFn(
        _ANGLES, 1.0 + 0.2 * np.cos(3 * _ANGLES)))]),
    "report": (io.report_from_doc, [io.report_to_doc(metrics.classify(_CAP, n=60))]),
}
# values of every JSON type, non-finite floats and a 400-digit integer
_ODD = [None, True, False, "x", "1", "", [], {}, 0, -1, 2.5, math.nan, math.inf, -math.inf,
        10**400, -10**400, [0.0, 0.0, 1.0], [[1.0]], {"center": [0.0, 0.0, 1.0]}]


@st.composite
def mutated_docs(draw):
    kind = draw(st.sampled_from(sorted(_DOCS)))
    loader, docs = _DOCS[kind]
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc  # walk down to a random slot, then change what it holds
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            op = draw(st.sampled_from(["drop", "swap", "wrap", "unwrap"]))
            if op == "drop":
                del node[key]
            elif op == "swap":
                node[key] = copy.deepcopy(draw(st.sampled_from(_ODD)))
            elif op == "wrap":
                node[key] = draw(st.sampled_from([[node[key]], {"value": node[key]}]))
            elif isinstance(node[key], (dict, list)) and node[key]:
                inner = node[key]
                node[key] = inner[draw(st.sampled_from(list(inner) if isinstance(inner, dict)
                                                       else list(range(len(inner)))))]
            break
    return loader, doc


def _slots(node, path=()):
    """The path to every value inside a document."""
    for key in (list(node) if isinstance(node, dict) else range(len(node))):
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], path + (key,))


def _loads_or_lunes_error(loader, doc):
    try:
        loader(doc)
    except LunesError:
        pass


@pytest.mark.parametrize("kind", sorted(_DOCS))
def test_every_slot_mutated_raises_only_lunes_errors(kind):
    # each value of each document dropped, replaced by each odd value,
    # wrapped in a list or an object, or unwrapped
    loader, docs = _DOCS[kind]
    for base, path in ((base, path) for base in docs for path in _slots(base)):
        held = base
        for key in path:
            held = held[key]
        inner = list(held.values()) if isinstance(held, dict) else (
            held if isinstance(held, list) else [])
        for change in ["drop", [held], {"value": held}, *_ODD, *inner[:1]]:
            doc = copy.deepcopy(base)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if change == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(change)
            _loads_or_lunes_error(loader, doc)


@settings(BOUNDED, max_examples=300)
@given(mutated_docs())
def test_mutated_documents_raise_only_lunes_errors(case):
    # up to three changes at once on any of the documents: nothing but a
    # LunesError escapes the loaders
    _loads_or_lunes_error(*case)


def _rotated(x, axis, angle):
    """x, a vector or rows of them, rotated by angle about the unit axis
    (Rodrigues)."""
    return (x * math.cos(angle) + np.cross(axis, x) * math.sin(angle)
            + axis * (x @ axis)[..., None] * (1.0 - math.cos(angle)))


def _full_circle_added(body):
    """The Boundary form with a circle of radius 0.01 through the first
    start put before the first arc: a full circle, as it starts where the
    next arc starts, mixed with others."""
    s0 = body.starts[0]
    away = np.cross(s0, body.enclosing_center)
    center = _rotated(s0, away / np.linalg.norm(away), 0.01)
    return bd.Boundary(np.concatenate([[center], body.centers]),
                       np.concatenate([[0.01], body.radii]), np.concatenate([[s0], body.starts]))


def _wound_twice(body):
    return bd.Boundary(*(np.concatenate([x, x]) for x in (body.centers, body.radii, body.starts)))


WINDS_TWICE = (_wound_twice, "convexity: boundary does not wind once")


def _next_start_off_circle(body):
    """The Boundary form with arc 1's start moved along arc 1's circle until
    it lies 1e-9 off arc 0's: only arc 0's implied end is off its circle."""
    (c0, c1), (r0, r1) = body.centers[:2], body.radii[:2]
    g = c0 @ c1
    pole = np.cross(c0, c1) / np.linalg.norm(np.cross(c0, c1))
    for off in (1e-9, -1e-9):
        # p = x c0 + y c1 + z pole with p . c0 = cos(r0 + off), p . c1 = cos r1
        h0, h1 = math.cos(r0 + off), math.cos(r1)
        x, y = (h0 - g * h1) / (1 - g * g), (h1 - g * h0) / (1 - g * g)
        zz = 1.0 - x * x - y * y - 2.0 * g * x * y
        if zz > 0.0:
            break
    near = x * c0 + y * c1 + math.sqrt(zz) * np.array([pole, -pole])
    starts = np.array(body.starts)
    starts[1] = near[np.argmin(np.linalg.norm(near - starts[1], axis=1))]
    return bd.Boundary(body.centers, body.radii, starts)


def _start_off_unit(body):
    starts = np.array(body.starts)
    starts[-1] *= 1.0 + 1e-8
    return bd.Boundary(body.centers, body.radii, starts)


# the dual of a polygon puts a moved junction in a dual start, so only the
# primal check reports it as an end
NEXT_START_OFF = (_next_start_off_circle, "segment radius: segment 0 end")


@BOUNDED
@given(bodies, st.sampled_from([(_full_circle_added, "closed boundary"),
                                WINDS_TWICE, NEXT_START_OFF,
                                (_start_off_unit, "unit norm: segment [0-9]+ start")]))
@example(SLIVER, WINDS_TWICE)
@example(NEAR_TWINS, WINDS_TWICE)
@example(cd_induced(), WINDS_TWICE)
@example(SLIVER, NEXT_START_OFF)
@example(cd_induced(), NEXT_START_OFF)
def test_broken_boundaries_rejected(body, breakage):
    breaker, invariant = breakage
    # a cap listed twice is two full circles, an open boundary; a cap's one
    # start is its own end
    assume(breaker not in (_wound_twice, _next_start_off_circle) or not body.is_full_circle)
    with pytest.raises(InvariantViolation, match=invariant):
        bd.SphericalBody(breaker(body))


def _open_boundary(segment):
    segment["to"] = _rotated(np.array(segment["to"]), np.array(segment["center"]),
                             -0.1).tolist()  # slide the end back along its circle


def _off_radius(segment):
    end = np.array(segment["to"])
    away = np.cross(segment["center"], end)
    segment["to"] = _rotated(end, away / np.linalg.norm(away), 1e-9).tolist()


@BOUNDED
@given(bodies, st.sampled_from([_open_boundary, _off_radius]))
def test_document_end_off_the_next_start_rejected(body, breaker):
    # a document repeats each arc's end as "to", the next arc's "from": the
    # body is built from the starts, and a "to" off the next start (along
    # its circle or 1e-9 off it) opens the boundary
    doc = io.body_to_doc(body)
    breaker(doc["segments"][0])
    with pytest.raises(InvariantViolation, match="closed boundary: .* segment 0 to misses"):
        io.body_from_doc(doc)


@pytest.mark.parametrize("n, k", [(5, 2), (7, 2), (7, 3)])
def test_star_polygon_rejected(n, k):
    # the star polygon {n/k} turns left at every vertex but winds k times
    verts = construct.regular_polygon_vertices(n, 0.6, center=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvariantViolation, match="convexity: boundary does not wind once"):
        bd.polygon_from_vertices(verts[k * np.arange(n) % n])


def _circle_arcs(sweeps, radius=0.5):
    """Arcs of one circle about the pole, laid end to end, one per sweep
    (in degrees); the last ends at the first start, so its sweep is the
    rest of the turns the sweeps add up to."""
    axis = np.array([0.0, 0.0, 1.0])
    starts = [_cap_point(axis, radius, a) for a in np.radians(np.cumsum([0, *sweeps[:-1]]))]
    return bd.Boundary(np.tile(axis, (len(sweeps), 1)), np.full(len(sweeps), radius),
                       np.array(starts))


def test_circle_wound_by_long_arcs():
    # a 240-degree arc moves the azimuth by more than pi: once round it is a
    # body, twice round it is not
    assert bd.SphericalBody(_circle_arcs([240, 120])).arcs.count == 2
    with pytest.raises(InvariantViolation, match="convexity: boundary does not wind once"):
        bd.SphericalBody(_circle_arcs([240, 240, 240]))


def test_shortest_edge_accepted():
    # a triangle with a corner cut by an edge 1.01e-12 long, just above the
    # 1e-12 floor of polygon_from_vertices: its azimuth step is about 2e-12
    a, b, c = construct.regular_polygon_vertices(3, 0.6, center=np.array([0.0, 0.0, 1.0]))
    cut = [a + 1.01e-12 * (x - a) / np.linalg.norm(x - a) for x in (b, c)]
    body = bd.polygon_from_vertices([cut[0], b, c, cut[1]])
    assert np.min(body.arcs.lengths) < 1.1e-12


@pytest.mark.parametrize("back, winds", [(1e-12, True), (1e-6, False)])
def test_winding_step_below_zero(back, winds):
    # a start inserted `back` ahead of the next one about the center makes a
    # step of -back: 1e-12 below zero is roundoff and counts as no turn,
    # 1e-6 is a turn of almost 2 pi
    body = construct.regular_odd_gon(5, 1.0)
    c = body.enclosing_center
    ahead = _rotated(body.starts[1], c, back)
    fake = SimpleNamespace(is_full_circle=False, enclosing_center=c,
                           starts=np.insert(body.starts, 1, ahead, axis=0))
    if winds:
        bd.SphericalBody._check_winding(fake)
    else:
        with pytest.raises(InvariantViolation, match="does not wind once"):
            bd.SphericalBody._check_winding(fake)


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
    poles = np.cross(verts, np.roll(verts, -1, axis=0))
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    with pytest.raises(InvariantViolation):
        bd.SphericalBody(bd.Boundary(poles, np.full(n, math.pi / 2), verts))


@BOUNDED
@given(polygons(), st.integers(0, 8), st.floats(0.1, 0.9), st.floats(0.5, 2.0))
def test_tiny_reflex_dent_rejected(poly, k, at, depth):
    # two vertices 8.4e-9 apart on edge k with a third between them pushed
    # inward by about that much: the winding check cannot see such a dent,
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
