"""Property tests on generated bodies: the closed-form farthest point and the
width/diameter identities built on it.

Example counts are bounded and the search is derandomized, so the suite is
deterministic and its runtime fixed; it lives apart from the acceptance gate.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lunes import body as bd
from lunes import construct, metrics
from lunes.errors import LunesError
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
        assert np.array_equal(vals, arcs.support_extreme(queries, "min"))
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
