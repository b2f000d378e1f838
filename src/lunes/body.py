"""Convex bodies on the sphere bounded by cyclic sequences of circular arcs.

A body is stored as its boundary, in three arrays: for m arcs, the circle
centers and start points (m x 3) and the angular radii (m).  Arc i ends where
arc i + 1 starts (cyclically), so each junction is stored once, and a lone
arc is a full circle.  Every radius is at most pi/2, and every arc runs
counterclockwise as seen from its circle center, with the body on the left.
Validation, the polar dual and the arc tables behind every query are
computed on these arrays in bulk, once per body; a table holds each arc
pre-scaled, as three rows in which a point along it is linear (_Arcs).

The polar dual (the curve of supporting-hemisphere centers) has a closed
form per arc, read off the arc frame: at cos r c + sin r w on an arc (w the
unit radial direction) the supporting center is sin r c - cos r w.  It gives
exact membership and support queries: a point lies in the body iff its dot
product with every supporting center is nonnegative.
On a curve of many arcs, a profile (the farthest point of every sample, in
order along the curve) walks the curve: each sample is searched only on the
arcs between the farthest points of two coarse samples.  Other queries in
many directions skip each block of 16 arcs whose chord, widened by a slack,
cannot reach below the minimum.  Both are exact (_Arcs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateHull, InvariantViolation, NoEnclosingHemisphere)
from .sphere import cross, dist, dot, norm, normalize, orthonormal_frame

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

UNIT_TOL = 1e-9          # how far off unit length stored vectors may be
CLOSURE_TOL = 1e-10       # junction tolerance: gap, smooth turn, endpoint off its circle
ENCLOSING_MIN_DOT = 1e-6  # strict containment margin for the enclosing hemisphere
INTERIOR_MIN = 1e-6       # the body must contain a cap of this angular radius
ZERO_RADIUS = 1e-9        # least arc radius: a corner arc any smaller is a corner
EDGE_POLE_MIN = 1e-12     # least |a x (b - a)| of a polygon edge from a to b
_CHUNK = 262_144          # cap on temporary matrix entries in batched queries
_BLOCK = 16               # arcs per block of the pruned support queries
_CAP_SLACK = 1e-7         # widens each block's slack past roundoff
_STRIDE = 16              # profile samples per walked run (_Arcs.sample_far)


class Boundary(NamedTuple):
    """A cyclic sequence of m boundary arcs, as arrays.  Arc i ends at
    starts[(i + 1) % m]; a single arc is a full circle."""

    centers: np.ndarray  # (m, 3) circle centers
    radii: np.ndarray    # (m,) angular radii
    starts: np.ndarray   # (m, 3) start points


def _rolled(x) -> np.ndarray:
    """x's rows shifted up by one, cyclically: np.roll(x, -1, axis=0)."""
    return np.concatenate([x[1:], x[:1]])


def _validated(centers, radii, starts) -> Boundary:
    """The per-arc checks, on all arcs at once.

    Vectors must be unit within UNIT_TOL and are rescaled to unit length
    unless already within 1e-13 of it (which keeps them bit-stable); a
    radius within 1e-9 of pi/2 snaps to it and must lie in [ZERO_RADIUS,
    pi/2]; each arc's start and its end, the next arc's start, must lie at
    the radius from the center; an arc ending where it starts (within
    1e-12) is a full circle and must be alone.  Unit norms are checked on
    the centers and starts stacked, and distances on the starts and ends
    stacked, so a fault in any center is reported before one in a start, and
    in any start before one in an end.  A check looks for its first fault
    only when it fails, and vectors are rescaled only when one needs it.
    Returns read-only copies.
    """
    c = np.array(centers, dtype=float).reshape(-1, 3)
    v = np.concatenate([c, np.array(starts, dtype=float).reshape(-1, 3)])
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        n = norm(v)
    off = np.abs(n - 1.0)
    if not (off <= UNIT_TOL).all():  # NaN too
        k = int(np.flatnonzero(~(off <= UNIT_TOL))[0])
        name, j = ("center", k) if k < len(c) else ("start", k - len(c))
        raise InvariantViolation("unit norm", f"segment {j} {name} has norm {float(n[k])!r}")
    rescale = off > 1e-13
    if rescale.any():
        v[rescale] /= n[rescale, None]
    c, s = v[:len(c)], v[len(c):]
    e = _rolled(s)
    r = np.array(radii, dtype=float).reshape(-1)
    r[np.abs(r - HALF_PI) <= 1e-9] = HALF_PI
    inside = (r >= ZERO_RADIUS) & (r <= HALF_PI)
    if not inside.all():
        raise InvariantViolation(
            "radius range", f"radius {float(r[~inside][0])!r} outside [{ZERO_RADIUS!r}, pi/2]")
    d = dist(np.concatenate([c, c]), np.concatenate([s, e]))  # starts, then ends
    far = np.abs(d - np.concatenate([r, r])) > CLOSURE_TOL
    if far.any():
        k = int(np.flatnonzero(far)[0])
        name, j = ("start", k) if k < len(r) else ("end", k - len(r))
        raise InvariantViolation(
            "segment radius",
            f"segment {j} {name} at distance {float(d[k])!r} from center, "
            f"radius {float(r[j])!r}")
    if len(r) > 1 and (norm(s - e) < 1e-12).any():
        raise InvariantViolation(
            "closed boundary", "full-circle segment mixed with others")
    out = Boundary(c, r, s)
    for arr in out:
        arr.flags.writeable = False
    return out


def _closed_form(a, b, c, sweeps):
    """Candidates for the minimum of p . d over arcs, from the products
    a = A . d, b = B . d and c = C . d of the pre-scaled arc rows (_Arcs),
    any shape, with sweeps broadcast to it.

    Along an arc p(t) . d = c + a cos t + b sin t, so the minimum lies at
    the start, c + a (an arc's end is the next arc's start), or at the
    critical angle atan2(b, a) + pi, in [0, 2 pi], where it is
    c - sqrt(a^2 + b^2), if the sweep reaches it.  Returns the start
    values, the critical values (+inf where the angle is outside the sweep
    or NaN) and the critical angles.
    """
    t = np.arctan2(b, a)
    t += math.pi
    crit = a * a
    crit += b * b
    np.sqrt(crit, out=crit)
    np.subtract(c, crit, out=crit)
    np.putmask(crit, ~(t <= sweeps), np.inf)
    return c + a, crit, t


def _sliced(query, width, *rows):
    """query(*rows), a tuple of per-row arrays, on slices of the rows small
    enough that width temporary entries per row stay under _CHUNK."""
    step = max(1, _CHUNK // width)
    if len(rows[0]) <= step:
        return query(*rows)
    parts = [query(*(r[lo:lo + step] for r in rows)) for lo in range(0, len(rows[0]), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


class _Arcs:
    """Stacked arc data with vectorized point and support queries.

    Along an arc, p(t) = cos r c + sin r (cos t u0 + sin t v0) is
    C + cos t A + sin t B in the pre-scaled rows A = sin r u0 (su0),
    B = sin r v0 (sv0) and C = cos r c (cc) of one read-only (3m x 3)
    table: a support query gets A . d, B . d and C . d of every arc in one
    product with the directions, for _closed_form, and _point scales
    nothing.  u0, v0, the centers, cos r and sin r stay plain arrays, for
    tangents, chords and lengths.  In more than one direction, on more than
    _BLOCK arcs, it is pruned: each block of _BLOCK consecutive arcs lies
    within a slack h_b of its chord S_b, a great arc, so min over S_b of
    y . d, less h_b, bounds its values from below (a line-swept sphere:
    Larsen, Gottschalk, Lin and Manocha, ICRA 2000).  The block with the
    lowest bound is evaluated first, which bounds the minimum from above,
    then only the blocks whose bound does not exceed that.  A skipped block
    holds no smaller value, so the result is the whole table's minimum, with
    no tolerance.  One direction, or one block, has nothing to prune and
    takes the whole table.  The reduction keeps each row's winning arc and
    angle, so a support query returns the farthest point itself, formed
    once by _point; arc-length parameters serve only the walks along the
    curve (sampling, searches).

    A profile (sample_far) walks the curve instead.  For points of a convex
    curve in the order s1 < s2 < t2 < t1 the diagonals cross, so
    d(s1, t2) + d(s2, t1) >= d(s1, t1) + d(s2, t2) (the quadrangle
    inequality), and if t_a is farthest from sample a and t_b from a later
    sample b, with no farthest point between a and b, every sample between
    them has a farthest point on the arcs from t_a's to t_b's.  Every
    _STRIDE-th sample takes the pruned query; each run of _STRIDE samples
    from one of those is evaluated only on its window, the arcs from its
    winner to the next run's.  The windows are exact, so only their padding
    to a common width is waste: the runs are sorted by window width and
    batched in two halves, each padded to its own widest window.  Every
    farthest distance is at least half the diameter D, so the walk requires
    the longest run, in arc length, to be shorter than half the largest
    farthest distance of the pruned rows; it also requires each window to
    span at most half the arcs (exact ties can let the winners wrap, and
    such a window is no cheaper than the pruned query).  Otherwise, or on
    at most _BLOCK arcs, it is far_point, as is a profile of fewer than
    2 _STRIDE samples: one of its runs spans half the perimeter, at least D.

    A table computes each sampling once per count (samples), and keeps it,
    the body's refusals and the results of metrics in memo while it lives:
    a body and the copies that share its table share them.  A sample's arc
    and angle come from its placement (_placed); _locate maps any other
    parameter.
    """

    def __init__(self, b: Boundary):
        """Each arc's frame, once: u0 and u1 the unit radial directions at
        the start and the end, v0 = center x u0, and the sweep (2 pi for a
        full circle)."""
        self.centers, self.radii = b.centers, b.radii
        self.cos_r, self.sin_r = np.cos(b.radii), np.sin(b.radii)
        cos_r, sin_r = self.cos_r[:, None], self.sin_r[:, None]
        u0 = (b.starts - cos_r * b.centers) / sin_r
        u0 /= norm(u0)[:, None]
        v0 = cross(b.centers, u0)
        u1 = (_rolled(b.starts) - cos_r * b.centers) / sin_r
        sweeps = np.mod(np.arctan2(dot(u1, v0), dot(u1, u0)), TWO_PI)
        if len(sweeps) == 1:
            sweeps[0] = TWO_PI
        if (sweeps < 1e-12).any():
            raise InvariantViolation("degenerate segment", "zero-length boundary arc")
        u1 /= norm(u1)[:, None]
        self.u0, self.v0, self.u1, self.sweeps = u0, v0, u1, sweeps
        self.table = np.empty((3 * len(sweeps), 3))
        self.su0, self.sv0, self.cc = self.table.reshape(3, -1, 3)  # views: A, B and C
        np.multiply(sin_r, u0, out=self.su0)
        np.multiply(sin_r, v0, out=self.sv0)
        np.multiply(cos_r, b.centers, out=self.cc)
        for arr in (self.table, self.su0, self.sv0, self.cc, u0, v0, u1):
            arr.flags.writeable = False
        self.lengths = sweeps * self.sin_r
        self.cum = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self.total = float(self.cum[-1])
        self.count = len(sweeps)
        self._memo = {}

    def memo(self, key, compute):
        """compute(), once per key on this table, kept while the table lives:
        samples and the body's refusals here, and the profiles, diameters
        and checked widths of metrics."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _locate(self, s):
        """The arc holding each cumulative arc-length parameter s, and the
        angle along it (0 exactly at its start): the one map from a
        parameter to its arc, which the samples' placement matches.  At a
        junction, the arc that starts there."""
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), self.total)
        # s >= 0 = cum[0], but it can round up to total: clamp the top only
        idx = np.minimum(np.searchsorted(self.cum, s, side="right") - 1, self.count - 1)
        return idx, (s - self.cum[idx]) / self.sin_r[idx]

    def point_at(self, s):
        """Boundary point at cumulative arc-length parameter s (vectorized)."""
        return self._point(*self._locate(s))

    def tangent_at(self, s):
        """point_at(s) and the unit tangent d point_at / ds there,
        counterclockwise, from one lookup (vectorized); at a junction, of
        the arc that starts there."""
        idx, t = self._locate(s)
        return self._point(idx, t), self._tangent(idx, t)

    def _tangent(self, idx, t):
        """The unit tangent, counterclockwise, at angle t along arc idx
        (vectorized), of that arc even at its end."""
        t = np.asarray(t, dtype=float)[..., None]
        return np.cos(t) * self.v0.take(idx, 0) - np.sin(t) * self.u0.take(idx, 0)

    def _point(self, idx, t):
        """The point at angle t along arc idx (vectorized, t broadcast to
        idx): the one formula for a point on an arc."""
        t = np.asarray(t, dtype=float)[..., None]
        return (self.cc.take(idx, 0) + np.cos(t) * self.su0.take(idx, 0)
                + np.sin(t) * self.sv0.take(idx, 0))

    def far_point(self, dirs) -> np.ndarray:
        """The curve's farthest point from each direction: where p . x is
        least.  A distance measured to it keeps its digits near 0 and pi,
        where arccos of the support minimum loses them."""
        return self.support_min_at(dirs)[1]

    def _placed(self, n: int):
        """n arc-length parameters, each with its arc and the angle along it:
        when n >= arc count, every arc start (hence every junction) is
        included, else they are evenly spaced.

        Per-arc counts blend the arc-length share with a chord-sag share
        (sweep * sqrt(sin r)): sharply curved short arcs get enough samples
        to keep the inscribed-polygon error balanced across arcs, while the
        length half of the blend bounds the spacing anywhere by 2*total/n.
        A sample placed k / count of the way along its arc has that arc, and
        its angle is _locate's expression on it: nothing is searched for.
        The evenly spaced parameters are mapped by _locate.
        """
        m = self.count
        if n < m:
            params = np.arange(n) / n * self.total
            return (params, *self._locate(params))
        counts = np.ones(m, dtype=int)
        rem = n - m
        if rem > 0:
            sag = self.sweeps * np.sqrt(self.sin_r)
            quota = 0.5 * (self.lengths / self.total + sag / sag.sum()) * rem
            counts += np.floor(quota).astype(int)
            short = n - int(counts.sum())
            if short > 0:
                frac = quota - np.floor(quota)
                order = np.argsort(-frac, kind="stable")
                counts[order[:short]] += 1
        arc = np.repeat(np.arange(m), counts)
        k = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        start = self.cum[arc]
        params = start + self.lengths[arc] * k / counts[arc]
        return params, arc, (params - start) / self.sin_r[arc]

    def samples(self, n: int):
        """The parameters of n samples (_placed), the arc and the angle
        along it of each, from its placement, and its point, read-only,
        computed once per count: every sampling of the table reads this
        copy.  _locate maps any other parameter."""
        def compute():
            params, arc, t = self._placed(n)
            out = (params, arc, t, self._point(arc, t))
            for a in out:
                a.flags.writeable = False
            return out
        return self.memo(("samples", n), compute)

    def sample_points(self, n: int):
        """samples(n)'s parameters and points, read-only."""
        params, _, _, pts = self.samples(n)
        return params, pts

    def sample_far(self, n: int):
        """sample_points(n) and each sample's farthest point, by the walk
        the class describes: returns (params, points, farthest points).  The
        runs are sorted by window width and evaluated in two halves, each
        window padded with its last arc to the widest of its half."""
        params, pts = self.sample_points(n)
        m = self.count
        if m <= _BLOCK:
            return params, pts, self.far_point(pts)
        coarse = pts[::_STRIDE]
        _, lo, t = self._support(coarse)
        reach = dist(coarse, self._point(lo, t))
        gap = np.diff(np.append(params[::_STRIDE], params[0] + self.total))
        span = np.mod(_rolled(lo) - lo, m) + 1  # arcs per window
        if gap.max() >= 0.5 * reach.max() or 2 * span.max() > m:
            return params, pts, self.far_point(pts)
        rows = np.minimum(np.arange(len(lo) * _STRIDE), n - 1).reshape(-1, _STRIDE)
        arc, t = np.empty(n, dtype=int), np.empty(n)
        for runs in np.array_split(np.argsort(span, kind="stable"), 2):
            width = int(span[runs[-1]])
            win = np.mod(lo[runs, None] + np.minimum(np.arange(width), span[runs, None] - 1), m)
            at = rows[runs].ravel()
            _, arc[at], t[at] = _sliced(self._windowed, 3 * _STRIDE * width, win, pts[rows[runs]])
        return params, pts, self._point(arc, t)

    def _windowed(self, win, x):
        """_reduce of the points x[i] (_STRIDE x 3) over the arcs win[i]."""
        k, width = win.shape
        table = self.table.reshape(3, self.count, 3).take(win, 1).transpose(1, 0, 3, 2)
        v = (x[:, None] @ table).swapaxes(0, 1)
        found = _closed_form(*v, self.sweeps.take(win)[:, None])
        return self._reduce(*(y.reshape(k * _STRIDE, -1).T for y in found),
                            np.repeat(win, _STRIDE, axis=0).T)

    def support_extreme(self, dirs) -> np.ndarray:
        """Per-direction minimum of the dot product over the whole curve:
        the support minimum, negative when the curve dips below the
        hemisphere of the direction.  The maximum over the curve is
        -support_extreme(-dirs).
        """
        return self._support(dirs)[0]

    def support_min_at(self, dirs):
        """The support minimum in each direction plus the point where it is
        attained: returns (values, points).  Each point is the curve's
        farthest from its direction, at angular distance arccos(value),
        made once from the arc and angle that won the minimum.
        """
        vals, arc, t = self._support(dirs)
        return vals, self._point(arc, t)

    def _support(self, dirs):
        """Per direction, the support minimum and the arc and angle along it
        where it is attained: the kernel of every support query."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        if dirs.shape[0] > 1 and self.count > _BLOCK:
            width = max(9 * _BLOCK, 3 * len(self._blocks[0]))  # bounds, one block
            return _sliced(self._pruned, width, dirs)
        arcs = np.arange(self.count)
        return _sliced(lambda d: self._reduce(*self._whole(d), arcs), 3 * self.count, dirs)

    @staticmethod
    def _reduce(start, crit, t, arcs):
        """Each query's least candidate of _closed_form, laid out arcs first
        (arcs x queries, any strides), its arc and the angle along it (0 at
        the start): the least start unless the least critical value is
        strictly lower, the first arc among equals.  That is the first least
        of the starts stacked above the critical values, one argmin along
        the arcs.  The stack keeps the candidates' memory order, so where
        the arcs lie last in memory (windows, blocks) argmin copies nothing;
        the whole table's arcs-first stack is copied once.  arcs numbers the
        candidates' arcs, for all queries (1-D) or per query (2-D)."""
        m, cols = len(start), np.arange(start.shape[1])
        both = np.concatenate([start, crit])
        first = both.argmin(axis=0)
        slot = first % m
        arc = arcs.take(slot) if arcs.ndim == 1 else arcs[slot, cols]
        return both[first, cols], arc, np.where(first >= m, t[slot, cols], 0.0)

    def _whole(self, d):
        """_closed_form on every arc, laid out arcs first: the (3m x k)
        product with the k directions gives A . d, B . d and C . d as
        contiguous (m x k) rows, which _reduce takes as they are."""
        v = (self.table @ d.T).reshape(3, self.count, -1)
        return _closed_form(*v, self.sweeps[:, None])

    @cached_property
    def _blocks(self):
        """Arc numbers per block (the last padded with the final arc), the
        blocks' tables and sweeps, and their chords and slacks, in O(m) on the
        first pruned query.  Chord S_b is the great arc from s0, block b's
        first start, to s1, the next block's (arc 0's after the last): rows
        s0, v0 (the tangent at s0) and s1, and a sweep, 0 under 1e-12 (ends
        only).  Arc i lies within 2 asin(sin r sin(sweep/4)) of its midpoint:
        the straight distance 2 sin r sin(tau/2) to the point tau along it
        grows with tau up to pi >= sweep/2.  The slack h_b is the largest such
        radius plus midpoint distance to S_b, plus _CAP_SLACK for the roundoff
        of arccos near 0 (2e-8)."""
        m = self.count
        idx = np.minimum(np.arange(-(-m // _BLOCK) * _BLOCK), m - 1).reshape(-1, _BLOCK)
        s = self._point(np.append(idx[:, 0], 0), 0.0)
        s0, s1 = s[:-1], s[1:]
        cos_s = dot(s0, s1)
        w = s1 - cos_s[:, None] * s0
        sin_s = norm(w)
        flat = sin_s < 1e-12  # the first arc's tangent at s0 serves as v0
        chord = np.concatenate([s0, normalize(np.where(flat[:, None], self.v0[idx[:, 0]], w)), s1])
        sweep = np.where(flat, 0.0, np.arctan2(sin_s, cos_s))
        half = 0.5 * self.sweeps
        mid = self._point(np.arange(m), half)[idx]
        reach = 2.0 * np.arcsin(np.minimum(1.0, self.sin_r * np.sin(0.5 * half)))
        a, b, c = np.einsum("kbj,bij->kbi", chord.reshape(3, -1, 3), mid)
        up = np.arctan2(b, a)
        near = np.where((up >= 0.0) & (up <= sweep[:, None]), np.sqrt(a * a + b * b),
                        np.maximum(a, c))
        slack = np.max(np.arccos(np.clip(near, -1.0, 1.0)) + reach[idx], axis=1) + _CAP_SLACK
        table = self.table.reshape(3, m, 3).take(idx, 1).transpose(1, 0, 2, 3)
        return idx, table.reshape(len(idx), 3 * _BLOCK, 3), self.sweeps[idx], chord, sweep, slack

    def _blockwise(self, b, d):
        """_reduce over block b[i] in direction d[i], for each i."""
        idx, table, sweeps, *_ = self._blocks
        v = (table.take(b, 0) @ d[:, :, None]).reshape(-1, 3, _BLOCK).swapaxes(0, 1)
        found = _closed_form(*v, sweeps.take(b, 0))
        return self._reduce(*(y.T for y in found), idx.take(b, 0).T)

    def _low(self, d):
        """Per block and direction, min over S_b of y . d less h_b: no point x
        of the block is lower, as |d . x - d . y| <= dist(x, y).  A chord is
        a great arc, with no C row: _closed_form with c = 0, and its end."""
        *_, chord, sweep, slack = self._blocks
        a, b, end = (chord @ d.T).reshape(3, len(sweep), -1)
        start, crit, _ = _closed_form(a, b, 0.0, sweep[:, None])
        return np.minimum(np.minimum(start, end), crit) - slack[:, None]

    def _pruned(self, d):
        """The minimum over the blocks that can hold it (see the class)."""
        low = self._low(d)
        first = low.argmin(axis=0)
        vals, arc, t = self._blockwise(first, d)
        visit = low <= vals
        visit[first, np.arange(d.shape[0])] = False
        rows, blocks = np.nonzero(visit.T)
        more, more_arc, more_t = _sliced(self._blockwise, 9 * _BLOCK, blocks, d[rows])
        np.minimum.at(vals, rows, more)
        won = more == vals[rows]
        arc[rows[won]], t[rows[won]] = more_arc[won], more_t[won]
        return vals, arc, t


def _azimuth_steps(starts, u, v):
    """The azimuths of the starts in the tangent basis (u, v) and the steps
    to the next, mod 2 pi: one that roundoff puts just below 0 counts as 0."""
    az = np.arctan2(starts @ v, starts @ u)
    d = np.mod(_rolled(az) - az, TWO_PI)
    d[d > TWO_PI - 1e-9] = 0.0
    return az, d


def interleaved(keep, first: Boundary, second: Boundary) -> Boundary:
    """The arcs first[0], second[0], first[1], second[1], ... of two
    boundaries of m arcs, where keep (2m booleans) is True."""
    fields = []
    for x, y in zip(first, second):
        both = np.empty((2 * len(x),) + x.shape[1:])
        both[::2], both[1::2] = x, y
        fields.append(both[keep])
    return Boundary(*fields)


def _dual(b: Boundary, arcs: _Arcs):
    """Closed-form polar dual boundary.

    Each arc of radius rho dualizes to an arc of radius pi/2 - rho about the
    same center (a single point when rho = pi/2); each corner junction
    contributes a great arc about the junction point sweeping the supporting
    centers.  At cos r c + sin r w on an arc (w = arcs.u0 at its start,
    arcs.u1 at its end) the supporting center is sin r c - cos r w, read
    off the frame with no cancellation (cos r is 0 on a great arc).  The
    pieces keep the boundary order, each arc's own piece before the one of
    the junction at its end; a smooth junction (|turn| at most CLOSURE_TOL)
    has none.  Returns the dual boundary (not yet validated), the signed
    turn angle at the end of every arc (negative at a reflex junction), and
    the dual row of the great arc at each corner (-1 at a smooth junction).
    """
    m = len(b.radii)
    great = b.radii == HALF_PI
    cos_r = np.where(great, 0.0, arcs.cos_r)[:, None]
    sin_r = arcs.sin_r[:, None]
    junctions = _rolled(b.starts)
    at_start = sin_r * b.centers - cos_r * arcs.u0
    at_end = sin_r * b.centers - cos_r * arcs.u1
    at_next = _rolled(at_start)
    # the supporting centers at a convex corner turn counterclockwise about
    # it, from the one before the corner to the one after: a reflex junction
    # has them turn clockwise and gets a negative turn
    axis = cross(at_end, at_next)  # shared by the orientation and dist's formula
    turns = np.copysign(np.arctan2(norm(axis), dot(at_end, at_next)),
                        np.einsum("ij,ij->i", axis, junctions))  # 0 on a full circle
    keep = np.column_stack([~great, turns > CLOSURE_TOL]).ravel()
    dual = interleaved(keep, Boundary(b.centers, HALF_PI - b.radii, at_start),
                       Boundary(junctions, np.full(m, HALF_PI), at_end))
    row = np.cumsum(keep) - 1
    corner_row = np.where(keep[1::2], row[1::2], -1)
    return dual, turns, corner_row


@dataclass
class ExtremeSet:
    """Extreme points of a body: isolated corners plus strictly convex arcs."""

    isolated: np.ndarray        # (k, 3) corner points
    strict_arcs: np.ndarray     # indices of boundary segments with radius < pi/2
    smooth: bool                # True when no junction is a corner


class SphericalBody:
    """Closed convex region of the sphere, inside some open hemisphere.

    Built from a Boundary of arrays, validated once, here: by _validated on
    the boundary and on its polar dual (unit vectors, radii in (0, pi/2],
    endpoints on their circles, a lone full circle), then convex (leftward)
    junction turns, an enclosing center (refusal), and one counterclockwise
    turn about that center, checked exactly per arc (_check_winding).  A
    given enclosing center is tried first; if it is refused, or none is
    given, one is searched for (find_enclosing_center).

    The boundary is held in `centers`, `radii` and `starts` (read-only
    arrays; arc i ends at the start of arc i + 1, so each junction is stored
    once), the polar dual boundary in `dual_boundary`, and the arc tables of
    both in `arcs` and `dual_arcs`.  None of them is written after
    construction, so a shallow copy with another accepted enclosing center
    shares them all (induce_spherical).
    """

    def __init__(self, boundary: Boundary, enclosing_center=None, meta=None):
        b = _validated(*boundary)
        m = len(b.radii)
        if m == 0:
            raise InvariantViolation("closed boundary", "no segments")
        self.radii, self.starts = b.radii, b.starts
        self.is_full_circle = m == 1
        self.meta = dict(meta or {})
        self.arcs = _Arcs(b)
        self.centers = b.centers  # unscaled, shared with arcs.centers

        dual, turns, self._corner_row = _dual(b, self.arcs)
        reflex = turns < -CLOSURE_TOL
        if reflex.any():
            k = int(np.flatnonzero(reflex)[0])
            raise InvariantViolation(
                "convexity", f"reflex junction at the end of segment {k} "
                f"(turn {float(turns[k]):.3g})")
        dual = _validated(*dual)
        self.dual_arcs = _Arcs(dual)
        self.dual_boundary = dual

        if enclosing_center is not None:
            enclosing_center = normalize(np.asarray(enclosing_center, dtype=float))
        if enclosing_center is None or self.refusal(enclosing_center) is not None:
            probe = self.arcs._point(*self.arcs._placed(max(16, 4 * m))[1:])
            enclosing_center = normalize(find_enclosing_center(probe))
            violation = self.refusal(enclosing_center)
            if violation is not None:
                raise violation
        self.enclosing_center = enclosing_center
        self._check_winding()

    def refusal(self, center) -> InvariantViolation | None:
        """What the unit vector center fails as an enclosing center, or None:
        the body must lie in its open hemisphere with margin above
        ENCLOSING_MIN_DOT ("enclosing hemisphere"), and hold a cap of radius
        asin(INTERIOR_MIN) about it, to roundoff ("nonempty interior").
        Answered once per center's bytes on the arc table, which the copies
        sharing both tables share; each refusal is a fresh exception."""
        center = np.asarray(center, dtype=float)

        def rule():
            margin = float(self.arcs.support_extreme(center)[0])
            if not margin > ENCLOSING_MIN_DOT:  # NaN too
                return "enclosing hemisphere", f"boundary reaches dot {margin:.3g} with the center"
            interior = float(self.dual_arcs.support_extreme(center)[0])
            if not interior >= INTERIOR_MIN * (1.0 - 1e-9):
                return "nonempty interior", f"interior cap radius only asin({interior:.3g})"
            return None
        failed = self.arcs.memo(("refusal", center.tobytes()), rule)
        return None if failed is None else InvariantViolation(*failed)

    def _check_winding(self):
        """The boundary winds once counterclockwise about the enclosing
        center c.  Along an arc p x p' = sin r K (K the supporting center at
        p), so the azimuth of p about c rises at a rate proportional to
        c . K, which the interior check keeps above INTERIOR_MIN: it rises
        strictly along every arc, by less than 2 pi.  The winding is then
        the sum of the arcs' azimuth steps (_azimuth_steps), unsampled."""
        if self.is_full_circle:
            return
        d = _azimuth_steps(self.starts, *orthonormal_frame(self.enclosing_center))[1]
        if abs(float(d.sum()) - TWO_PI) > 1e-6:
            raise InvariantViolation(
                "convexity", "boundary does not wind once counterclockwise")

    # -- queries ---------------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        """Junction points (corner or smooth): the end of each segment."""
        return np.empty((0, 3)) if self.is_full_circle else _rolled(self.starts)

    @property
    def corners(self) -> np.ndarray:
        """Indices of the arcs whose end is a corner (the tangent turns)."""
        return np.flatnonzero(self._corner_row >= 0)

    @property
    def is_polygon(self) -> bool:
        return bool((self.radii == HALF_PI).all())

    def contains(self, p, tol: float = 1e-9) -> bool:
        """Membership within angular slack tol, via the supporting centers."""
        p = np.asarray(p, dtype=float).reshape(1, 3)
        return bool(self.contains_many(p, tol)[0])

    def contains_many(self, pts, tol: float = 1e-9) -> np.ndarray:
        vals = self.dual_arcs.support_extreme(pts)
        return vals >= -math.sin(tol)


# -- constructors ---------------------------------------------------------


def polygon_from_vertices(vertices, enclosing_center=None) -> SphericalBody:
    """Convex spherical polygon from counterclockwise-ordered vertices."""
    verts = np.asarray(vertices, dtype=float).reshape(-1, 3)
    if len(verts) < 3:
        raise DegenerateHull("fewer than three vertices")
    verts = normalize(verts)
    # a x (b - a) equals a x b, without the cancellation a x b suffers when
    # a and b nearly coincide
    poles = cross(verts, _rolled(verts) - verts)
    norms = norm(poles)
    if (norms < EDGE_POLE_MIN).any():
        raise DegenerateHull("consecutive vertices equal or antipodal")
    edges = Boundary(poles / norms[:, None], np.full(len(verts), HALF_PI), verts)
    return SphericalBody(edges, enclosing_center=enclosing_center,
                         meta={"kind": "polygon"})


def _cap(q, min_dot):
    """Center and margin of the smallest cap with the one to three points q
    on its circle: the point, the midpoint of two, or the pole of the plane
    of three on their side.  Raises NoEnclosingHemisphere for a margin at
    most min_dot, as of an antipodal pair or three points on a great circle."""
    n = q.sum(axis=0) if len(q) < 3 else cross(q[1] - q[0], q[2] - q[0])
    h, nn = float(n @ q[0]), float(norm(n))
    if h < 0.0:
        n, h = -n, -h
    if not h > min_dot * nn:
        raise NoEnclosingHemisphere(
            f"no cap through {len(q)} of the points has margin above {min_dot:.3g}")
    return n / nn, h / nn


def find_enclosing_center(points, min_dot: float = ENCLOSING_MIN_DOT) -> np.ndarray:
    """Unit vector whose open hemisphere strictly contains all points.

    The points are unit vectors.  Fast path is the normalized mean, taken
    when its margin (least dot product with a point) exceeds 10 min_dot.
    Otherwise the center is that of the smallest cap holding the points,
    which maximizes the margin: Welzl's randomized incremental algorithm
    (E. Welzl, Smallest enclosing disks (balls and ellipsoids), 1991), as a
    triple loop over a fixed shuffle.  Each cap it builds is no larger than
    the final one, so a cap of margin at most min_dot ends it.  Raises
    NoEnclosingHemisphere when the margin is at most min_dot, or a point is
    not finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise NoEnclosingHemisphere("non-finite point")
    mean = pts.mean(axis=0)
    length = np.linalg.norm(mean)
    if length > 1e-12:
        best = mean / length
        if float((pts @ best).min()) > 10 * min_dot:
            return best
    p = pts[np.random.default_rng(0).permutation(len(pts))]

    # the first of p[lo:hi] outside the cap, or hi; within 1e-15 is inside,
    # so that roundoff puts no circle through two copies of one point
    def outside(lo, hi):
        out = np.flatnonzero(p[lo:hi] @ c < t - 1e-15)
        return lo + int(out[0]) if len(out) else hi

    c, t = _cap(p[[0]], min_dot)
    i = outside(1, len(p))
    while i < len(p):
        c, t = _cap(p[[i]], min_dot)
        j = outside(0, i)
        while j < i:
            c, t = _cap(p[[i, j]], min_dot)
            k = outside(0, j)
            while k < j:
                c, t = _cap(p[[i, j, k]], min_dot)
                k = outside(k + 1, j)
            j = outside(j + 1, i)
        i = outside(i + 1, len(p))
    margin = float(np.min(pts @ c))
    if not margin > min_dot:
        raise NoEnclosingHemisphere(
            f"best containment margin {margin:.3g} below {min_dot:.3g}")
    return c


def planar_hull(points) -> np.ndarray:
    """Indices of the extreme points of a planar set, counterclockwise.

    A Graham scan (hull_scan) in order of angle about the centroid, which
    lies inside the hull.  Raises DegenerateHull for fewer than three
    points, a non-finite one, or a set on one line within roundoff.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateHull("fewer than three points")
    q = pts - pts.mean(axis=0)
    return hull_scan(pts, np.argsort(np.arctan2(q[:, 1], q[:, 0]), kind="stable"))


def hull_scan(pts, order) -> np.ndarray:
    """Indices of the extreme points of pts, counterclockwise, given their
    cyclic order by angle about a point strictly inside their hull: one
    pass around that star-shaped polygon, from the point farthest from the
    centroid (a hull vertex; among ties, the first by angle about the
    centroid from -pi), pops every vertex b that does not turn left by more
    than roundoff.  b's turn is the cross product of the differences at b,
    (x - b) x (a - b), so it keeps b's own digits when a neighbour lies far
    away, and it must exceed a bound on its roundoff, 1e-13 (|x-b| |a-b| +
    |b| (|x-b| + |a-b|)) in L1 and max norms.  Points on a hull edge, and
    all but one copy of a repeated point, are not vertices.  The scan is
    sequential because a pop can expose the vertex before it: rounds of
    simultaneous pops would need one round per exposed vertex, O(n^2) on a
    long convex chain hidden behind a far point.  Raises DegenerateHull for
    a non-finite point or a set on one line within roundoff.
    """
    if not np.all(np.isfinite(pts)):
        raise DegenerateHull("non-finite point")
    q = pts - pts.mean(axis=0)
    h = np.hypot(q[:, 0], q[:, 1])
    far = np.flatnonzero(h == h.max())
    start = far[np.argmin(np.arctan2(q[far, 1], q[far, 0]))]
    order = np.roll(order, -int(np.flatnonzero(order == start)[0]))
    xs, ys = pts[order].T.tolist()
    mag = np.max(np.abs(pts[order]), axis=1).tolist()
    stack = [0]
    for k in list(range(1, len(order))) + [0]:
        x, y = xs[k], ys[k]
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            bx, by = xs[b], ys[b]
            px, py, rx, ry = x - bx, y - by, xs[a] - bx, ys[a] - by
            p1, r1 = abs(px) + abs(py), abs(rx) + abs(ry)
            if px * ry - py * rx > 1e-13 * (p1 * r1 + mag[b] * (p1 + r1)):
                break
            stack.pop()
        stack.append(k)
    stack.pop()  # the start again, which closed the cycle
    if len(stack) < 3:
        raise DegenerateHull("points on one line")
    return order[stack]


def hull_from_points(points) -> SphericalBody:
    """Spherical convex hull via central (gnomonic) projection.

    Projects onto the tangent plane at an enclosing-hemisphere center, where
    great circles become straight lines, takes the planar hull
    (planar_hull), and lifts the extreme subset back.  Copies of a point
    are neighbours in hull order; of each run, the last is kept.  Raises
    NoEnclosingHemisphere or DegenerateHull (also for a non-finite point).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise DegenerateHull("non-finite point")
    pts = normalize(pts)
    center = find_enclosing_center(pts)
    u, v = orthonormal_frame(center)
    w = pts @ center
    plane = np.column_stack([pts @ u / w, pts @ v / w])
    hull = pts[planar_hull(plane)]
    hull = hull[norm(cross(hull, _rolled(hull) - hull)) >= EDGE_POLE_MIN]
    return polygon_from_vertices(hull, enclosing_center=center)


# -- module-level operations ----------------------------------------------


def extreme_points(body: SphericalBody) -> ExtremeSet:
    """Corners (junctions where the tangent turns) plus strictly convex arcs."""
    corners = body.corners
    strict = np.flatnonzero(body.radii != HALF_PI)
    return ExtremeSet(isolated=body.vertices[corners], strict_arcs=strict,
                      smooth=len(corners) == 0)


def supporting_hemisphere_centers(body: SphericalBody, n: int = 720) -> np.ndarray:
    """n centers of supporting hemispheres, in order along the dual curve."""
    return body.dual_arcs.sample_points(n)[1]


def polar_dual(body: SphericalBody) -> SphericalBody:
    """The polar dual body: its boundary is the supporting-center curve.

    The dual is assembled exactly from the arc structure (arc of radius rho
    about c -> arc of radius pi/2 - rho about c; corner -> polar great arc),
    so dualizing twice reproduces the body to roundoff.
    """
    return SphericalBody(body.dual_boundary, enclosing_center=body.enclosing_center)


def distance_to_body(body: SphericalBody, pts, tol: float = 1e-9) -> np.ndarray:
    """Angular distance from each point to the body (0 for members)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # to the nearest point itself: arccos(p . x) reads 0 below about 1e-8
    d = dist(pts, body.arcs.far_point(-pts))
    inside = body.contains_many(pts, tol=tol)
    return np.where(inside, 0.0, d)


def hausdorff_bodies(a: SphericalBody, b: SphericalBody, n: int = 720) -> float:
    """Symmetric boundary-sampled Hausdorff distance between two bodies."""
    pa = a.arcs.sample_points(max(n, a.arcs.count))[1]
    pb = b.arcs.sample_points(max(n, b.arcs.count))[1]
    d_ab = float(np.max(distance_to_body(b, pa)))
    d_ba = float(np.max(distance_to_body(a, pb)))
    return max(d_ab, d_ba)
