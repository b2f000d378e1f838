"""The benchmark's workloads: seeded inputs, one operation each, and oracles.

A workload builds every input from its seed when it is constructed (the
benchmark's set-up) and hands lunes only generated bodies, documents and
gamma functions.  `round_ops(r)` returns the operations of round r as
(label, run, check) triples: `run` is what gets timed, `check` is not timed
and returns None or a failure message.  Runs measure whole rounds, so each
run sees the same mix of input classes whatever its length.

Calls go through module attributes (`lio.load_body`, not a name imported
from `lunes.io`) so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import lunes
from lunes import construct, metrics, wulff
from lunes import io as lio
from lunes.errors import LunesError

import common

HALF_PI = 0.5 * math.pi

ANALYZE_TOL, ANALYZE_N = 1e-6, 720
ROUNDTRIP_TOL, ROUNDTRIP_N, ROUNDTRIP_DUAL_N = 1e-4, 720, 2880
CD_DIAMETER_TOL = 1e-6     # constant-diameter bodies: |diameter - pi/2|
GON_THICKNESS_TOL = 1e-8   # regular odd-gon: |thickness(n=720) - target|
CAP_TOL = 1e-9             # cap of radius r: thickness and diameter are 2r
# roundtrip positives: smallest corner radius.  The self-duality test samples
# the dual at dual_n directions; near a corner of radius r its Hausdorff gap
# grows as r shrinks, and below r of about 0.007 it passes tol 1e-4 (see
# thin_corner_probe).  From r = 0.05 up the largest gap seen was 3.8e-5.
ROUNDTRIP_MIN_CORNER_RADIUS = 0.05
# build: gamma is sampled on wulff_shape's own grid of 720 directions.  A
# coarser sampling puts interpolated half-planes between the samples, which
# cut near-zero edges off the Wulff shape (see coarse_gamma_probe).
GAMMA_SAMPLES = 720
CLI_TIMEOUT_S = 120


# -- input generators ---------------------------------------------------------


def _rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _cd_vertices(rng, n: int, min_radius: float = 0.0) -> np.ndarray:
    """Vertices of an odd n-gon whose constant-diameter completion exists.

    Drawn in a cap about a random axis (radius pi/4 for triangles, 0.55 for
    pentagons, 0.45 for heptagons) and redrawn until the corner-radius system
    has a solution with every radius at least `min_radius`: a draw without
    one is not a valid input.
    """
    cap_rad = {3: math.pi / 4, 5: 0.55, 7: 0.45}[n]
    rot = _rotation(rng)
    while True:
        if n == 3:
            z = rng.uniform(math.cos(cap_rad), 1.0, size=3)
            az = rng.uniform(0.0, 2 * math.pi, size=3)
            pol = np.arccos(z)
        else:
            az = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
            if np.diff(np.concatenate([az, [az[0] + 2 * math.pi]])).min() < 0.15:
                continue
            pol = rng.uniform(0.3 * cap_rad, cap_rad, size=n)
        v = np.c_[np.sin(pol) * np.cos(az), np.sin(pol) * np.sin(az),
                  np.cos(pol)] @ rot.T
        try:
            radii = construct.solve_corner_radii(v).corner_radii
        except LunesError:
            continue
        if radii.min() >= min_radius:
            return v


def _random_polygon(rng, diam_lo: float, diam_hi: float):
    return construct.random_convex_polygon(
        int(rng.integers(2**31)), n=int(rng.integers(4, 10)),
        max_diam=float(rng.uniform(diam_lo, diam_hi)))


def _regular_gon(rng, n: int):
    # vertices placed directly: no thickness bisection in set-up
    c = _unit(rng)
    verts = construct.regular_polygon_vertices(n, float(rng.uniform(0.3, 0.8)), center=c)
    return lunes.body.polygon_from_vertices(verts, enclosing_center=c)


def _save(body, path: Path) -> str:
    lio.save_body(body, str(path))
    return str(path)


# -- workloads ----------------------------------------------------------------


class Analyze:
    """load_body -> classify(tol=1e-6, n=720) -> report_to_doc on few-arc bodies."""

    classes = ("polygon", "cap", "regular_gon", "cd_triangle", "cd_gon")
    warm_labels = classes
    per_class = 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.docs: dict[str, list[str]] = {c: [] for c in self.classes}
        self.cap_radii = [float(rng.uniform(0.2, 1.2)) for _ in range(self.per_class)]
        for i in range(self.per_class):
            bodies = {
                "polygon": _random_polygon(rng, 0.5, 1.4),
                "cap": construct.cap(_unit(rng), self.cap_radii[i]),
                "regular_gon": _regular_gon(rng, (3, 5, 7)[i % 3]),
                "cd_triangle": construct.constant_diameter_odd_gon(
                    _cd_vertices(rng, 3)),
                "cd_gon": construct.constant_diameter_odd_gon(
                    _cd_vertices(rng, (5, 7)[i % 2])),
            }
            for cls, body in bodies.items():
                self.docs[cls].append(_save(body, workdir / f"{cls}-{i}.json"))

    def round_ops(self, r: int):
        i = r % self.per_class
        return [(cls, self._run(self.docs[cls][i]),
                 self._check(cls, self.cap_radii[i])) for cls in self.classes]

    @staticmethod
    def _run(path: str):
        def run():
            body = lio.load_body(path)
            report = metrics.classify(body, tol=ANALYZE_TOL, n=ANALYZE_N)
            return report, lio.report_to_doc(report)
        return run

    @staticmethod
    def _check(cls: str, cap_radius: float):
        def check(out):
            report, doc = out
            bad = [k for k, ok in report.checks.items() if not ok]
            if bad:
                return f"theorem checks failed: {bad}"
            if (doc["thickness"] != report.thickness.value
                    or doc["diameter"] != report.diameter.value):
                return "report document disagrees with the report"
            cw, cd = report.constant_width.passed, report.constant_diameter.passed
            if cls.startswith("cd_"):
                dev = abs(report.diameter.value - HALF_PI)
                if dev > CD_DIAMETER_TOL:
                    return f"constant-diameter body has diameter off pi/2 by {dev:.3g}"
                if not (cw and cd):
                    return "constant-diameter body failed a constant-width/diameter verdict"
            if cls == "cap":
                dev = max(abs(report.thickness.value - 2 * cap_radius),
                          abs(report.diameter.value - 2 * cap_radius))
                if dev > CAP_TOL or not (cw and cd):
                    return f"cap of radius {cap_radius!r} off its closed form by {dev:.3g}"
            if cls == "polygon" and cw:
                return "random polygon passed constant width"
            # the reduced verdict of a regular gon is not checked here: it is
            # a known defect, measured by regular_gon_probe
            if cls == "regular_gon" and cw:
                return "regular odd-gon passed constant width"
            return None
        return check


class Roundtrip:
    """load_body -> frame_at -> project_to_plane -> self_dual_equivalence_report.

    Positives are constant-diameter triangles, negatives random polygons,
    two positives per negative in every round.  Every corner radius of a
    positive is at least ROUNDTRIP_MIN_CORNER_RADIUS.
    """

    warm_labels = ("positive", "negative")
    n_pos, n_neg = 8, 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.pos = [_save(construct.constant_diameter_odd_gon(
            _cd_vertices(rng, 3, ROUNDTRIP_MIN_CORNER_RADIUS)), workdir / f"pos-{i}.json")
            for i in range(self.n_pos)]
        self.neg = [_save(_random_polygon(rng, 0.5, 1.2), workdir / f"neg-{i}.json")
                    for i in range(self.n_neg)]

    def round_ops(self, r: int):
        return [("positive", self._run(self.pos[(2 * r) % self.n_pos]), self._check(True)),
                ("positive", self._run(self.pos[(2 * r + 1) % self.n_pos]), self._check(True)),
                ("negative", self._run(self.neg[r % self.n_neg]), self._check(False))]

    @staticmethod
    def _run(path: str):
        def run():
            body = lio.load_body(path)
            frame = wulff.frame_at(body.enclosing_center)
            shape = wulff.project_to_plane(body, frame, n=ROUNDTRIP_N)
            return wulff.self_dual_equivalence_report(
                shape, frame, tol=ROUNDTRIP_TOL, n=ROUNDTRIP_N,
                dual_n=ROUNDTRIP_DUAL_N)
        return run

    @staticmethod
    def _check(positive: bool):
        def check(report):
            flags = report.booleans
            if positive and not all(flags):
                return f"constant-diameter body not self-dual: {flags}"
            if not positive and any(flags):
                return f"random polygon reported self-dual: {flags}"
            return None
        return check


class Build:
    """One bundle: four constructors, then save -> load -> save of each body."""

    warm_labels = ("bundle",)
    bundles = 32

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.params = []
        theta = 2 * math.pi * np.arange(GAMMA_SAMPLES) / GAMMA_SAMPLES
        for _ in range(self.bundles):
            # gamma = 0.5 (1 + a cos(k theta + phase)) with a (k^2 - 1) < 1 has
            # gamma + gamma'' > 0: a smooth Wulff shape on which nearly all of
            # wulff_shape's 720 directions are active, so the induced body has
            # about 720 segments
            gamma = wulff.GammaFn(theta, 0.5 * (1.0 + rng.uniform(0.02, 0.1) * np.cos(
                int(rng.integers(2, 4)) * theta + rng.uniform(0, 2 * math.pi))))
            self.params.append({
                "gon": (int(rng.choice([3, 5, 7])), float(rng.uniform(0.6, 1.5)),
                        _unit(rng)),
                "cd": _cd_vertices(rng, int(rng.choice([3, 5, 7]))),
                "random": (int(rng.integers(2**31)), int(rng.integers(4, 10)),
                           float(rng.uniform(0.5, 1.4))),
                "gamma": gamma, "pole": _unit(rng)})

    def round_ops(self, r: int):
        p = self.params[r % self.bundles]
        return [("bundle", self._run(p), self._check(p))]

    def _run(self, p):
        def run():
            n, target, center = p["gon"]
            seed, k, diam = p["random"]
            bodies = {
                "regular": construct.regular_odd_gon(n, target, center=center),
                "cd": construct.constant_diameter_odd_gon(p["cd"]),
                "random": construct.random_convex_polygon(seed, n=k, max_diam=diam),
                "induced": wulff.induce_spherical(wulff.wulff_shape(p["gamma"]),
                                                  wulff.frame_at(p["pole"])),
            }
            paths = {}
            for name, body in bodies.items():
                first = str(self.workdir / f"{name}-a.json")
                second = str(self.workdir / f"{name}-b.json")
                lio.save_body(body, first)
                lio.save_body(lio.load_body(first), second)
                paths[name] = (first, second)
            return bodies, paths
        return run

    @staticmethod
    def _check(p):
        def check(out):
            bodies, paths = out
            for name, (first, second) in paths.items():
                if Path(first).read_bytes() != Path(second).read_bytes():
                    return f"{name}: save -> load -> save is not byte-identical"
            got = metrics.thickness(bodies["regular"], n=720).value
            if abs(got - p["gon"][1]) > GON_THICKNESS_TOL:
                return f"regular gon thickness {got!r} misses target {p['gon'][1]!r}"
            return None
        return check


def run_cli(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "lunes"] + [str(a) for a in args],
                          cwd=cwd, env=common.package_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def cli_outcome(proc: subprocess.CompletedProcess, expected: int) -> str | None:
    if proc.returncode != expected:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return f"exit {proc.returncode}, expected {expected}: {tail}"
    if "Traceback" in proc.stdout + proc.stderr:
        return "output holds a traceback"
    return None


class Cli:
    """One `python -m lunes` child at a time, cycling through four commands."""

    warm_labels = ("analyze",)
    per_class = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        self.polys = [_save(_random_polygon(rng, 0.5, 1.2), workdir / f"poly-{i}.json")
                      for i in range(self.per_class)]
        self.caps = [_save(construct.cap(_unit(rng), float(rng.uniform(0.2, 1.2))),
                           workdir / f"cap-{i}.json") for i in range(self.per_class)]
        self.seeds = [int(s) for s in rng.integers(2**31, size=self.per_class)]

    def round_ops(self, r: int):
        i = r % self.per_class
        out = self.workdir / "constructed.json"
        commands = [
            ("analyze", ["analyze", self.polys[i]], 0),
            ("check_cap", ["check", "constant-width", self.caps[i]], 0),
            ("construct", ["--seed", self.seeds[i], "construct", "random",
                           "--n", 6, "--max-diam", 1.0, "--out", out], 0),
            ("roundtrip", ["roundtrip", self.polys[i]], 1),
        ]
        return [(label, self._run(args), self._check(expected))
                for label, args, expected in commands]

    def _run(self, args):
        return lambda: run_cli(args, self.workdir)

    @staticmethod
    def _check(expected: int):
        return lambda proc: cli_outcome(proc, expected)


WORKLOADS = {"analyze": Analyze, "roundtrip": Roundtrip, "build": Build, "cli": Cli}


def malformed_body_doc() -> str:
    """A cap document whose radius is the string "x": a user input error,
    which the CLI contract answers with exit code 2 and no traceback."""
    s = math.sqrt(0.5)
    return json.dumps({
        "schema_version": 1, "kind": "cap", "vertices": [], "metadata": {},
        "segments": [{"center": [0.0, 0.0, 1.0], "radius": "x",
                      "from": [s, 0.0, s], "to": [s, 0.0, s]}]})


def regular_gon_probe(seed: int, workdir: Path, count: int = 6) -> list[int]:
    """Regular 3/5/7-gons, saved and loaded, then judged by reduced_check.

    Regular odd-gons are reduced, so every rejection is a defect: the verdict
    depends on the enclosing center, which load_body recomputes.  Returns
    [rejected, probed].
    """
    rng = np.random.default_rng([seed, 5])
    rejected = 0
    for i in range(count):
        path = _save(_regular_gon(rng, (3, 5, 7)[i % 3]), workdir / f"probe-gon-{i}.json")
        verdict = metrics.reduced_check(lio.load_body(path), tol=ANALYZE_TOL, n=ANALYZE_N)
        rejected += not verdict.passed
    return [rejected, count]


# Inputs on which lunes fails at the first benchmarked commit.  Each probe
# returns 1 while the defect stands and 0 once it is fixed.

# A constant-diameter triangle with corner radii 0.359, 0.681 and 0.00113
# (a roundtrip positive of seed 190729691).  It is self-dual, and the four
# spherical conditions say so, but the sampled dual at dual_n=2880 misses the
# near-corner by 2.4e-4 > tol.
THIN_CORNER_TRIANGLE = (
    (-0.5263463407268469, -0.7110392005259342, -0.46624326796094145),
    (-0.02418841636060229, -0.8546628095318872, -0.5186197089554421),
    (0.32094956108971534, -0.9085826740645868, 0.2673366858962015))


def thin_corner_probe(workdir: Path) -> int:
    """THIN_CORNER_TRIANGLE as a roundtrip positive: saved, then loaded and
    judged by the roundtrip operation and oracle."""
    path = _save(construct.constant_diameter_odd_gon(np.array(THIN_CORNER_TRIANGLE)),
                 workdir / "probe-thin-corner.json")
    try:
        return int(Roundtrip._check(True)(Roundtrip._run(path)()) is not None)
    except LunesError:
        return 1


def coarse_gamma_probe() -> int:
    """induce_spherical(wulff_shape(gamma)) on the gamma and pole of build
    bundle 19 at seed 39, with gamma sampled at 360 angles.  wulff_shape
    returns two vertices 8.7e-8 apart, and hull_from_points then raises
    InvariantViolation: a segment radius is off by more than 1e-10."""
    theta = 2 * math.pi * np.arange(360) / 360
    gamma = wulff.GammaFn(theta, 0.5 * (1.0 + 0.08551392504081906 * np.cos(
        3 * theta + 1.1785438675345856)))
    pole = np.array([-0.7185475129856403, 0.20469931595145033, 0.6646710928204711])
    try:
        wulff.induce_spherical(wulff.wulff_shape(gamma), wulff.frame_at(pole))
    except LunesError:
        return 1
    return 0
