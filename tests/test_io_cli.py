"""Persistence, SVG rendering, and the command-line surface."""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lunes
from lunes import body as bd
from lunes import cli, construct, io, metrics, render, wulff
from lunes.errors import InvariantViolation, ParseError

from conftest import STADIUM_LENS, cd_induced, lens

Z = np.array([0.0, 0.0, 1.0])


def child_env():
    """The environment with the directory that holds the imported `lunes`
    first on PYTHONPATH, so a child started in any working directory imports
    the package under test (a relative `PYTHONPATH=src` breaks once the cwd
    changes)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(lunes.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


HUGE = "1e300,0,1"


def _main(argv):
    """cli.main's exit code, argparse's exit included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "lunes", *map(str, args)],
                          cwd=cwd, env=child_env(), capture_output=True,
                          text=True)


class TestBodyDocuments:
    def test_save_load_bit_identical(self, tmp_path, octant, cd_triangle):
        for i, body in enumerate((octant, cd_triangle,
                                  construct.cap(Z, 0.7))):
            p1 = tmp_path / f"a{i}.body.json"
            p2 = tmp_path / f"b{i}.body.json"
            io.save_body(body, str(p1))
            io.save_body(io.load_body(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_doc_round_trip_identity(self, cd_triangle):
        doc = io.body_to_doc(cd_triangle)
        assert io.body_to_doc(io.body_from_doc(doc)) == doc

    def test_kind_tags(self, octant, cd_triangle):
        assert io.body_kind(octant) == "polygon"
        assert io.body_kind(cd_triangle) == "arc_boundary"
        assert io.body_kind(construct.cap(Z, 0.5)) == "cap"

    def test_strict_schema_rejections(self, octant):
        doc = io.body_to_doc(octant)
        bad = copy.deepcopy(doc)
        bad["surprise"] = 1
        with pytest.raises(ParseError, match="unknown fields"):
            io.body_from_doc(bad)
        bad = copy.deepcopy(doc)
        del bad["segments"]
        with pytest.raises(ParseError, match="missing fields"):
            io.body_from_doc(bad)
        bad = copy.deepcopy(doc)
        bad["schema_version"] = 2
        with pytest.raises(ParseError, match="schema_version"):
            io.body_from_doc(bad)
        bad = copy.deepcopy(doc)
        bad["kind"] = "cap"
        with pytest.raises(ParseError, match="kind"):
            io.body_from_doc(bad)

    def test_non_unit_vertex_rejected(self, octant):
        doc = io.body_to_doc(octant)
        doc["vertices"][0] = [1.1, 0.0, 0.0]
        with pytest.raises(InvariantViolation, match="unit norm"):
            io.body_from_doc(doc)

    def test_vertices_must_match_segments(self):
        doc = io.body_to_doc(construct.regular_odd_gon(5, 1.0))
        bad = copy.deepcopy(doc)
        bad["vertices"] = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ParseError, match="vertices"):
            io.body_from_doc(bad)
        # one vertex slid along the sphere: unit, and off its junction by
        # more than CLOSURE_TOL in some component, or by less in every one
        v = np.array(doc["vertices"][2])
        t = np.cross(Z, v)
        t /= np.linalg.norm(t)

        def slid(off):
            bad = copy.deepcopy(doc)
            bad["vertices"][2] = [float(x) for x in v + off * t]
            return bad
        io.body_from_doc(slid(0.5 * bd.CLOSURE_TOL))
        for off in (1e-8, 2 * bd.CLOSURE_TOL):
            with pytest.raises(ParseError, match="vertices do not match"):
                io.body_from_doc(slid(off))

    def test_non_unit_segment_end_rejected(self, octant):
        # each segment's "to" repeats the next "from": it is checked as the
        # listed vertices are, for unit norm first
        doc = io.body_to_doc(octant)
        doc["segments"][1]["to"] = [1.1 * x for x in doc["segments"][1]["to"]]
        with pytest.raises(InvariantViolation, match="segment 1 to: unit norm violated"):
            io.body_from_doc(doc)

    def test_boundary_gap_rejected(self, octant):
        doc = io.body_to_doc(octant)
        seg = doc["segments"][0]
        c, b = np.array(seg["center"]), np.array(seg["to"])
        # slide the endpoint along its own great circle: radius stays valid,
        # the junction with the next segment opens up
        moved = math.cos(0.1) * b + math.sin(0.1) * np.cross(c, b)
        seg["to"] = [float(x) for x in moved]
        with pytest.raises(InvariantViolation, match="closed boundary"):
            io.body_from_doc(doc)


class TestGammaAndReportDocuments:
    def test_gamma_round_trip(self, tmp_path):
        ang = 2 * math.pi * np.arange(64) / 64
        g = wulff.GammaFn(ang, 1.0 + 0.3 * np.cos(2 * ang))
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        io.save_gamma(g, str(p1))
        io.save_gamma(io.load_gamma(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_documents(self, tmp_path, quarter_cap):
        rep = metrics.classify(quarter_cap, tol=1e-6, n=240)
        path = tmp_path / "r.report.json"
        io.save_report(rep, str(path))
        doc = io.load_document(str(path))["report"]
        assert doc["kind"] == "report"
        assert doc["thickness"] == rep.thickness.value
        assert doc["diameter"] == rep.diameter.value
        assert set(doc["verdicts"]) == {"constant_width", "constant_diameter",
                                        "reduced"}
        for v in doc["verdicts"].values():
            assert {"kind", "pass", "deviation", "tolerance",
                    "witness"} <= set(v)
            assert math.isfinite(v["deviation"])
        assert all(isinstance(x, bool) for x in doc["theorem_checks"].values())


def _star_doc():
    """A {5/2} pentagram of great arcs: it turns left at every vertex but
    winds twice."""
    v = construct.regular_polygon_vertices(5, 0.6)[2 * np.arange(5) % 5]
    w = np.roll(v, -1, axis=0)
    poles = np.cross(v, w)
    poles /= np.linalg.norm(poles, axis=1)[:, None]
    return {"schema_version": 1, "kind": "polygon", "vertices": v.tolist(), "metadata": {},
            "segments": [{"center": c.tolist(), "radius": math.pi / 2, "from": a.tolist(),
                          "to": b.tolist()} for c, a, b in zip(poles, v, w)]}


def _malformed(doc, key, value):
    doc = copy.deepcopy(doc)
    if key in ("radius", "center"):
        doc["segments"][0][key] = value
    elif key == "component":  # the last coordinate of the first center
        doc["segments"][0]["center"][2] = value
    elif key == "sample":
        doc["samples"][0] = value
    else:
        doc[key] = value
    return doc


class TestMalformedDocuments:
    """Wrong types and shapes are input errors (ParseError), not crashes."""

    @pytest.mark.parametrize("key, value", [
        ("radius", "x"), ("radius", None), ("metadata", [1]), ("vertices", None),
        ("radius", 10**400), ("component", 10**400), ("component", "one"),
        ("center", "0,0,1"), ("center", True), ("center", "001"),
        ("center", {"0": 0.0, "1": 0.0, "2": 1.0}),
        ("component", "1"), ("component", " 1e0 "), ("component", True),
        ("radius", "0.5"), ("schema_version", True),
    ], ids=["radius_string", "radius_null", "metadata_list", "vertices_null",
            "radius_huge_int", "component_huge_int", "component_word",
            "vector_string", "vector_bool", "vector_3_char_string",
            "vector_3_key_object", "component_numeric_string",
            "component_padded_string", "component_bool", "radius_numeric_string",
            "version_bool"])
    def test_body(self, tmp_path, key, value):
        # only JSON numbers are numbers: no numeric string, and no boolean
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            _malformed(io.body_to_doc(construct.cap(Z, 0.5)), key, value)))
        with pytest.raises(ParseError):
            io.load_body(str(path))

    @pytest.mark.parametrize("key, value", [("sample", [0, "a"]), ("samples", 5),
                                            ("sample", [0, 10**400]),
                                            ("sample", [0, "1.5"]),
                                            ("sample", [True, 1.0])],
                             ids=["sample_string", "samples_number", "sample_huge_int",
                                  "sample_numeric_string", "sample_bool"])
    def test_gamma(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            _malformed(io.gamma_to_doc(wulff.GammaFn.constant(1.0)), key, value)))
        with pytest.raises(ParseError):
            io.load_gamma(str(path))

    @pytest.mark.parametrize("where", ["top", "metadata"])
    def test_deep_nesting(self, tmp_path, where):
        # json.load gives up with RecursionError on 200,000 nested lists
        deep = "[" * 200000 + "]" * 200000
        doc = io.body_to_doc(construct.cap(Z, 0.5))
        text = deep if where == "top" else json.dumps(
            dict(doc, metadata="DEEP")).replace('"DEEP"', deep)
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            io.load_body(str(path))


class TestRenderSvg:
    def test_boundary_path_counts(self, tmp_path, octant, cd_triangle):
        view = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        p = tmp_path / "octant.svg"
        render.render_svg(octant, view, str(p))
        text = p.read_text()
        assert text.count('class="boundary"') == 3
        render.render_svg(cd_triangle, cd_triangle.enclosing_center, str(p))
        assert p.read_text().count('class="boundary"') == 6

    def test_back_view_dashes_hidden_arcs(self, tmp_path, octant):
        p = tmp_path / "back.svg"
        render.render_svg(octant, -octant.enclosing_center, str(p))
        assert p.read_text().count('class="boundary-hidden"') >= 1

    def test_arcs_drawn_by_sweep(self, tmp_path, cd_triangle):
        # an arc gets its sweep's share of 96 points: a full circle all 96,
        # each of the 720 short arcs of the body a constant-diameter triangle
        # induces 2, so a view of it stays under 0.1 MB (1.48 MB at 96 each)
        p = tmp_path / "cap.svg"
        render.render_svg(construct.cap(Z, 0.5), Z, str(p))
        boundary = [line for line in p.read_text().splitlines() if 'class="boundary"' in line]
        assert len(boundary) == 1 and boundary[0].count(" L ") == 95
        frame = wulff.frame_at(cd_triangle.enclosing_center)
        body = wulff.induce_spherical(wulff.project_to_plane(cd_triangle, frame, n=720), frame)
        assert body.arcs.count == 720
        for view in (frame.pole, -frame.pole, frame.u):
            render.render_svg(body, view, str(p))
            assert p.stat().st_size < 100_000

    def test_deterministic_bytes(self, tmp_path, cd_triangle):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        view = np.array([0.0, 0.0, 1.0])
        render.render_svg(cd_triangle, view, str(p1))
        render.render_svg(cd_triangle, view, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_cap_constant_width_pass(self, tmp_path):
        r = run_cli("construct", "cap", "--center", "0,0,1",
                    "--rho", repr(math.pi / 4), "--out", "cap.json",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("check", "constant-width", "cap.json", cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr

    def test_random_polygon_constant_width_fails(self, tmp_path):
        r = run_cli("--seed", "3", "construct", "random", "--n", "7",
                    "--max-diam", "1.0", "--out", "poly.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("check", "constant-width", "poly.json", cwd=tmp_path)
        assert r.returncode == 1
        assert "constant_width: FAIL" in r.stdout, r.stdout + r.stderr
        assert "Traceback" not in r.stderr, r.stderr

    def test_analyze_matches_library_bit_for_bit(self, tmp_path):
        r = run_cli("construct", "oddgon", "--n", "5", "--thickness", "1.0",
                    "--out", "gon.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("analyze", "gon.json", "--out", "rep.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        got = json.loads((tmp_path / "rep.json").read_text())
        body = io.load_body(str(tmp_path / "gon.json"))
        want = io.report_to_doc(metrics.classify(body, tol=1e-6, n=720))
        assert got == want

    def test_check_verdicts_and_exit_codes(self, tmp_path):
        r = run_cli("construct", "cd-triangle", "--v1", "1,0,0",
                    "--v2", "0,1,0", "--v3", "0,0,1", "--out", "tri.json",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert run_cli("check", "constant-diameter", "tri.json",
                       cwd=tmp_path).returncode == 0
        assert run_cli("check", "reduced", "tri.json",
                       cwd=tmp_path).returncode == 0
        r = run_cli("--seed", "9", "construct", "random", "--n", "6",
                    "--max-diam", "1.0", "--out", "poly.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("check", "constant-diameter", "poly.json", cwd=tmp_path)
        assert r.returncode == 1
        assert "constant_diameter: FAIL" in r.stdout, r.stdout + r.stderr
        assert "Traceback" not in r.stderr, r.stderr

    def test_stadium_is_not_reduced(self, tmp_path):
        # a smooth body that is not reduced: check exits 1, and analyze
        # reports no theorem check False
        io.save_body(bd.polar_dual(lens(*STADIUM_LENS)), str(tmp_path / "stadium.json"))
        r = run_cli("check", "reduced", "stadium.json", cwd=tmp_path)
        assert r.returncode == 1, r.stdout + r.stderr
        assert "reduced_necessary: FAIL" in r.stdout, r.stdout
        r = run_cli("analyze", "stadium.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "reduced: FAIL" in r.stdout
        assert not [line for line in r.stdout.splitlines() if line.endswith(": False")]

    def test_wulff_self_dual_exit_codes(self, tmp_path):
        # unit gamma builds the n-gon circumscribing the unit circle; its
        # dual inscribes it, a gap of 1/cos(pi/n) - cos(pi/n)
        io.save_gamma(wulff.GammaFn.constant(1.0), str(tmp_path / "one.json"))
        r = run_cli("wulff", "self-dual", "--gamma", "one.json", cwd=tmp_path)
        assert r.returncode == 1, r.stdout + r.stderr
        assert "self-dual: FAIL (gap 1.9e-05," in r.stdout, r.stdout
        r = run_cli("--samples", "4096", "wulff", "self-dual", "--gamma", "one.json",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "self-dual: pass (gap 5.88e-07," in r.stdout, r.stdout
        ang = 2 * math.pi * np.arange(360) / 360
        io.save_gamma(wulff.GammaFn(ang, np.abs(np.cos(ang)) + np.abs(np.sin(ang))),
                      str(tmp_path / "sq.json"))
        r = run_cli("wulff", "self-dual", "--gamma", "sq.json", cwd=tmp_path)
        assert r.returncode == 1
        assert "self-dual: FAIL" in r.stdout, r.stdout + r.stderr
        assert "Traceback" not in r.stderr, r.stderr

    def test_wulff_project_induce_round_trip(self, tmp_path):
        r = run_cli("construct", "oddgon", "--n", "5", "--thickness", "1.0",
                    "--out", "gon.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("wulff", "project", "--body", "gon.json",
                    "--out", "proj.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("wulff", "induce", "--gamma", "proj.json",
                    "--pole", "0,0,1", "--out", "back.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        orig = io.load_body(str(tmp_path / "gon.json"))
        back = io.load_body(str(tmp_path / "back.json"))
        assert bd.hausdorff_bodies(orig, back, n=360) <= 1e-9

    def test_roundtrip_exit_codes(self, tmp_path):
        r = run_cli("construct", "cap", "--center", "0,0,1",
                    "--rho", repr(math.pi / 4), "--out", "cap.json",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("roundtrip", "cap.json", cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        r = run_cli("--seed", "4", "construct", "random", "--n", "6",
                    "--max-diam", "1.0", "--out", "poly.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("roundtrip", "poly.json", cwd=tmp_path)
        assert r.returncode == 1
        assert "self_dual" in r.stdout
        assert "Traceback" not in r.stderr, r.stderr

    def test_render_and_report_rejection(self, tmp_path):
        r = run_cli("construct", "cap", "--center", "0,0,1", "--rho", "0.5",
                    "--out", "cap.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("render", "cap.json", "--view", "0,0,1",
                    "--out", "cap.svg", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        io.save_gamma(wulff.GammaFn.constant(1.0), str(tmp_path / "one.json"))
        r = run_cli("render", "one.json", "--out", "one.svg", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        for svg in ("cap.svg", "one.svg"):
            assert 'class="boundary"' in (tmp_path / svg).read_text()
        r = run_cli("analyze", "cap.json", "--out", "rep.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("render", "rep.json", "--view", "0,0,1",
                    "--out", "rep.svg", cwd=tmp_path)
        assert r.returncode == 2
        assert "report" in r.stderr

    def test_usage_and_validation_exit_2(self, tmp_path):
        assert run_cli("analyze", "missing.json",
                       cwd=tmp_path).returncode == 2
        assert run_cli("construct", "cap", "--center", "0,0,1", "--rho",
                       "2.0", "--out", "bad.json", cwd=tmp_path).returncode == 2

    def test_malformed_document_exit_2(self, tmp_path):
        doc = _malformed(io.body_to_doc(construct.cap(Z, 0.5)), "radius", "x")
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        r = run_cli("check", "constant-width", "bad.json", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "Traceback" not in r.stderr, r.stderr

    def test_huge_integer_exit_2(self, tmp_path):
        # float(10**400) overflows: an input error like any other bad number
        doc = _malformed(io.body_to_doc(construct.cap(Z, 0.5)), "radius", 10**400)
        (tmp_path / "huge.json").write_text(json.dumps(doc))
        r = run_cli("analyze", "huge.json", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "Traceback" not in r.stderr, r.stderr

    def test_deep_nesting_exit_2(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
        for args in (("analyze", "deep.json"), ("roundtrip", "deep.json"),
                     ("check", "reduced", "deep.json"),
                     ("render", "deep.json", "--view", "0,0,1", "--out", "d.svg")):
            r = run_cli(*args, cwd=tmp_path)
            assert r.returncode == 2, (args, r.stdout + r.stderr)
            assert "Traceback" not in r.stderr, r.stderr

    def test_nonpositive_samples_exit_2(self, tmp_path):
        io.save_body(construct.cap(Z, 0.5), str(tmp_path / "cap.json"))
        for samples in ("0", "-5"):
            r = run_cli("--samples", samples, "analyze", "cap.json", cwd=tmp_path)
            assert r.returncode == 2, r.stdout + r.stderr
            assert "--samples" in r.stderr and "Traceback" not in r.stderr, r.stderr

    def test_samples_past_memory_exit_2(self, tmp_path, capsys, octant):
        # numpy refuses an array of 10**15 samples at once, before anything
        # is allocated: one error line, no traceback
        io.save_body(octant, str(tmp_path / "octant.json"))
        assert _main(["--samples", str(10**15), "analyze", str(tmp_path / "octant.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1, err

    def test_negative_seed_exit_2(self, tmp_path):
        r = run_cli("--seed", "-1", "construct", "random", "--out", "r.json",
                    cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "--seed" in r.stderr and "Traceback" not in r.stderr, r.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("args, flag", [
        (["construct", "cap", "--center", "0,0,0", "--rho", "0.5", "--out", "c.json"],
         "--center"),
        (["construct", "cap", "--center", "0,nan,1", "--rho", "0.5", "--out", "c.json"],
         "--center"),
        (["wulff", "induce", "--gamma", "g.json", "--pole", "0,0,0", "--out", "b.json"],
         "--pole"),
        (["render", "cap.json", "--view", "0,0,0", "--out", "cap.svg"], "--view"),
    ], ids=["zero_center", "nan_center", "zero_pole", "zero_view"])
    def test_bad_vector_exit_2(self, tmp_path, args, flag):
        io.save_body(construct.cap(Z, 0.5), str(tmp_path / "cap.json"))
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert flag in r.stderr and "Traceback" not in r.stderr, r.stderr

    @pytest.mark.parametrize("args", [
        ["construct", "cap", "--center", HUGE, "--rho", "0.5", "--out", "c.json"],
        ["construct", "cd-triangle", "--v1", HUGE, "--v2", "1,0,1", "--v3", "0,1,1",
         "--out", "t.json"],
        ["construct", "cd-triangle", "--v1", "1,0,1", "--v2", HUGE, "--v3", "0,1,1",
         "--out", "t.json"],
        ["construct", "cd-triangle", "--v1", "1,0,1", "--v2", "0,1,1", "--v3", HUGE,
         "--out", "t.json"],
        ["construct", "cd-oddgon", "--vertices", f"1,0,1;0,1,1;{HUGE}", "--out", "g.json"],
        ["wulff", "induce", "--gamma", "g.json", "--pole", HUGE, "--out", "i.json"],
        ["render", "cap.json", "--view", HUGE, "--out", "cap.svg"],
    ], ids=["center", "v1", "v2", "v3", "vertices", "pole", "view"])
    def test_huge_vector_flag_exit_2(self, monkeypatch, capsys, args):
        # a component of 1e300 squares to inf: the vector is rejected as
        # too long, with no overflow warning (an error under Tier-1's
        # filter) and no zero vector passed on
        monkeypatch.setenv("COLUMNS", "200")  # argparse's usage on one line
        assert _main(args) == 2
        err = capsys.readouterr().err
        rest = [line for line in err.splitlines() if not line.startswith("usage: lunes ")]
        assert len(rest) == 1 and "error: argument" in rest[0], err
        assert "too long" in rest[0], err

    @pytest.mark.parametrize("slot", ["center", "from", "to", "vertex"])
    def test_huge_document_component_exit_2(self, tmp_path, capsys, octant, slot):
        doc = io.body_to_doc(octant)
        vec = doc["vertices"][0] if slot == "vertex" else doc["segments"][0][slot]
        vec[0] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert _main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "norm inf" in err or "|v| = inf" in err, err

    def test_open_document_boundary_exit_2(self, tmp_path, capsys, octant):
        doc = io.body_to_doc(octant)
        seg = doc["segments"][0]
        c, b = np.array(seg["center"]), np.array(seg["to"])
        seg["to"] = [float(x) for x in math.cos(0.1) * b + math.sin(0.1) * np.cross(c, b)]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        assert _main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: closed boundary") and err.count("\n") == 1, err

    def test_star_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        path.write_text(json.dumps(_star_doc()))
        assert _main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: convexity: boundary does not wind once") \
            and err.count("\n") == 1, err

    def test_huge_tolerance_gives_an_answer(self, tmp_path):
        # every finite tol >= 0 screens: the cap-cut depth is bounded by
        # the body, so 1e308 neither overflows nor fails a reduced gon
        io.save_body(construct.random_convex_polygon(7, n=6, max_diam=1.0),
                     str(tmp_path / "poly.json"))
        io.save_body(construct.regular_odd_gon(7, 0.5), str(tmp_path / "g7.json"))
        for args in (["analyze", "poly.json"], ["check", "reduced", "g7.json"]):
            r = run_cli("--tol", "1e308", *args, cwd=tmp_path)
            assert r.returncode == 0 and "Traceback" not in r.stderr, r.stdout + r.stderr

    @pytest.mark.parametrize("what", [
        "cd-triangle --v1 0,0,1 --v2 1e-16,0,1 --v3 0,1e-16,1",
        "cd-oddgon --vertices 0,0,1;1e-16,0,1;0,1e-16,1",
    ], ids=["cd-triangle", "cd-oddgon"])
    def test_coincident_vertices_exit_2(self, tmp_path, capsys, what):
        # a vertex 1e-16 from its far vertex leaves the arc between them no
        # direction: an input error on one line, and no file written
        out = tmp_path / "cd.json"
        assert _main(["construct", *what.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vertices too close together") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "wulff build --gamma {g} --out {o}", "wulff dual --gamma {g} --out {o}",
        "wulff self-dual --gamma {g}", "wulff induce --gamma {g} --out {o}",
        "render {g} --out {o}",
    ], ids=["build", "dual", "self-dual", "induce", "render"])
    def test_gamma_reciprocal_overflow_exit_2(self, tmp_path, capsys, command):
        # 1 / 1e-320 overflows: an infinite dual point, refused on one line
        # with no overflow warning (an error under Tier-1's filter)
        g = tmp_path / "g.json"
        io.save_gamma(wulff.GammaFn(2 * math.pi * np.arange(8) / 8,
                                    np.array([1e-320] + [1.0] * 7)), str(g))
        assert _main(command.format(g=g, o=tmp_path / "out").split()) == 2
        err = capsys.readouterr().err
        assert err == "error: degenerate half-plane family: non-finite point\n", err

    @pytest.mark.parametrize("tiny", [1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("command", [
        "wulff dual --gamma {g} --out {o}", "wulff self-dual --gamma {g}",
    ], ids=["dual", "self-dual"])
    def test_tiny_gamma_sample_exit_0_or_2(self, tmp_path, capsys, command, tiny):
        # 1 / tiny is finite but past 1e154, so the dual's edges are too:
        # its checks square no such length, and it gets a verdict
        g = tmp_path / "g.json"
        io.save_gamma(wulff.GammaFn(2 * math.pi * np.arange(8) / 8,
                                    np.array([tiny] + [1.0] * 7)), str(g))
        assert _main(command.format(g=g, o=tmp_path / "out").split()) in (0, 2)
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-100,
                                       1e100, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("command, codes", [
        ("wulff build --gamma {g} --out {o}", (0,)),
        ("wulff dual --gamma {g} --out {o}", (0,)),
        ("wulff self-dual --gamma {g}", (1,)),
        ("wulff induce --gamma {g} --out {o}", (0, 2)),
        ("render {g} --out {o}", (0, 2)),
    ], ids=["build", "dual", "self-dual", "induce", "render"])
    def test_far_scale_gamma(self, tmp_path, capsys, command, codes, scale):
        # W(s gamma) = s W(gamma) at any normal scale: the shape and its dual
        # build, the verdict is a gap (the dual of s W is dual(W) / s), and a lift
        # too small or too large for the sphere is refused on one line
        g = tmp_path / "g.json"
        io.save_gamma(wulff.GammaFn.constant(scale), str(g))
        code = _main(command.format(g=g, o=tmp_path / "out").split())
        out, err = capsys.readouterr()
        assert code in codes, (code, out, err)
        assert err.count("\n") == (code == 2), err
        assert "Traceback" not in out + err and "Warning" not in out + err

    @pytest.mark.parametrize("make, tol, lines", [
        (lambda: construct.regular_odd_gon(65, 1.0), "1e-6",
         ["thickness 1.000000000000", "reduced: pass"]),
        (lambda: construct.regular_odd_gon(101, 1.0), "1e-6",
         ["thickness 1.000000000000", "reduced: pass"]),
        (cd_induced, "1e-4",
         ["constant_width: pass", "constant_diameter: pass", "reduced: pass"]),
    ], ids=["65-gon", "101-gon", "cd-induced"])
    def test_analyze_many_arc_bodies(self, tmp_path, capsys, make, tol, lines):
        # more corners than the lune search probes: regular gons with an
        # exact tie at every vertex, and the 720-arc body a constant-diameter
        # triangle induces, all three verdicts passing at the roundtrip's tol
        path = str(tmp_path / "body.json")
        io.save_body(make(), path)
        assert _main(["--tol", tol, "analyze", path]) == 0
        out = capsys.readouterr().out.splitlines()
        for want in lines:
            assert [line for line in out if line.startswith(want)], (want, out)

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, tmp_path, tol):
        io.save_body(construct.cap(Z, 0.5), str(tmp_path / "cap.json"))
        r = run_cli("--tol", tol, "check", "constant-width", "cap.json", cwd=tmp_path)
        assert r.returncode == 2, r.stdout + r.stderr
        assert "--tol" in r.stderr and "Traceback" not in r.stderr, r.stderr

    def test_deterministic_output_files(self, tmp_path):
        for name in ("r1.json", "r2.json"):
            r = run_cli("--seed", "11", "construct", "random", "--n", "8",
                        "--max-diam", "0.9", "--out", name, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "r1.json").read_bytes() == \
            (tmp_path / "r2.json").read_bytes()

    def test_commands_load_no_scipy(self, tmp_path):
        # the package depends on numpy alone, and scipy is installed only
        # for the tests; -X importtime logs every module the child imports.
        # `import lunes` loads no submodule, and each command loads the
        # modules it calls: analyze and check no Wulff layer, construct no
        # metrics, roundtrip no construct or render
        read = {"cli", "io", "body", "sphere", "errors"}
        commands = [(["-c", "import lunes"], set()),
                    (["-m", "lunes", "construct", "random", "--out", "poly.json"],
                     read | {"construct"}),
                    (["-m", "lunes", "analyze", "poly.json"], read | {"metrics"}),
                    (["-m", "lunes", "check", "constant-width", "poly.json"],
                     read | {"metrics"}),
                    (["-m", "lunes", "roundtrip", "poly.json"],
                     read | {"metrics", "wulff"})]
        for args, loaded in commands:
            r = subprocess.run([sys.executable, "-X", "importtime", *args],
                               cwd=tmp_path, env=child_env(), capture_output=True,
                               text=True)
            assert r.returncode in (0, 1), r.stderr
            modules = [line.rsplit("|", 1)[-1].strip()
                       for line in r.stderr.splitlines()
                       if line.startswith("import time:")]
            assert "lunes" in modules, args
            assert not [m for m in modules if m.split(".")[0] == "scipy"], args
            assert {m.split(".", 1)[1] for m in modules
                    if m.startswith("lunes.")} == loaded, args
