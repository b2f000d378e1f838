"""Command-line surface: construct, measure, check, and render documents.

Exit codes: 0 success or verdict pass, 1 verdict fail, 2 usage or input
error, a --samples too large to allocate among them.  Global flags
--samples/--tol/--seed sit before the subcommand.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io
from .errors import LunesError
from .sphere import norm


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"expected finite components, got {text!r}")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        length = float(norm(vec))
    if length < 1e-15:
        raise argparse.ArgumentTypeError(f"expected a nonzero vector, got {text!r}")
    if length == math.inf:
        raise argparse.ArgumentTypeError(f"vector too long to normalize: {text!r}")
    return vec


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {text!r}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _parse_vertices(text: str) -> np.ndarray:
    return np.stack([_parse_vec(part) for part in text.split(";")])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lunes",
        description="Spherical convex bodies: widths, constant-diameter "
                    "constructions, and Wulff-shape self-duality.")
    p.add_argument("--samples", type=_int_at_least(1), default=720,
                   help="boundary/direction resolution (default 720)")
    p.add_argument("--tol", type=_tolerance, default=1e-6,
                   help="verdict tolerance in radians (default 1e-6)")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seed for random constructions (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a body document")
    csub = c.add_subparsers(dest="what", required=True)
    cap = csub.add_parser("cap")
    cap.add_argument("--center", type=_parse_vec, default=np.array([0.0, 0, 1]))
    cap.add_argument("--rho", type=float, required=True)
    cap.add_argument("--out", required=True)
    gon = csub.add_parser("oddgon")
    gon.add_argument("--n", type=int, required=True)
    gon.add_argument("--thickness", type=float, required=True)
    gon.add_argument("--out", required=True)
    tri = csub.add_parser("cd-triangle")
    tri.add_argument("--v1", type=_parse_vec, required=True)
    tri.add_argument("--v2", type=_parse_vec, required=True)
    tri.add_argument("--v3", type=_parse_vec, required=True)
    tri.add_argument("--out", required=True)
    og = csub.add_parser("cd-oddgon")
    og.add_argument("--vertices", type=_parse_vertices, required=True,
                    help="semicolon-separated x,y,z triples")
    og.add_argument("--out", required=True)
    rnd = csub.add_parser("random")
    rnd.add_argument("--n", type=int, default=8)
    rnd.add_argument("--max-diam", type=float, default=1.0)
    rnd.add_argument("--out", required=True)

    a = sub.add_parser("analyze", help="measure a body, write a report")
    a.add_argument("body")
    a.add_argument("--out")

    k = sub.add_parser("check", help="single-verdict checks (exit 0/1)")
    k.add_argument("verdict",
                   choices=["constant-width", "constant-diameter", "reduced"])
    k.add_argument("body")

    w = sub.add_parser("wulff", help="Wulff shape operations")
    wsub = w.add_subparsers(dest="what", required=True)
    wb = wsub.add_parser("build")
    wb.add_argument("--gamma", required=True)
    wb.add_argument("--out", required=True)
    wd = wsub.add_parser("dual")
    wd.add_argument("--gamma", required=True)
    wd.add_argument("--out", required=True)
    wsd = wsub.add_parser("self-dual")
    wsd.add_argument("--gamma", required=True)
    wi = wsub.add_parser("induce")
    wi.add_argument("--gamma", required=True)
    wi.add_argument("--pole", type=_parse_vec, default=np.array([0.0, 0, 1]))
    wi.add_argument("--out", required=True)
    wp = wsub.add_parser("project")
    wp.add_argument("--body", required=True)
    wp.add_argument("--out", required=True)

    r = sub.add_parser("roundtrip",
                       help="body -> plane -> dual -> equivalence report")
    r.add_argument("body")

    d = sub.add_parser("render", help="write an SVG figure")
    d.add_argument("doc")
    d.add_argument("--view", type=_parse_vec, default=None)
    d.add_argument("--out", required=True)
    return p


def _run(args) -> int:
    n, tol = args.samples, args.tol
    # each command imports the modules it calls, and no others
    if args.command == "construct":
        from . import construct
        if args.what == "cap":
            body = construct.cap(args.center, args.rho)
        elif args.what == "oddgon":
            body = construct.regular_odd_gon(args.n, args.thickness)
        elif args.what == "cd-triangle":
            body = construct.constant_diameter_triangle(args.v1, args.v2, args.v3)
        elif args.what == "cd-oddgon":
            body = construct.constant_diameter_odd_gon(args.vertices)
        else:
            body = construct.random_convex_polygon(args.seed, n=args.n,
                                                   max_diam=args.max_diam)
        io.save_body(body, args.out)
        print(f"wrote {args.out} ({io.body_kind(body)}, "
              f"{len(body.radii)} segments)")
        return 0

    if args.command == "analyze":
        from . import metrics
        body = io.load_body(args.body)
        report = metrics.classify(body, tol=tol, n=n)
        print(f"thickness {report.thickness.value:.12f}")
        print(f"diameter  {report.diameter.value:.12f}")
        for name, verdict in (("constant_width", report.constant_width),
                              ("constant_diameter", report.constant_diameter),
                              ("reduced", report.reduced)):
            print(f"{name}: {'pass' if verdict.passed else 'FAIL'} "
                  f"(deviation {verdict.deviation:.3g})")
        for name, ok in report.checks.items():
            print(f"{name}: {ok}")
        if args.out:
            io.save_report(report, args.out)
            print(f"wrote {args.out}")
        return 0

    if args.command == "check":
        from . import metrics
        body = io.load_body(args.body)
        fn = {"constant-width": metrics.is_constant_width,
              "constant-diameter": metrics.is_constant_diameter,
              "reduced": metrics.reduced_check}[args.verdict]
        verdict = fn(body, tol=tol, n=n)
        print(f"{verdict.kind}: {'pass' if verdict.passed else 'FAIL'} "
              f"(deviation {verdict.deviation:.3g}, tolerance {tol:g})")
        return 0 if verdict.passed else 1

    if args.command == "wulff":
        from . import wulff
        if args.what == "project":
            body = io.load_body(args.body)
            shape = wulff.project_to_plane(body, wulff.frame_at(body.enclosing_center), n=n)
        else:
            shape = wulff.wulff_shape(io.load_gamma(args.gamma), n=n)
        if args.what == "self-dual":
            ok, gap = wulff.is_self_dual(shape, tol=tol)
            print(f"self-dual: {'pass' if ok else 'FAIL'} "
                  f"(gap {gap:.3g}, tolerance {tol:g})")
            return 0 if ok else 1
        if args.what == "induce":
            body = wulff.induce_spherical(shape, wulff.frame_at(args.pole))
            io.save_body(body, args.out)
            print(f"wrote {args.out} ({len(body.radii)} segments)")
            return 0
        if args.what == "dual":
            shape = wulff.dual_wulff(shape)
        io.save_gamma(wulff.polygon_gamma(shape), args.out)
        print(f"wrote {args.out} ({len(shape.vertices)} vertices)")
        return 0

    if args.command == "roundtrip":
        from . import wulff
        body = io.load_body(args.body)
        frame = wulff.frame_at(body.enclosing_center)
        shape = wulff.project_to_plane(body, frame, n=n)
        report = wulff.self_dual_equivalence_report(shape, frame,
                                                    tol=max(tol, 1e-4), n=n)
        print(f"self_dual: {report.self_dual} (gap {report.hausdorff_gap:.3g})")
        for name, verdict in report.four_conditions.items():
            print(f"{name}: {verdict.passed} (deviation {verdict.deviation:.3g})")
        return 0 if all(report.booleans) else 1

    from . import render, wulff
    body_doc = io.load_document(args.doc)
    view = args.view
    if body_doc["kind"] == "body":
        target = body_doc["body"]
        if view is None:
            view = target.enclosing_center
    elif body_doc["kind"] == "gamma":
        target = wulff.wulff_shape(body_doc["gamma"], n=n)
        view = np.array([0.0, 0.0, 1.0])
    else:
        print("cannot render a report document", file=sys.stderr)
        return 2
    render.render_svg(target, view, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except LunesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refuses an array past memory at once
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
