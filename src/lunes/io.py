"""Strict JSON persistence for bodies, gamma functions, and reports.

Documents carry schema_version 1 and a kind tag; unknown fields are
rejected so regression corpora stay honest.  Floats are serialized via
Python's shortest round-trip repr, which is lossless for IEEE-754 doubles;
loading re-runs full body validation, so a hand-edited document that breaks
an invariant fails with the invariant's name.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .body import SphericalBody
from .errors import InvariantViolation, ParseError
from .metrics import ClassifyReport
from .wulff import GammaFn

SCHEMA_VERSION = 1
BODY_KINDS = ("polygon", "arc_boundary", "cap")


def _vec(x, name: str) -> list[float]:
    try:
        seq = list(x)
        if len(seq) != 3:
            raise ParseError(f"{name} must have 3 components")
        out = [float(c) for c in seq]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} must be a list of 3 numbers") from exc
    if not all(math.isfinite(c) for c in out):
        raise ParseError(f"{name} has a non-finite component")
    return out


def _finite(x, name: str) -> float:
    try:
        v = float(x)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} must be a number, got {x!r}") from exc
    if not math.isfinite(v):
        raise ParseError(f"{name} is not finite")
    return v


def _check_keys(d: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected an object")
    keys = set(d)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")


def _list(x, where: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{where}: expected a list")
    return x


def _check_version(doc: dict, where: str) -> None:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"{where}: schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")


def _dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


# -- bodies -----------------------------------------------------------------


def body_kind(body: SphericalBody) -> str:
    if body.is_full_circle:
        return "cap"
    return "polygon" if body.is_polygon else "arc_boundary"


def body_to_doc(body: SphericalBody) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": body_kind(body),
        "vertices": [_vec(v, "vertex") for v in body.vertices],
        "segments": [{
            "center": _vec(c, "segment center"),
            "radius": _finite(r, "segment radius"),
            "from": _vec(a, "segment start"),
            "to": _vec(b, "segment end"),
        } for c, r, a, b in zip(body.centers, body.radii, body.starts,
                                np.roll(body.starts, -1, axis=0))],
        "metadata": body.meta,
    }


def body_from_doc(doc: dict, where: str = "body document") -> SphericalBody:
    _check_keys(doc, {"schema_version", "kind", "vertices", "segments"},
                {"metadata"}, where)
    _check_version(doc, where)
    kind = doc["kind"]
    if kind not in BODY_KINDS:
        raise ParseError(f"{where}: kind must be one of {BODY_KINDS}, got {kind!r}")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{where}: metadata must be an object")
    segs = _list(doc["segments"], f"{where}: segments")
    names, vecs, radii = [], [], []
    for i, sd in enumerate(segs):
        _check_keys(sd, {"center", "radius", "from", "to"}, set(),
                    f"{where}: segment {i}")
        for key in ("center", "from", "to"):
            names.append(f"{where}: segment {i} {key}")
            vecs.append(_vec(sd[key], names[-1]))
        radii.append(_finite(sd["radius"], "radius"))
    for i, v in enumerate(_list(doc["vertices"], f"{where}: vertices")):
        names.append(f"{where}: vertex {i}")
        vecs.append(_vec(v, names[-1]))
    vecs = np.array(vecs, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(vecs, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    if len(bad):
        k = int(bad[0])
        raise InvariantViolation(
            f"{names[k]}: unit norm violated, |v| = {float(norms[k])!r}")
    trios = vecs[:3 * len(segs)].reshape(-1, 3, 3)
    body = SphericalBody(zip(trios[:, 0], radii, trios[:, 1], trios[:, 2]),
                         meta=meta)
    listed = vecs[3 * len(segs):] / norms[3 * len(segs):, None]
    if listed.shape != body.vertices.shape \
            or np.any(np.abs(listed - body.vertices) > 1e-10):
        raise ParseError(f"{where}: vertices do not match the segment junctions")
    actual = body_kind(body)
    if actual != kind:
        raise ParseError(f"{where}: kind {kind!r} but segments describe {actual!r}")
    return body


def save_body(body: SphericalBody, path: str) -> None:
    _dump(body_to_doc(body), path)


def load_body(path: str) -> SphericalBody:
    return body_from_doc(_load(path), where=path)


# -- gamma ------------------------------------------------------------------


def gamma_to_doc(gamma: GammaFn) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gamma",
        "samples": [[float(a), float(v)]
                    for a, v in zip(gamma.angles, gamma.values)],
    }


def gamma_from_doc(doc: dict, where: str = "gamma document") -> GammaFn:
    _check_keys(doc, {"schema_version", "kind", "samples"}, set(), where)
    _check_version(doc, where)
    if doc["kind"] != "gamma":
        raise ParseError(f"{where}: kind must be 'gamma', got {doc['kind']!r}")
    angles, values = [], []
    for i, pair in enumerate(_list(doc["samples"], f"{where}: samples")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}: sample {i} must be [angle, value]")
        angles.append(_finite(pair[0], f"sample {i} angle"))
        values.append(_finite(pair[1], f"sample {i} value"))
    return GammaFn(np.array(angles), np.array(values))


def save_gamma(gamma: GammaFn, path: str) -> None:
    _dump(gamma_to_doc(gamma), path)


def load_gamma(path: str) -> GammaFn:
    return gamma_from_doc(_load(path), where=path)


# -- reports ----------------------------------------------------------------


def report_to_doc(report: ClassifyReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "thickness": _finite(report.thickness.value, "thickness"),
        "diameter": _finite(report.diameter.value, "diameter"),
        "verdicts": {
            "constant_width": report.constant_width.to_dict(),
            "constant_diameter": report.constant_diameter.to_dict(),
            "reduced": report.reduced.to_dict(),
        },
        "theorem_checks": {k: bool(v) for k, v in report.checks.items()},
    }


def report_from_doc(doc: dict, where: str = "report document") -> dict:
    """Validate a report document and return it as a plain dict."""
    _check_keys(doc, {"schema_version", "kind", "thickness", "diameter",
                      "verdicts", "theorem_checks"}, set(), where)
    _check_version(doc, where)
    if doc["kind"] != "report":
        raise ParseError(f"{where}: kind must be 'report', got {doc['kind']!r}")
    _finite(doc["thickness"], "thickness")
    _finite(doc["diameter"], "diameter")
    for part in ("verdicts", "theorem_checks"):
        if not isinstance(doc[part], dict):
            raise ParseError(f"{where}: {part} must be an object")
    for name, v in doc["verdicts"].items():
        _check_keys(v, {"kind", "pass", "deviation", "tolerance", "witness"},
                    set(), f"{where}: verdict {name}")
        _finite(v["deviation"], f"verdict {name} deviation")
        _finite(v["tolerance"], f"verdict {name} tolerance")
    for name, v in doc["theorem_checks"].items():
        if not isinstance(v, bool):
            raise ParseError(f"{where}: theorem check {name} must be boolean")
    return doc


def save_report(report: ClassifyReport, path: str) -> None:
    _dump(report_to_doc(report), path)


def load_report(path: str) -> dict:
    return report_from_doc(_load(path), where=path)


def load_document(path: str) -> dict:
    """Load any document and dispatch on its kind tag (for the CLI)."""
    doc = _load(path)
    kind = doc.get("kind")
    if kind in BODY_KINDS:
        return {"kind": "body", "body": body_from_doc(doc, where=path)}
    if kind == "gamma":
        return {"kind": "gamma", "gamma": gamma_from_doc(doc, where=path)}
    if kind == "report":
        return {"kind": "report", "report": report_from_doc(doc, where=path)}
    raise ParseError(f"{path}: unrecognized document kind {kind!r}")
