"""Strict JSON persistence for bodies, gamma functions, and reports.

Documents carry schema_version 1 and a kind tag; unknown fields are
rejected so regression corpora stay honest.  Floats are serialized via
Python's shortest round-trip repr, which is lossless for IEEE-754 doubles;
loading re-runs full body validation, so a hand-edited document that breaks
an invariant fails with the invariant's name.

Every document is laid out as json.dump(doc, indent=2, sort_keys=True)
lays it out.  A body document is rendered from the boundary arrays instead,
byte-identical to that: one repr per distinct number, told apart by its
bits (0.0 and -0.0 are two), filled with the pieces of the segment and
vertex templates into object arrays and joined once.  It is read back in
bulk: one pass over the segments for their keys and the shape of their
vectors, one float conversion of every number, and array checks for
finiteness.  The body is built from each segment's
center, radius and start ("from"); the vectors the document repeats, each
segment's end ("to") and the listed vertices, must be unit and must match
the built body's junctions.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .body import CLOSURE_TOL, UNIT_TOL, Boundary, SphericalBody, _rolled
from .errors import InvariantViolation, ParseError
from .sphere import norm

# annotations name wulff.GammaFn and metrics.ClassifyReport, which a body
# document does not need, without importing either layer

SCHEMA_VERSION = 1
BODY_KINDS = ("polygon", "arc_boundary", "cap")


def _number(x) -> float | None:
    """x as a float if it is a JSON number in the float range, else None: an
    int or a float, never a bool (an int to Python) or a numeric string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return None


def _finite(x, name: str) -> float:
    v = _number(x)
    if v is None:
        raise ParseError(f"{name} must be a number, got {x!r}")
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
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION or isinstance(version, bool):  # true == 1
        raise ParseError(f"{where}: schema_version must be {SCHEMA_VERSION}, got {version!r}")


def _dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


# -- bodies -----------------------------------------------------------------


def body_kind(body: SphericalBody) -> str:
    if body.is_full_circle:
        return "cap"
    return "polygon" if body.is_polygon else "arc_boundary"


def _numbers(body: SphericalBody) -> np.ndarray:
    """The centers, starts and radii of the body, flat and in that order:
    7 numbers per arc, each junction once."""
    flat = np.concatenate([body.centers.ravel(), body.starts.ravel(), body.radii])
    if not np.isfinite(flat).all():
        raise ParseError("body has a non-finite component")
    return flat


def body_to_doc(body: SphericalBody) -> dict:
    m = len(body.radii)
    flat = _numbers(body)
    centers, starts = flat[:6 * m].reshape(2, m, 3)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": body_kind(body),
        "vertices": body.vertices.tolist(),
        "segments": [{"center": c, "radius": r, "from": a, "to": b}
                     for c, r, a, b in zip(centers.tolist(), flat[6 * m:].tolist(),
                                           starts.tolist(),
                                           _rolled(starts).tolist())],
        "metadata": body.meta,
    }


def _indented(text: str, depth: int) -> str:
    """Indent-2 JSON text as it is laid out depth levels deep."""
    return text.replace("\n", "\n" + "  " * depth)


def _layout(obj, depth: int) -> list:
    """json.dumps(obj, indent=2, sort_keys=True) on its own lines depth
    levels deep, split at each None: the text around its values."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    return ("  " * depth + _indented(text, depth)).split("null")


def _cells(pieces: np.ndarray, values: np.ndarray) -> list:
    """The text of a list one level deep as json.dumps lays it out, in
    order, as the cells of one object array: an item per row of values
    (reprs), each between the pieces of its template."""
    count, k = values.shape
    if not count:
        return ["[]"]
    cells = np.empty((count, 2 * k + 1), dtype=object)
    cells[:, ::2] = pieces
    cells[:, 1::2] = values
    cells[1:, 0] = ",\n" + pieces[0]
    cells[0, 0] = "[\n" + pieces[0]
    cells[-1, -1] = pieces[-1] + "\n  ]"
    return cells.ravel().tolist()


# a body document and its items, laid out as json.dump lays them out
_BODY = _layout(dict.fromkeys(["kind", "metadata", "schema_version", "segments",
                               "vertices"]), 0)
_SEGMENT = np.array(_layout({"center": [None] * 3, "from": [None] * 3, "radius": None,
                             "to": [None] * 3}, 2), dtype=object)
_VERTEX = np.array(_layout([None] * 3, 2), dtype=object)


def _body_text(body: SphericalBody) -> str:
    """json.dump(body_to_doc(body), fh, indent=2, sort_keys=True) plus a
    newline, byte for byte, rendered from the arrays.  Each junction
    appears three times (as the start of one arc, the end of the one
    before, and a vertex), and a polygon's radii are all pi/2, but each
    distinct number's repr (the shortest round-trip one, as json's) is made
    once.  Numbers are told apart by their bits, so 0.0 and -0.0 keep their
    own reprs.  The segments and the vertices are filled into object arrays
    between the pieces of their templates, and the document is joined once."""
    m = len(body.radii)
    bits, inverse = np.unique(_numbers(body).view(np.int64), return_inverse=True)
    distinct = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    arc = np.arange(m)[:, None]
    xyz = np.arange(3)
    # per arc: center, from, radius, to
    order = np.hstack([3 * arc + xyz, 3 * (m + arc) + xyz, 6 * m + arc,
                       3 * (m + (arc + 1) % m) + xyz])
    reprs = distinct[inverse[order]]
    vertices = 0 if body.is_full_circle else m
    b = _BODY
    return "".join([b[0], json.dumps(body_kind(body)), b[1],
                    _indented(json.dumps(body.meta, indent=2, sort_keys=True), 1), b[2],
                    str(SCHEMA_VERSION), b[3], *_cells(_SEGMENT, reprs), b[4],
                    *_cells(_VERTEX, reprs[:vertices, 7:]), b[5], "\n"])


_SEGMENT_KEYS = {"center", "from", "radius", "to"}
_VECTOR_KEYS = ("center", "from", "to")


def _triple(x, name: str) -> list:
    """x, which must be a JSON list of 3 (a document's vectors are lists of
    3 numbers): a string or an object of 3 keys is not read as one."""
    if type(x) is not list:
        raise ParseError(f"{name} must be a list of 3 numbers")
    if len(x) != 3:
        raise ParseError(f"{name} must have 3 components")
    return x


def _floats(nums: list, name) -> np.ndarray:
    """The numbers as one float array; each must be a JSON number (see
    _number).  name(k) names the vector or radius of number k."""
    try:
        if {float, int}.issuperset(map(type, nums)):
            return np.array(nums, dtype=float)
    except OverflowError:  # an int past the float range
        pass
    for k, x in enumerate(nums):
        if _number(x) is None:
            what = name(k)
            if what == "radius":
                raise ParseError(f"radius must be a number, got {x!r}")
            raise ParseError(f"{what} must be a list of 3 numbers")
    return np.array(nums, dtype=float)  # numbers of a float subclass


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
    # every number in one list: 10 per segment (center, from, to, radius),
    # then 3 per vertex
    nums = []
    for i, sd in enumerate(segs):
        if type(sd) is not dict or sd.keys() != _SEGMENT_KEYS:
            _check_keys(sd, _SEGMENT_KEYS, set(), f"{where}: segment {i}")
        for key in _VECTOR_KEYS:
            v = sd[key]
            nums += v if type(v) is list and len(v) == 3 \
                else _triple(v, f"{where}: segment {i} {key}")
        nums.append(sd["radius"])
    for i, v in enumerate(_list(doc["vertices"], f"{where}: vertices")):
        nums += v if type(v) is list and len(v) == 3 \
            else _triple(v, f"{where}: vertex {i}")
    m = len(segs)

    def vector(j: int) -> str:
        if j >= 3 * m:
            return f"{where}: vertex {j - 3 * m}"
        return f"{where}: segment {j // 3} {_VECTOR_KEYS[j % 3]}"

    def name(k: int) -> str:
        """What number k of nums belongs to: a vector, or "radius"."""
        if k >= 10 * m:
            return vector(3 * m + (k - 10 * m) // 3)
        i, slot = divmod(k, 10)
        return "radius" if slot == 9 else vector(3 * i + slot // 3)

    flat = _floats(nums, name)
    bad = np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        what = name(int(bad[0]))
        raise ParseError("radius is not finite" if what == "radius"
                         else f"{what} has a non-finite component")
    # a document repeats each segment's end ("to") and the junctions
    # ("vertices"): both are checked here, the first against the next start
    # of the body built from the rest, the second against its junctions
    rows = flat[:10 * m].reshape(m, 10)
    copies = np.concatenate([rows[:, 6:9], flat[10 * m:].reshape(-1, 3)])
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norms = norm(copies)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_TOL)
    if len(bad):
        k = int(bad[0])
        raise InvariantViolation(
            f"{vector(3 * k + 2 if k < m else 2 * m + k)}: unit norm violated, "
            f"|v| = {float(norms[k])!r}")
    copies = copies / norms[:, None]
    body = SphericalBody(Boundary(rows[:, :3], rows[:, 9], rows[:, 3:6]), meta=meta)
    gaps = norm(copies[:m] - _rolled(body.starts))
    open_ends = np.flatnonzero(gaps > CLOSURE_TOL)
    if len(open_ends):
        k = int(open_ends[0])
        raise InvariantViolation(
            "closed boundary", f"{where}: segment {k} to misses segment "
            f"{(k + 1) % m} from by {gaps[k]:.3g}")
    listed = copies[m:]
    if listed.shape != body.vertices.shape \
            or (np.abs(listed - body.vertices) > CLOSURE_TOL).any():
        raise ParseError(f"{where}: vertices do not match the segment junctions")
    actual = body_kind(body)
    if actual != kind:
        raise ParseError(f"{where}: kind {kind!r} but segments describe {actual!r}")
    return body


def save_body(body: SphericalBody, path: str) -> None:
    text = _body_text(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    from .wulff import GammaFn  # only gamma documents need the Wulff layer

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
